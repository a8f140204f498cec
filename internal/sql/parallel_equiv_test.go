package sql

import (
	"runtime"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/relation"
)

// Sequential/parallel equivalence for the SQL executor's compiled fast
// paths: every query shape must render identically whether the chunked
// stages run in one chunk or in forced-parallel chunks. Run under -race via
// `make race`, it also proves the chunks share no state.

// equivQueries spans the executor's paths: compiled WHERE filtering, plain
// projection, grouped aggregation (multi-group and the chunked single
// group), HAVING, ORDER BY over aliases / source columns / aggregates,
// DISTINCT, LIMIT/OFFSET, joins, and subquery-bearing statements (which
// run their chunks sequentially).
var equivQueries = []string{
	"SELECT * FROM cars",
	"SELECT Model, Price FROM cars WHERE Price < 15000 AND Condition IN ('Good','Excellent')",
	"SELECT Model, Price / 1000 AS kprice FROM cars WHERE Model LIKE 'C%' ORDER BY kprice DESC, Model",
	"SELECT Model, Price FROM cars WHERE NOT (Year = 2005) ORDER BY Price * -1, ID",
	"SELECT DISTINCT Model, Condition FROM cars ORDER BY Model, Condition",
	"SELECT Model, Price FROM cars ORDER BY Price DESC LIMIT 7 OFFSET 3",
	"SELECT COUNT(*) AS n, SUM(Price) AS total, AVG(Mileage) AS avgm FROM cars",
	"SELECT COUNT(*) FROM cars WHERE Price > 20000",
	"SELECT Model, COUNT(*) AS n, AVG(Price) AS avgp FROM cars GROUP BY Model ORDER BY Model",
	"SELECT Model, MIN(Price) AS lo, MAX(Price) AS hi FROM cars GROUP BY Model HAVING COUNT(*) > 2 ORDER BY lo",
	"SELECT Year, Condition, AVG(Price) AS avgp FROM cars GROUP BY Year, Condition ORDER BY Year, Condition",
	"SELECT Model, AVG(Price) AS avgp FROM cars WHERE Mileage < 120000 GROUP BY Model HAVING AVG(Price) > 14000 ORDER BY avgp DESC",
	"SELECT Model, SUM(Price) / COUNT(*) AS per FROM cars GROUP BY Model ORDER BY SUM(Price) DESC",
	"SELECT c.Model, d.dealer FROM cars c, dealers d WHERE c.Model = d.specialty ORDER BY c.ID",
	"SELECT Model, Price FROM cars WHERE Price > (SELECT AVG(Price) FROM cars) ORDER BY ID",
	"SELECT Model FROM cars WHERE Model IN (SELECT specialty FROM dealers) ORDER BY ID",
	"SELECT Model, Price FROM (SELECT Model, Price FROM cars WHERE Year >= 2003) s WHERE Price < 18000 ORDER BY Price, Model",
}

func equivDB(base *relation.Relation) *DB {
	d := db()
	d.Register(base)
	return d
}

// renderQueryAt runs one query with the given parallel threshold in force.
// GOMAXPROCS is raised so the threshold-0 run splits into real chunks even
// on a single-core host.
func renderQueryAt(t *testing.T, base *relation.Relation, query string, threshold int) string {
	t.Helper()
	old := relation.ParallelThreshold
	relation.ParallelThreshold = threshold
	oldProcs := runtime.GOMAXPROCS(8)
	defer func() {
		relation.ParallelThreshold = old
		runtime.GOMAXPROCS(oldProcs)
	}()
	r, err := equivDB(base).Query(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	return r.String()
}

func TestSQLParallelEquivalence(t *testing.T) {
	bases := map[string]*relation.Relation{
		"usedcars": dataset.UsedCars(),
		"random3k": dataset.RandomCars(3000, 42),
	}
	const sequential = 1 << 30
	for baseName, base := range bases {
		for _, query := range equivQueries {
			want := renderQueryAt(t, base, query, sequential)
			got := renderQueryAt(t, base, query, 0)
			if got != want {
				t.Errorf("%s/%q: parallel output diverged from sequential\n--- parallel ---\n%s\n--- sequential ---\n%s",
					baseName, query, got, want)
			}
		}
	}
}

// TestSQLParallelErrorParity pins error determinism: the chunked WHERE must
// surface the same first-failing-row error the sequential scan does.
func TestSQLParallelErrorParity(t *testing.T) {
	base := dataset.RandomCars(3000, 7)
	run := func(threshold int) error {
		old := relation.ParallelThreshold
		relation.ParallelThreshold = threshold
		oldProcs := runtime.GOMAXPROCS(8)
		defer func() {
			relation.ParallelThreshold = old
			runtime.GOMAXPROCS(oldProcs)
		}()
		_, err := equivDB(base).Query("SELECT Model FROM cars WHERE Price / (Year - Year) > 1")
		return err
	}
	seqErr := run(1 << 30)
	parErr := run(0)
	if seqErr == nil || parErr == nil {
		t.Fatalf("division by zero not surfaced: sequential %v, parallel %v", seqErr, parErr)
	}
	if seqErr.Error() != parErr.Error() {
		t.Fatalf("error parity lost:\nsequential: %v\nparallel:   %v", seqErr, parErr)
	}
}
