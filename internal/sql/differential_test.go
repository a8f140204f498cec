package sql_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/sqlgen"
	"sheetmusiq/internal/tpch"
	"sheetmusiq/internal/value"
)

// The SQL differential golden pins the executor's observable behaviour on
// the TPC-H workload at SF 0.002: every task view, the SQL that sqlgen
// produces for each of the 57 task states, the 14 SQL-only queries, and a
// set of subquery edge cases. Each line records the exact result (a digest
// of every column kind and every cell, floats by their shortest round-trip
// rendering, so a single changed bit shows), or the exact error string,
// plus how many nested statements the query executed (memoisation).
//
// Regenerate with: go test ./internal/sql -run TestSQLDifferentialGolden -update
var updateGolden = flag.Bool("update", false, "rewrite testdata/differential.golden")

const goldenPath = "testdata/differential.golden"

// edgeCases exercise outer-scope binding, correlated subqueries in every
// clause, and the subquery error paths.
var edgeCases = []struct{ name, sql string }{
	{"ambiguous-bare-name-binds-outer", "SELECT r_name FROM region WHERE EXISTS (SELECT a.r_regionkey FROM region a JOIN region b ON a.r_regionkey = b.r_regionkey WHERE a.r_name = r_name AND a.r_regionkey < 3) ORDER BY r_name"},
	{"ambiguous-bare-name-unresolved", "SELECT a.r_name FROM region a JOIN region b ON a.r_regionkey = b.r_regionkey WHERE r_name = 'ASIA'"},
	{"unknown-column-in-correlated", "SELECT n_name FROM nation WHERE EXISTS (SELECT r_regionkey FROM region WHERE r_regionkey = n_regionkey AND r_bogus = 1)"},
	{"scalar-subquery-two-rows", "SELECT n_name, (SELECT r_name FROM region WHERE r_regionkey < 2) AS r FROM nation"},
	{"scalar-subquery-two-columns", "SELECT n_name FROM nation WHERE n_regionkey = (SELECT r_regionkey, r_name FROM region WHERE r_regionkey = 0)"},
	{"exists-non-boolean-predicate", "SELECT n_name FROM nation WHERE EXISTS (SELECT r_regionkey FROM region WHERE r_name)"},
	{"in-subquery-two-columns", "SELECT n_name FROM nation WHERE n_regionkey IN (SELECT r_regionkey, r_name FROM region)"},
	{"subquery-in-join-on", "SELECT n.n_name FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey AND r.r_regionkey IN (SELECT r_regionkey FROM region)"},
	{"correlated-select-list", "SELECT n_name, (SELECT COUNT(*) FROM supplier WHERE s_nationkey = n_nationkey) AS nsupp FROM nation ORDER BY nsupp DESC, n_name"},
	{"correlated-having", "SELECT n_regionkey, COUNT(*) AS n FROM nation GROUP BY n_regionkey HAVING COUNT(*) > (SELECT COUNT(*) FROM region WHERE r_regionkey <= n_regionkey) ORDER BY n_regionkey"},
	{"correlated-order-by", "SELECT n_name FROM nation ORDER BY (SELECT r_name FROM region WHERE r_regionkey = n_regionkey), n_name"},
	{"correlated-aggregate-argument", "SELECT n_regionkey, SUM((SELECT COUNT(*) FROM supplier WHERE s_nationkey = n_nationkey)) AS s FROM nation GROUP BY n_regionkey ORDER BY n_regionkey"},
	{"correlated-group-key", "SELECT COUNT(*) AS c FROM nation GROUP BY (SELECT r_name FROM region WHERE r_regionkey = n_regionkey) ORDER BY c"},
	{"correlated-window-argument", "SELECT n_name, SUM((SELECT COUNT(*) FROM supplier WHERE s_nationkey = n_nationkey)) OVER (PARTITION BY n_regionkey ORDER BY n_name) AS run FROM nation ORDER BY n_name"},
	{"two-level-correlation", "SELECT n_name FROM nation WHERE EXISTS (SELECT r_regionkey FROM region WHERE r_regionkey = n_regionkey AND EXISTS (SELECT s_suppkey FROM supplier WHERE s_nationkey = n_nationkey AND r_regionkey >= 0)) ORDER BY n_name"},
	{"not-in-with-null-semantics", "SELECT r_name FROM region WHERE r_regionkey NOT IN (SELECT n_regionkey FROM nation WHERE n_nationkey < 5) ORDER BY r_name"},
	{"correlated-two-rows-midscan-select", "SELECT n_name, (SELECT s_name FROM supplier WHERE s_nationkey < n_nationkey - 18) AS s FROM nation ORDER BY n_name"},
	{"correlated-two-rows-midscan-where", "SELECT n_name FROM nation WHERE (SELECT s_name FROM supplier WHERE s_nationkey < n_nationkey - 18) IS NOT NULL"},
	{"correlated-two-rows-midscan-aggregate", "SELECT n_regionkey, COUNT(*) AS c, MAX((SELECT s_name FROM supplier WHERE s_nationkey < n_nationkey - 18)) AS m FROM nation GROUP BY n_regionkey"},
	{"scalar-subquery-empty-is-null", "SELECT n_name FROM nation WHERE n_regionkey = (SELECT r_regionkey FROM region WHERE r_regionkey = 99)"},
}

// digest renders a result exactly: column names and kinds, then every cell
// tagged by kind.
func digest(rel *relation.Relation) string {
	var b strings.Builder
	for _, c := range rel.Schema {
		fmt.Fprintf(&b, "%s:%s|", c.Name, c.Kind)
	}
	b.WriteByte('\n')
	for _, row := range rel.TupleRows() {
		for _, v := range row {
			switch v.Kind() {
			case value.KindNull:
				b.WriteString("N")
			case value.KindFloat:
				b.WriteString("f" + strconv.FormatFloat(v.Float(), 'g', -1, 64))
			default:
				b.WriteString(v.Key())
			}
			b.WriteByte('|')
		}
		b.WriteByte('\n')
	}
	return fmt.Sprintf("rows=%d sha256=%x", rel.Len(), sha256.Sum256([]byte(b.String())))
}

// record runs one statement and renders its golden line.
func record(db *sql.DB, name, query string) string {
	before := db.SubqueryRuns()
	rel, err := db.Query(query)
	runs := db.SubqueryRuns() - before
	if err != nil {
		return fmt.Sprintf("%s runs=%d error=%q", name, runs, err.Error())
	}
	return fmt.Sprintf("%s runs=%d %s", name, runs, digest(rel))
}

func differentialLines(t *testing.T) []string {
	t.Helper()
	db := tpch.BuildDB(tpch.Generate(tpch.DefaultConfig()))
	if err := tpch.BuildViews(db); err != nil {
		t.Fatal(err)
	}
	var lines []string
	seen := map[string]bool{}
	for _, task := range tpch.Tasks() {
		if task.ViewSQL == "" || seen[task.ViewName] {
			continue
		}
		seen[task.ViewName] = true
		view, _ := db.Table(task.ViewName)
		lines = append(lines, fmt.Sprintf("view/%s %s", task.ViewName, digest(view)))
	}
	for _, task := range tpch.Tasks() {
		for k := 1; k <= len(task.Steps); k++ {
			s, err := task.Sheet(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range task.Steps[:k] {
				if err := st.Apply(s); err != nil {
					t.Fatalf("task %d step %d: %v", task.ID, k, err)
				}
			}
			text, err := sqlgen.Generate(s)
			if err != nil {
				t.Fatalf("task %d step %d: %v", task.ID, k, err)
			}
			lines = append(lines, record(db, fmt.Sprintf("task%d/step%d", task.ID, k), text))
		}
	}
	for _, q := range tpch.ExcludedQueries() {
		lines = append(lines, record(db, "query/"+q.TpchQuery, q.SQL))
	}
	for _, c := range edgeCases {
		lines = append(lines, record(db, "edge/"+c.name, c.sql))
	}
	return lines
}

func TestSQLDifferentialGolden(t *testing.T) {
	got := differentialLines(t)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d differs:\n got: %s\nwant: %s", i+1, got[i], want[i])
		}
	}
}
