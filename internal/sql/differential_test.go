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
// clause, the subquery error paths, and the join kernel's key semantics:
// NULL, cross-kind and signed-zero keys, residual ON conjuncts (including
// ones that error), empty sides, and the name-resolution errors that column
// pruning must leave untouched.
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
	{"join-null-keys-both-sides", "SELECT a.n_name, a.k, b.r_name FROM (SELECT n_name, IF(n_nationkey < 10, NULL, n_regionkey) AS k FROM nation) AS a JOIN (SELECT r_name, IF(r_regionkey = 1, NULL, r_regionkey) AS k FROM region) AS b ON a.k = b.k"},
	{"join-int-float-key", "SELECT n_name, r_name, rk FROM nation JOIN (SELECT r_name, r_regionkey * 1.0 AS rk FROM region) AS f ON n_regionkey = rk"},
	{"join-float-signed-zero-keys", "SELECT a.n_name, a.x, b.r_name, b.x FROM (SELECT n_name, IF(n_nationkey < 3, -0.0, n_regionkey * 1.0) AS x FROM nation) AS a JOIN (SELECT r_name, IF(r_regionkey = 0, 0.0, r_regionkey * 1.0) AS x FROM region) AS b ON a.x = b.x"},
	{"join-string-keys", "SELECT a.n_name, b.r_name FROM (SELECT n_name, SUBSTR(n_name, 1, 1) AS ch FROM nation) AS a JOIN (SELECT r_name, SUBSTR(r_name, 1, 1) AS ch FROM region) AS b ON a.ch = b.ch"},
	{"join-residual-conjunct", "SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey AND n_nationkey > r_regionkey * 4"},
	{"join-residual-errors-on-candidate", "SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey AND n_nationkey / (r_regionkey - 2) > 1"},
	{"join-residual-not-boolean", "SELECT n_name, r_name FROM nation JOIN region ON n_regionkey = r_regionkey AND r_name"},
	{"join-empty-side", "SELECT n_name, r.r_name FROM nation JOIN (SELECT r_name, r_regionkey FROM region WHERE r_regionkey > 99) AS r ON n_regionkey = r.r_regionkey AND r.r_name"},
	{"join-duplicate-alias", "SELECT n_name FROM nation JOIN nation ON n_nationkey = n_nationkey"},
	{"join-star-three-way", "SELECT * FROM region JOIN nation ON r_regionkey = n_regionkey JOIN supplier ON s_nationkey = n_nationkey WHERE s_suppkey < 40"},
	{"join-ambiguous-bare-name-in-where", "SELECT n.n_name FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey JOIN nation m ON m.n_nationkey = n.n_nationkey WHERE n_comment <> ''"},
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

// sf001ViewDigests pins every study view at SF 0.01 (seed 1), the dataset
// sheetserver sessions rebuild their views over.
var sf001ViewDigests = map[string]string{
	"v_shipping_priority": "rows=59487 sha256=1c55d08746791976e26d3a0736e106b22503d595f4fdb56050786835c49d3a3d",
	"v_local_volume":      "rows=2399 sha256=f651d2fb6d10cfa700d9273b2599c42b4a557014ae3984e6f91f7477415da707",
	"v_volume_shipping":   "rows=59487 sha256=55844806bbb6179a9e7a0d02e0dd4f9596e0687f93012111783ef902b263640d",
	"v_profit":            "rows=2351 sha256=abe8295ba480ecce84224e822fc5ebb691d280412685304eb408c8d455275a03",
	"v_returned_items":    "rows=59487 sha256=e75b8d356d0158593e56a60a1d96195184534391ed1ec0110c39f05346be6319",
	"v_part_revenue":      "rows=59487 sha256=af858927dc9bb46316d03e0613669acc4f3b8d92ae4068d18c867bf0c15af42d",
	"v_stock":             "rows=8000 sha256=0b6a448a8f4cd096a804a7fcef0d62af7a84db2cf3453d6a5746e5cd4ea11cf5",
	"v_large_orders":      "rows=59487 sha256=6cd15e9a012827e1cb4a7401a0a59737efc15584153dbb134a6beff5b2b83c0f",
}

// TestViewDigestsSF001 checks the SF 0.01 views bit for bit, beside the
// SF 0.002 golden above.
func TestViewDigestsSF001(t *testing.T) {
	if testing.Short() {
		t.Skip("generates SF 0.01")
	}
	db := tpch.BuildDB(tpch.Generate(tpch.Config{ScaleFactor: 0.01, Seed: 1}))
	if err := tpch.BuildViews(db); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, task := range tpch.Tasks() {
		if task.ViewSQL == "" || seen[task.ViewName] {
			continue
		}
		seen[task.ViewName] = true
		view, _ := db.Table(task.ViewName)
		got := digest(view)
		if want := sf001ViewDigests[task.ViewName]; got != want {
			t.Errorf("view %s: got %s, want %s", task.ViewName, got, want)
		}
	}
}
