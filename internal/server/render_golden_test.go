package server

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/tpch"
)

// The render golden pins the bytes of GET /render for the final state of
// every study task at TPC-H SF 0.002: the limited render a client pages
// through (limit=50) and the full render. Each line is the SHA-256 of the
// exact response body, so any change to grid paging, cell text or the
// group tree shows up as a digest mismatch.
//
// Regenerate with: go test ./internal/server -run TestRenderGolden -update
var updateRenderGolden = flag.Bool("update", false, "rewrite testdata/render.golden")

const renderGoldenPath = "testdata/render.golden"

// tpchSeed registers the SF 0.002 tables and the study views in a
// session's registry.
func tpchSeed(db *sql.DB) error {
	for _, r := range tpch.Generate(tpch.Config{ScaleFactor: 0.002, Seed: 1}).All() {
		db.Register(r)
	}
	return tpch.BuildViews(db)
}

// taskOps translates one task step into the wire ops the server takes.
func taskOps(st tpch.Step) []engine.Op {
	dir := "asc"
	if st.Dir == core.Desc {
		dir = "desc"
	}
	switch st.Kind {
	case tpch.StepSelect:
		return []engine.Op{{Op: "select", Predicate: st.Predicate}}
	case tpch.StepGroup:
		return []engine.Op{{Op: "group", Columns: st.Columns, Dir: dir}}
	case tpch.StepSort:
		return []engine.Op{{Op: "sort", Column: st.SortCol, Dir: dir}}
	case tpch.StepAggregate:
		return []engine.Op{{Op: "agg", Fn: string(st.Agg), Column: st.Input, Level: st.Level, Name: st.As}}
	case tpch.StepFormula:
		return []engine.Op{{Op: "formula", Name: st.As, Formula: st.Formula}}
	case tpch.StepHide:
		var ops []engine.Op
		for _, c := range st.Columns {
			ops = append(ops, engine.Op{Op: "hide", Column: c})
		}
		return ops
	}
	panic(fmt.Sprintf("unknown step kind %d", st.Kind))
}

// rawGet returns the body of a GET that must answer 200.
func (c *client) rawGet(path string) []byte {
	c.t.Helper()
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

func TestRenderGolden(t *testing.T) {
	_, c := newTestServer(t, Config{Seed: tpchSeed})
	id := c.create("golden")
	var got []string
	for _, task := range tpch.Tasks() {
		c.op(id, engine.Op{Op: "use", Table: task.ViewName})
		for _, st := range task.Steps {
			for _, op := range taskOps(st) {
				c.op(id, op)
			}
		}
		for _, q := range []string{"?limit=50", ""} {
			body := c.rawGet("/v1/sessions/" + id + "/render" + q)
			got = append(got, fmt.Sprintf("task %d render%s %x", task.ID, q, sha256.Sum256(body)))
		}
	}
	if *updateRenderGolden {
		if err := os.WriteFile(renderGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(renderGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, run produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("render differs from golden:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
