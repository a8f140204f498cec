package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/tpch"
)

// serverScale is the TPC-H scale the server workloads open sessions on.
const serverScale = 0.01

// setUps is how many times a run sets up its system under test; setup_s
// is the median.
const setUps = 3

// setUp is what a server workload's set-ups leave: the last server with
// its session, the median set-up time, and the highest VmHWM of the
// servers already killed.
type setUp struct {
	srv     *serverProc
	sess    session
	seconds float64
	rssMB   float64
}

// setUpServer starts a fresh server setUps times, each time opening one
// session, and keeps the last one running. Earlier servers are killed as
// soon as they are timed and their peak memory read. args(i) gives the
// flags of set-up i.
func setUpServer(cfg *config, args func(i int) []string) (setUp, error) {
	var su setUp
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		srv, err := startServer(cfg.server, filepath.Join(cfg.work, "server.log"), args(i)...)
		if err != nil {
			return su, err
		}
		s, err := srv.createSession()
		if err != nil {
			srv.kill()
			return su, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == setUps-1 {
			su.srv, su.sess, su.seconds = srv, s, median(times)
			return su, nil
		}
		rss, err := vmHWM(srv.pid())
		srv.kill()
		if err != nil {
			return su, err
		}
		su.rssMB = max(su.rssMB, rss)
	}
}

// renderBody mirrors the server's render response, so an in-process render
// encodes to the same bytes the server sends.
type renderBody struct {
	*engine.Grid
	Tree *engine.TreeNode `json:"tree"`
}

// encodeRender encodes a render exactly as the server's JSON writer does.
func encodeRender(g *engine.Grid, t *engine.TreeNode) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(renderBody{Grid: g, Tree: t}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// taskResult is what the study keeps of one task: the first final render
// and generated SQL seen, against which every later walk is compared.
type taskResult struct {
	render []byte
	sql    string
}

// studyResults holds each study task's first final render and SQL text.
type studyResults map[int]*taskResult

// remember stores the first final render or SQL text of a task and
// compares every later one against it.
func (s studyResults) remember(task int, render []byte, sqlText string) error {
	tr := s[task]
	if tr == nil {
		tr = &taskResult{}
		s[task] = tr
	}
	switch {
	case render != nil && tr.render == nil:
		tr.render = render
	case render != nil && !bytes.Equal(render, tr.render):
		return fmt.Errorf("task %d: final render differs between walks", task)
	case sqlText != "" && tr.sql == "":
		tr.sql = sqlText
	case sqlText != "" && sqlText != tr.sql:
		return fmt.Errorf("task %d: generated SQL differs between walks", task)
	}
	return nil
}

// check requires every task's render to be what its generated SQL returns
// when run over db, one check per task.
func (s studyResults) check(t *tally, db *sql.DB) {
	for _, task := range tpch.Tasks() {
		tr := s[task.ID]
		if tr == nil || tr.render == nil || tr.sql == "" {
			t.check(fmt.Errorf("task %d: no final render and SQL to compare", task.ID))
			continue
		}
		t.check(checkRenderSQL(db, tr.render, tr.sql))
	}
}

// runStudy replays the user study as traffic: a session walks the ten
// tasks in seeded order on an ephemeral server.
func runStudy(cfg *config, t *tally) (*report, error) {
	rep := newReport()
	su, err := setUpServer(cfg, func(int) []string {
		return []string{"-tpch", fmt.Sprint(serverScale)}
	})
	if err != nil {
		return nil, err
	}
	srv, sess := su.srv, su.sess
	defer srv.kill()
	rep.metrics["setup_s"] = metric{su.seconds, "s"}

	results := studyResults{}

	// do performs one action; it returns the step latency in ms, or -1
	// when the action was not a successful step.
	do := func(a action) float64 {
		switch a.Kind {
		case actStep:
			t0 := time.Now()
			render, err := sess.step(a.Op)
			if !t.check(err) {
				return -1
			}
			d := ms(time.Since(t0))
			if a.Last {
				t.check(results.remember(a.Task, render, ""))
			}
			return d
		case actSQL:
			body, err := sess.get("sql")
			if t.check(err) {
				var resp struct {
					SQL string `json:"sql"`
				}
				err = json.Unmarshal(body, &resp)
				if err == nil {
					err = results.remember(a.Task, nil, resp.SQL)
				}
				t.check(err)
			}
		case actPlan:
			_, err := sess.get("plan")
			t.check(err)
		}
		return -1
	}

	// The session first walks all ten tasks once untimed, so lazy set-up
	// in the server is done; the run then measures whole walks.
	stream := newStudyStream(cfg.seed)
	for _, a := range takeUnit(stream) {
		do(a)
	}
	runtime.GC()
	var lat []float64
	elapsed := drive(stream, cfg.seconds, func(a action) {
		if d := do(a); d >= 0 {
			lat = append(lat, d)
		}
	})
	stepMetrics(rep, lat, elapsed)
	rss, err := vmHWM(srv.pid())
	if err != nil {
		return nil, err
	}
	rep.metrics["rss_peak_mb"] = metric{max(rss, su.rssMB), "MB"}
	srv.kill()

	// Every task must render what its generated SQL returns when run
	// in-process over the same tables.
	checkStart := time.Now()
	db, err := openDB(tpch.Config{ScaleFactor: serverScale, Seed: 1}, nil, plain)
	if err != nil {
		return nil, err
	}
	results.check(t, db)
	rep.info["sql_check_s"] = metric{time.Since(checkStart).Seconds(), "s"}
	rep.provenance["tpch_scale"] = fmt.Sprint(serverScale)
	rep.provenance["durability"] = "none (ephemeral server)"
	return rep, nil
}

// checkRenderSQL runs a task's generated SQL in-process and requires the
// server's render to show the same columns, row count and leading rows.
func checkRenderSQL(db *sql.DB, render []byte, sqlText string) error {
	var body renderBody
	if err := json.Unmarshal(render, &body); err != nil {
		return fmt.Errorf("decode render: %w", err)
	}
	if body.Grid == nil {
		return errors.New("render has no grid")
	}
	rel, err := db.Query(sqlText)
	if err != nil {
		return fmt.Errorf("run generated SQL: %w", err)
	}
	return compareGrid(body.Grid, rel)
}

// compareGrid requires g to be the rendering of rel (up to g's row limit).
func compareGrid(g *engine.Grid, rel *relation.Relation) error {
	if got, want := fmt.Sprint(g.Columns), fmt.Sprint(rel.Schema.Names()); got != want {
		return fmt.Errorf("%s: columns %s, SQL gives %s", g.Sheet, got, want)
	}
	if g.Total != rel.Len() {
		return fmt.Errorf("%s: %d rows, SQL gives %d", g.Sheet, g.Total, rel.Len())
	}
	rows := rel.TupleRows()
	if want := min(len(rows), renderLimit); len(g.Rows) != want {
		return fmt.Errorf("%s: render shows %d rows, want %d", g.Sheet, len(g.Rows), want)
	}
	for i, row := range g.Rows {
		for j, cell := range row {
			if want := rows[i][j].String(); cell != want {
				return fmt.Errorf("%s: row %d column %s is %q, SQL gives %q", g.Sheet, i, g.Columns[j], cell, want)
			}
		}
	}
	return nil
}
