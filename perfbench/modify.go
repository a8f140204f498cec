package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/tpch"
)

// durableFlags are the modify workload's durability settings: the
// server's defaults, spelled out so every run records and uses the same.
func durableFlags(dataDir string) []string {
	return []string{
		"-tpch", fmt.Sprint(serverScale),
		"-data-dir", dataDir,
		"-fsync", "batch", "-fsync-interval", "25ms",
		"-snapshot-every", "256",
	}
}

// runModify drives Sec. V query modification on a warm sheet of a durable
// server, then kills it with SIGKILL, restarts it on the same data
// directory and checks recovery.
func runModify(cfg *config, t *tally) (*report, error) {
	rep := newReport()
	dataDir := func(i int) string { return filepath.Join(cfg.work, fmt.Sprintf("data%d", i)) }
	su, err := setUpServer(cfg, func(i int) []string { return durableFlags(dataDir(i)) })
	if err != nil {
		return nil, err
	}
	srv, sess := su.srv, su.sess
	defer func() { srv.kill() }()
	rep.metrics["setup_s"] = metric{su.seconds, "s"}

	// acked holds every op the server acknowledged, in order, and last the
	// last render it acknowledged.
	var acked []engine.Op
	var last []byte
	state := warmState()
	stream := newModifyStream(cfg.seed, state)
	for _, a := range stream.setupActions() {
		render, err := sess.step(a.Op)
		if !t.check(err) {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		acked, last = append(acked, a.Op), render
	}

	runtime.GC()
	var lat []float64
	elapsed := drive(stream, cfg.seconds, func(a action) {
		switch a.Kind {
		case actStep:
			t0 := time.Now()
			render, err := sess.step(a.Op)
			if !t.check(err) {
				return
			}
			lat = append(lat, ms(time.Since(t0)))
			acked, last = append(acked, a.Op), render
		case actPlan:
			_, err := sess.get("plan")
			t.check(err)
		case actState:
			_, err := sess.get("state")
			t.check(err)
		}
	})
	stepMetrics(rep, lat, elapsed)
	rss, err := vmHWM(srv.pid())
	if err != nil {
		return nil, err
	}

	// Crash and recover: the session must render exactly what it last
	// acknowledged.
	srv.kill()
	restart := time.Now()
	srv, err = startServer(cfg.server, filepath.Join(cfg.work, "server.log"), durableFlags(dataDir(setUps-1))...)
	if err != nil {
		return nil, fmt.Errorf("restart after kill: %w", err)
	}
	render, err := session{srv: srv, id: sess.id}.get(fmt.Sprintf("render?limit=%d", renderLimit))
	rep.info["recover_s"] = metric{time.Since(restart).Seconds(), "s"}
	if err == nil && !bytes.Equal(render, last) {
		err = fmt.Errorf("session %s: render after kill -9 differs from the last acknowledged one", sess.id)
	}
	t.check(err)
	restarted, err := vmHWM(srv.pid())
	if err != nil {
		return nil, err
	}
	srv.kill()
	rep.metrics["rss_peak_mb"] = metric{max(rss, restarted, su.rssMB), "MB"}

	// Warm ≡ cold: replaying the acknowledged ops in a fresh engine must
	// reproduce the last acknowledged render byte for byte.
	db, err := openDB(tpch.Config{ScaleFactor: serverScale, Seed: 1}, map[string]bool{state.view: true}, plain)
	if err != nil {
		return nil, err
	}
	t.check(coldReplay(db, acked, last))
	rep.info["acked_ops"] = metric{float64(len(acked)), "count"}
	rep.provenance["tpch_scale"] = fmt.Sprint(serverScale)
	rep.provenance["durability"] = "fsync batch, fsync-interval 25ms, snapshot-every 256"
	return rep, nil
}

// plain runs fn untimed; it stands in for a span where nothing is traced.
func plain(_ string, fn func() error) error { return fn() }

// openDB generates the TPC-H tables at cfg and builds the task views named
// in views (every task view when views is nil). Generation runs as
// "tpch.generate" and each view as "sql.view_build.<view>" through span.
func openDB(cfg tpch.Config, views map[string]bool, span spanFunc) (*sql.DB, error) {
	var tb *tpch.Tables
	_ = span("tpch.generate", func() error { // generation cannot fail
		tb = tpch.Generate(cfg)
		return nil
	})
	db := tpch.BuildDB(tb)
	for _, task := range tpch.Tasks() {
		if task.ViewSQL == "" || (views != nil && !views[task.ViewName]) {
			continue
		}
		if _, ok := db.Table(task.ViewName); ok {
			continue
		}
		err := span("sql.view_build."+task.ViewName, func() error {
			view, err := db.Query(task.ViewSQL)
			if err != nil {
				return err
			}
			view.Name = task.ViewName
			db.Register(view)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("build view %s: %w", task.ViewName, err)
		}
	}
	return db, nil
}

// seededEngine returns a fresh engine whose raw tables are db's.
func seededEngine(db *sql.DB) *engine.Engine {
	e := engine.New(nil)
	for _, name := range db.Names() {
		rel, _ := db.Table(name) // listed by Names, so present
		e.DB().Register(rel)
	}
	return e
}

// coldReplay applies ops to a fresh engine and compares its render with
// want.
func coldReplay(db *sql.DB, ops []engine.Op, want []byte) error {
	e := seededEngine(db)
	for i, op := range ops {
		if _, err := e.Apply(op); err != nil {
			return fmt.Errorf("cold replay op %d (%s): %w", i, op.Op, err)
		}
	}
	got, err := renderOf(e)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("cold replay of %d ops renders differently from the warm server", len(ops))
	}
	return nil
}

// renderOf renders an engine's sheet as the server would.
func renderOf(e *engine.Engine) ([]byte, error) {
	g, err := e.Grid(renderLimit)
	if err != nil {
		return nil, err
	}
	tree, err := e.Tree()
	if err != nil {
		return nil, err
	}
	return encodeRender(g, tree)
}
