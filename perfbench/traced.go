package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/sql"
	"sheetmusiq/internal/tpch"
	"sheetmusiq/internal/wal"
)

// The traced run replays a workload's op streams in-process, calling each
// layer's public functions the way the server's handlers do, with one span
// around every call. Layer times are self times: a span's duration minus
// the time its child spans cover, so the self times of a step's spans sum
// to the step's duration. Counts are deltas of the program's obs registry
// over the run.

// stageKinds maps the first glyph of a plan stage name to its metric name.
var stageKinds = map[string]string{
	"base": "base", "σ": "sigma", "∧": "and", "η": "eta",
	"ω": "omega", "θ": "theta", "δ": "delta", "λ": "lambda",
}

// stageKind names a plan stage's kind from its display name.
func stageKind(name string) string {
	if name == "base" {
		return "base"
	}
	for glyph, kind := range stageKinds {
		if strings.HasPrefix(name, glyph) {
			return kind
		}
	}
	return ""
}

// tracedSession is one in-process session of the traced run.
type tracedSession struct {
	rec     *recorder
	eng     *engine.Engine
	wlog    *wal.SessionLog // nil when the workload is not durable
	walDir  string
	stageMS map[string]float64
	ckpt    []float64 // checkpoint file sizes in bytes
	bytes   float64   // encoded render bytes, summed over steps
	last    []byte    // the last render
	sql     string    // the last generated SQL text
}

func newTracedSession(rec *recorder, eng *engine.Engine) *tracedSession {
	return &tracedSession{rec: rec, eng: eng, stageMS: map[string]float64{}}
}

// reset drops what the session recorded so far (its warm-up).
func (p *tracedSession) reset() {
	p.rec.spans = p.rec.spans[:0]
	p.stageMS = map[string]float64{}
	p.ckpt = nil
	p.bytes = 0
}

// step replays one op the way POST /op then GET /render would serve it.
func (p *tracedSession) step(op engine.Op) error {
	wire, err := json.Marshal(op)
	if err != nil {
		return err
	}
	p.rec.begin("step")
	err = p.stepSpans(wire)
	p.rec.end()
	if err != nil {
		return err
	}
	plan, err := p.eng.Plan()
	if err != nil {
		return err
	}
	for _, st := range plan.Stages {
		if !st.Cached {
			p.stageMS[stageKind(st.Name)] += st.DurationMS
		}
	}
	return nil
}

func (p *tracedSession) stepSpans(wire []byte) error {
	var op engine.Op
	err := p.rec.in("server.decode", func() error {
		dec := json.NewDecoder(bytes.NewReader(wire))
		dec.DisallowUnknownFields()
		return dec.Decode(&op)
	})
	if err != nil {
		return err
	}
	if err := p.rec.in("engine.apply", func() error { return p.apply(op) }); err != nil {
		return err
	}
	var g *engine.Grid
	var tree *engine.TreeNode
	err = p.rec.in("engine.render", func() error {
		err := p.rec.in("core.eval", func() error {
			_, err := p.eng.Evaluate()
			return err
		})
		if err != nil {
			return err
		}
		if g, err = p.eng.Grid(renderLimit); err != nil {
			return err
		}
		tree, err = p.eng.Tree()
		return err
	})
	if err != nil {
		return err
	}
	return p.rec.in("server.encode", func() error {
		body, err := encodeRender(g, tree)
		p.last = body
		p.bytes += float64(len(body))
		return err
	})
}

// apply mirrors the server session's ApplyOp: apply, then log a mutating
// op and checkpoint on the log's cadence.
func (p *tracedSession) apply(op engine.Op) error {
	eff, err := p.eng.Apply(op)
	if err != nil || p.wlog == nil || !eff.Mutated {
		return err
	}
	if err := p.rec.in("wal.append", func() error { return p.wlog.AppendOp(op) }); err != nil {
		return err
	}
	if !p.wlog.ShouldCheckpoint() {
		return nil
	}
	if err := p.rec.in("wal.checkpoint", func() error { return p.wlog.Checkpoint(p.eng) }); err != nil {
		return err
	}
	if size, err := newestCheckpoint(p.walDir); err == nil {
		p.ckpt = append(p.ckpt, size)
	}
	return nil
}

// newestCheckpoint returns the size of the newest checkpoint file in dir.
func newestCheckpoint(dir string) (float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.json"))
	if err != nil || len(names) == 0 {
		return 0, fmt.Errorf("no checkpoint in %s", dir)
	}
	// Sequence numbers are zero-padded, so the lexical maximum is newest.
	newest := names[0]
	for _, n := range names[1:] {
		newest = max(newest, n)
	}
	fi, err := os.Stat(newest)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()), nil
}

// request replays a read endpoint (GET /sql, /plan or /state).
func (p *tracedSession) request(kind actionKind) error {
	var v any
	var err error
	switch kind {
	case actSQL:
		p.rec.begin("request.sql")
		err = p.rec.in("sqlgen.generate", func() error {
			text, err := p.eng.SQL()
			if err != nil {
				return err
			}
			p.sql = text
			stages, err := p.eng.Stages()
			v = map[string]any{"sql": text, "stages": stages}
			return err
		})
	case actPlan:
		p.rec.begin("request.plan")
		err = p.rec.in("engine.plan", func() error {
			var err error
			v, err = p.eng.Plan()
			return err
		})
	case actState:
		p.rec.begin("request.state")
		err = p.rec.in("engine.state", func() error {
			var err error
			v, err = p.eng.State()
			return err
		})
	default:
		return fmt.Errorf("unknown request kind %d", kind)
	}
	if err == nil {
		err = p.rec.in("server.encode", func() error {
			_, err := json.Marshal(v)
			return err
		})
	}
	p.rec.end()
	return err
}

// tracedRun is the shared state of one traced run. Its methods also work
// on a nil *tracedRun, the untraced run of a body shared by both modes:
// spans then become plain calls and windows count nothing.
type tracedRun struct {
	cfg     *config
	setup   *recorder
	sess    *tracedSession
	db      *sql.DB
	windows map[string]*window
}

// window holds the obs counter deltas over one phase of a run, summed
// over the times the phase ran. Counters holds sql.subquery_runs too,
// which the DB keeps rather than the obs registry.
type window struct {
	runs     int
	counters map[string]float64
	end      obs.Snapshot // the registry when the phase last ended
}

func newTracedRun(cfg *config) *tracedRun {
	base := time.Now()
	return &tracedRun{
		cfg: cfg, windows: map[string]*window{},
		setup: newRecorder(base, 0), sess: newTracedSession(newRecorder(base, 1), nil),
	}
}

// window runs fn and adds the counter deltas it causes to the named
// window: "setup" (opening the tables), "loop" (the measured steps with
// their reads) or "suite" (a pass over the SQL-only queries).
func (r *tracedRun) window(name string, fn func()) {
	if r == nil {
		fn()
		return
	}
	subqueries := func() int64 {
		if r.db == nil {
			return 0
		}
		return int64(r.db.SubqueryRuns())
	}
	before, runs := obs.Default.Snapshot(), subqueries()
	fn()
	after := obs.Default.Snapshot()
	w := r.windows[name]
	if w == nil {
		w = &window{counters: map[string]float64{}}
		r.windows[name] = w
	}
	for k, v := range after.Counters {
		w.counters[k] += float64(v - before.Counters[k])
	}
	w.counters["sql.subquery_runs"] += float64(subqueries() - runs)
	w.runs++
	w.end = after
}

// setUps is how many set-ups a run makes: setUps untraced, one traced.
func (r *tracedRun) setUps() int {
	if r == nil {
		return setUps
	}
	return 1
}

// spans returns the functions that open a root span and a child span.
func (r *tracedRun) spans() (root, in spanFunc) {
	if r == nil {
		return plain, plain
	}
	return r.sess.rec.root, r.sess.rec.in
}

// openDB opens the run's tables; traced, the generation and each view
// build run inside a setup span, and the counts in the setup window.
func (r *tracedRun) openDB(cfg tpch.Config, views map[string]bool) (*sql.DB, error) {
	if r == nil {
		return openDB(cfg, views, plain)
	}
	var err error
	r.window("setup", func() {
		err = r.setup.root("setup", func() error {
			r.db, err = openDB(cfg, views, r.setup.in)
			return err
		})
	})
	return r.db, err
}

// act replays one action of the stream and reports whether it succeeded.
func (r *tracedRun) act(t *tally, a action) bool {
	if a.Kind == actStep {
		return t.check(r.sess.step(a.Op))
	}
	return t.check(r.sess.request(a.Kind))
}

// measure replays the untimed warm-up, drops what it recorded (the
// untraced run does not time it either), then replays the stream for the
// run's time in the loop window.
func (r *tracedRun) measure(warmUp []action, stream opStream, act func(action)) {
	for _, a := range warmUp {
		act(a)
	}
	r.sess.reset()
	r.window("loop", func() { drive(stream, r.cfg.seconds, act) })
}

func traceStudy(cfg *config, t *tally) (*report, error) {
	r := newTracedRun(cfg)
	db, err := r.openDB(tpch.Config{ScaleFactor: serverScale, Seed: 1}, nil)
	if err != nil {
		return nil, err
	}
	p := r.sess
	p.eng = seededEngine(db)
	results := studyResults{}
	stream := newStudyStream(cfg.seed)
	r.measure(takeUnit(stream), stream, func(a action) {
		if !r.act(t, a) {
			return
		}
		switch {
		case a.Kind == actStep && a.Last:
			t.check(results.remember(a.Task, p.last, ""))
		case a.Kind == actSQL:
			t.check(results.remember(a.Task, nil, p.sql))
		}
	})
	results.check(t, db)
	rep := r.report(t)
	rep.provenance["tpch_scale"] = fmt.Sprint(serverScale)
	rep.provenance["durability"] = "none"
	return rep, nil
}

func traceModify(cfg *config, t *tally) (*report, error) {
	r := newTracedRun(cfg)
	state := warmState()
	db, err := r.openDB(tpch.Config{ScaleFactor: serverScale, Seed: 1}, map[string]bool{state.view: true})
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "wal")
	opts := wal.Options{Sync: wal.SyncBatch, BatchInterval: 25 * time.Millisecond, SegmentBytes: 4 << 20}
	store, err := wal.NewStore(dir, opts, wal.DefaultSnapshotEvery)
	if err != nil {
		return nil, err
	}
	p := r.sess
	p.eng = seededEngine(db)
	meta := wal.SessionMeta{ID: "s1", Created: time.Unix(0, 0)}
	if p.wlog, err = store.Open(meta); err != nil {
		return nil, err
	}
	p.walDir = filepath.Join(dir, "sessions", meta.ID)
	stream := newModifyStream(cfg.seed, state)
	r.measure(stream.setupActions(), stream, func(a action) { r.act(t, a) })

	// Crash: drop the log without a checkpoint, then recover the session
	// from its directory and compare with its last render.
	if err := p.wlog.Close(nil); err != nil {
		return nil, err
	}
	if store, err = wal.NewStore(dir, opts, wal.DefaultSnapshotEvery); err != nil {
		return nil, err
	}
	sl, err := store.Open(meta)
	if err != nil {
		return nil, err
	}
	var eng *engine.Engine
	p.rec.begin("recover")
	err = p.rec.in("wal.recover", func() error {
		var err error
		eng, _, err = sl.Recover(func() (*engine.Engine, error) { return seededEngine(db), nil })
		return err
	})
	p.rec.end()
	if err == nil {
		var got []byte
		if got, err = renderOf(eng); err == nil && !bytes.Equal(got, p.last) {
			err = fmt.Errorf("session %s: recovered render differs from the last one", meta.ID)
		}
	}
	t.check(err)
	if err := sl.Close(nil); err != nil {
		return nil, err
	}
	rep := r.report(t)
	rep.provenance["tpch_scale"] = fmt.Sprint(serverScale)
	rep.provenance["durability"] = "fsync batch, fsync-interval 25ms, snapshot-every 256"
	return rep, nil
}
