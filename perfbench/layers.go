package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/tpch"
)

// layerUnits lists every per-layer metric with its unit, in report order.
// A traced run emits all of them; a layer that does not run in a workload
// reports 0.
func layerUnits() [][2]string {
	out := [][2]string{
		{"server.decode_ms", "ms"},
		{"server.encode_ms", "ms"},
		{"server.render_bytes", "bytes"},
		{"engine.apply_ms", "ms"},
		{"engine.render_ms", "ms"},
		{"core.eval_ms", "ms"},
	}
	for _, k := range []string{"base", "sigma", "and", "eta", "omega", "theta", "delta", "lambda"} {
		out = append(out, [2]string{"core.stage_ms." + k, "ms"})
	}
	out = append(out,
		[2]string{"core.stage_hits", "count/step"},
		[2]string{"core.stage_recomputes", "count/step"},
		[2]string{"core.stage_hit_ratio", "ratio"},
		[2]string{"core.snapshot_mb", "MB"},
		[2]string{"expr.batch_ok_ratio", "ratio"},
		[2]string{"expr.compile_declined", "count/pass"},
		[2]string{"relation.grouper.collisions_per_build", "count"},
		[2]string{"relation.agg.vectorized_ratio", "ratio"},
		[2]string{"relation.parallel_ratio", "ratio"},
		[2]string{"relation.column.materialize", "count/step"},
		[2]string{"relation.join.fallback_ratio", "ratio"},
	)
	seen := map[string]bool{}
	for _, task := range tpch.Tasks() {
		if task.ViewSQL != "" && !seen[task.ViewName] {
			seen[task.ViewName] = true
			out = append(out, [2]string{"sql.view_build_ms." + task.ViewName, "ms"})
		}
	}
	for _, task := range tpch.Tasks() {
		out = append(out, [2]string{fmt.Sprintf("sql.query_ms.task%d", task.ID), "ms"})
	}
	for _, q := range tpch.ExcludedQueries() {
		out = append(out, [2]string{"sql.query_ms." + q.TpchQuery, "ms"})
	}
	return append(out,
		[2]string{"sql.interpreted_ratio", "ratio"},
		[2]string{"sql.subquery_runs", "count/pass"},
		[2]string{"sql.merge_fallback", "count/pass"},
		[2]string{"sqlgen.generate_ms", "ms"},
		[2]string{"wal.append_ms", "ms"},
		[2]string{"wal.bytes_per_op", "bytes"},
		[2]string{"wal.checkpoint_ms", "ms"},
		[2]string{"wal.checkpoint_bytes", "bytes"},
		[2]string{"wal.recover_ms", "ms"},
		[2]string{"tpch.generate_ms", "ms"},
		[2]string{"trace.step_p50_ms", "ms"},
	)
}

// spanStats aggregates spans by name: self time and count, split by
// whether the span sits in a step trace.
type spanStats struct {
	stepSelf map[string]float64 // ms of self time inside step traces
	self     map[string]float64 // ms of self time anywhere
	dur      map[string]float64 // ms of duration anywhere
	count    map[string]float64
	steps    []float64 // step durations, ms
	badSums  int       // step traces whose self times do not sum to the step
}

func collectSpans(recs []*recorder) spanStats {
	st := spanStats{
		stepSelf: map[string]float64{}, self: map[string]float64{}, dur: map[string]float64{},
		count: map[string]float64{},
	}
	for _, rec := range recs {
		self := selfTimes(rec.spans)
		root := make([]int, len(rec.spans))
		traceSelf := map[int]int64{} // root index -> summed self time
		for i, s := range rec.spans {
			root[i] = i
			if s.Parent >= 0 {
				root[i] = root[s.Parent]
			}
			r := rec.spans[root[i]]
			d := float64(s.End-s.Start) / 1e6
			st.self[s.Name] += float64(self[i]) / 1e6
			st.dur[s.Name] += d
			st.count[s.Name]++
			if r.Name == "step" {
				st.stepSelf[s.Name] += float64(self[i]) / 1e6
				traceSelf[root[i]] += self[i]
			}
		}
		for r, sum := range traceSelf {
			s := rec.spans[r]
			st.steps = append(st.steps, float64(s.End-s.Start)/1e6)
			if sum != s.End-s.Start {
				st.badSums++
			}
		}
	}
	return st
}

// report turns the run's spans and obs deltas into the per-layer metrics
// and writes the spans out.
func (r *tracedRun) report(t *tally) *report {
	recs := []*recorder{r.setup, r.sess.rec}
	st := collectSpans(recs)
	if st.badSums > 0 {
		t.check(fmt.Errorf("%d step traces: span self times do not sum to the step duration", st.badSums))
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	// Counts come from the window of the phase they should move, so that
	// a run's length does not scale them: set-up counts from opening the
	// tables, step counts per step of the measured loop, SQL-only query
	// counts per suite pass.
	count := func(names ...string) func(string) float64 {
		return func(c string) float64 {
			var sum float64
			for _, n := range names {
				if w := r.windows[n]; w != nil {
					sum += w.counters[c]
				}
			}
			return sum
		}
	}
	setup, loop, suite, setupSuite := count("setup"), count("loop"), count("suite"), count("setup", "suite")
	var passes float64
	var loopEnd obs.Snapshot
	if w := r.windows["suite"]; w != nil {
		passes = float64(w.runs)
	}
	if w := r.windows["loop"]; w != nil {
		loopEnd = w.end
	}
	steps := float64(len(st.steps))
	perStep := func(name string) float64 { return ratio(st.stepSelf[name], steps) }
	mean := func(name string) float64 { return ratio(st.self[name], st.count[name]) }

	v := map[string]float64{
		"server.decode_ms": perStep("server.decode"),
		"server.encode_ms": perStep("server.encode"),
		"engine.apply_ms":  perStep("engine.apply"),
		"engine.render_ms": perStep("engine.render"),
		"core.eval_ms":     perStep("core.eval"),

		"core.stage_hits":       ratio(loop("core.eval.stage_hits"), steps),
		"core.stage_recomputes": ratio(loop("core.eval.stage_recomputes"), steps),
		"core.stage_hit_ratio": ratio(loop("core.eval.stage_hits"),
			loop("core.eval.stage_hits")+loop("core.eval.stage_recomputes")),
		"core.snapshot_mb": float64(loopEnd.Gauges["core.eval.snapshot_bytes"]) / (1 << 20),

		"expr.batch_ok_ratio": ratio(loop("expr.batch.ok"),
			loop("expr.batch.ok")+loop("expr.batch.declined")),
		"expr.compile_declined": ratio(suite("expr.compile.declined"), passes),

		"relation.grouper.collisions_per_build": ratio(setup("relation.grouper.collisions"), setup("relation.grouper.builds")),
		"relation.agg.vectorized_ratio": ratio(loop("relation.agg.vectorized"),
			loop("relation.agg.vectorized")+loop("relation.agg.declined")),
		"relation.parallel_ratio": ratio(loop("relation.chunk_runs.parallel"),
			loop("relation.chunk_runs.parallel")+loop("relation.chunk_runs.sequential")),
		"relation.column.materialize": ratio(loop("relation.column.materialize"), steps),
		"relation.join.fallback_ratio": ratio(setupSuite("relation.join.fallback"),
			setupSuite("relation.join.fallback")+setupSuite("relation.join.hash")),

		"sql.interpreted_ratio": ratio(suite("sql.exec.plain_interpreted")+suite("sql.exec.grouped_interpreted"),
			suite("sql.exec.plain_interpreted")+suite("sql.exec.grouped_interpreted")+
				suite("sql.exec.plain_compiled")+suite("sql.exec.grouped_compiled")),
		"sql.subquery_runs":  ratio(suite("sql.subquery_runs"), passes),
		"sql.merge_fallback": ratio(suite("sql.exec.merge_fallback"), passes),
		"sqlgen.generate_ms": mean("sqlgen.generate"),

		"wal.append_ms":     mean("wal.append"),
		"wal.bytes_per_op":  ratio(loop("wal.bytes"), loop("wal.appends")),
		"wal.checkpoint_ms": mean("wal.checkpoint"),
		"wal.recover_ms":    mean("wal.recover"),
		"tpch.generate_ms":  st.dur["tpch.generate"],

		"trace.step_p50_ms": 0,
	}
	if steps > 0 {
		v["trace.step_p50_ms"] = median(st.steps)
	}
	for kind, d := range r.sess.stageMS {
		v["core.stage_ms."+kind] = ratio(d, steps)
	}
	var ckpt float64
	for _, b := range r.sess.ckpt {
		ckpt += b
	}
	v["server.render_bytes"] = ratio(r.sess.bytes, steps)
	v["wal.checkpoint_bytes"] = ratio(ckpt, float64(len(r.sess.ckpt)))
	for name, d := range st.dur {
		if view, ok := strings.CutPrefix(name, "sql.view_build."); ok {
			v["sql.view_build_ms."+view] = d
		}
	}
	for name, d := range st.dur {
		if q, ok := strings.CutPrefix(name, "sql.query."); ok {
			v["sql.query_ms."+q] = d / st.count[name]
		}
	}

	rep := newReport()
	for _, nu := range layerUnits() {
		rep.metrics[nu[0]] = metric{v[nu[0]], nu[1]}
	}
	rep.info["trace.steps"] = metric{steps, "count"}
	rep.info["trace.spans"] = metric{float64(len(st.count)), "names"}
	if err := r.writeSpans(recs); err != nil {
		t.check(fmt.Errorf("write spans: %w", err))
	}
	return rep
}

// writeSpans writes every span of the run to .bench_build/traces, with
// span IDs made unique across recorders.
func (r *tracedRun) writeSpans(recs []*recorder) error {
	var all []span
	for _, rec := range recs {
		off := len(all)
		for _, s := range rec.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	dir := filepath.Join(r.cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.cfg.workload, r.cfg.seed)), data, 0o644)
}
