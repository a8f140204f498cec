package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/tpch"
)

// streamBytes encodes the first n actions of a stream.
func streamBytes(t *testing.T, next func() action, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := 0; i < n; i++ {
		if err := enc.Encode(next()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestStreamsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) func() action{
		"study":  func(seed int64) func() action { return newStudyStream(seed).next },
		"modify": func(seed int64) func() action { return newModifyStream(seed, warmState()).next },
	}
	for name, gen := range gens {
		a, b := streamBytes(t, gen(7), 2000), streamBytes(t, gen(7), 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different op streams", name)
		}
		if c := streamBytes(t, gen(8), 2000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
	}
}

func TestModifyStreamDrawsManyStates(t *testing.T) {
	m := newModifyStream(3, warmState())
	preds := map[string]bool{}
	for i := 0; i < 5000; i++ {
		if a := m.next(); a.Op.Op == "modify" {
			preds[a.Op.Predicate] = true
		}
	}
	// More distinct edited states than the 64-entry snapshot cache holds.
	if len(preds) <= 64 {
		t.Errorf("only %d distinct modify predicates in 5000 actions", len(preds))
	}
}

func TestModifyCyclesEditTheSameDates(t *testing.T) {
	// Every cycle of every seed edits the same multiset of dates; the seed
	// sets only their order.
	cycle := func(m *modifyStream) []string {
		var preds []string
		for a := m.next(); ; a = m.next() {
			if a.Op.Op == "modify" {
				preds = append(preds, a.Op.Predicate)
			}
			if m.atBoundary() {
				return preds
			}
		}
	}
	sorted := func(s []string) []string {
		s = slices.Clone(s)
		slices.Sort(s)
		return s
	}
	a, b := newModifyStream(1, warmState()), newModifyStream(2, warmState())
	first := cycle(a)
	if len(first) != cycleEpisodes {
		t.Fatalf("a cycle has %d modify edits, want %d", len(first), cycleEpisodes)
	}
	others := [][]string{cycle(a), cycle(b)}
	for i, other := range others {
		if slices.Equal(other, first) {
			t.Errorf("cycle %d repeats the first cycle's order", i)
		}
		if !slices.Equal(sorted(other), sorted(first)) {
			t.Errorf("cycle %d edits other dates than the first", i)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100]
	//   a [10,40]      b [50,90]      c [80,120] (overlaps b, outlives root)
	//     a1 [20,30]
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "a1", Start: 20, End: 30},
		{ID: 3, Parent: 0, Name: "b", Start: 50, End: 90},
		{ID: 4, Parent: 0, Name: "c", Start: 80, End: 120},
	}
	got := selfTimes(spans)
	// root: 100 - (30 covered by a + 50 covered by b∪c within [50,100]) = 20
	want := []int64{20, 20, 10, 40, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}

	// Without overlaps the self times of a trace sum to its root's duration.
	nested := spans[:4]
	var sum int64
	for _, s := range selfTimes(nested) {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times of a nested trace sum to %d, want 100", sum)
	}
}

func TestTracedStepSelfTimesSumToStep(t *testing.T) {
	rec := newRecorder(time.Now(), 0)
	p := newTracedSession(rec, engine.New(nil))
	for _, op := range []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Year >= 2003"},
		{Op: "group", Columns: []string{"Model"}, Dir: "asc"},
		{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "AvgP"},
	} {
		if err := p.step(op); err != nil {
			t.Fatal(err)
		}
	}
	st := collectSpans([]*recorder{rec})
	if len(st.steps) != 4 || st.badSums != 0 {
		t.Fatalf("%d steps, %d with self times not summing to the step", len(st.steps), st.badSums)
	}
	for _, name := range []string{"server.decode", "engine.apply", "engine.render", "core.eval", "server.encode"} {
		if st.count[name] != 4 {
			t.Errorf("%d %s spans, want one per step", int(st.count[name]), name)
		}
	}
}

func TestWindowsCountOnlyTheirPhase(t *testing.T) {
	r := newTracedRun(&config{})
	c := obs.Default.Counter("perfbench.test.window")
	c.Inc()
	r.window("loop", func() { c.Add(2) })
	c.Inc()
	r.window("loop", func() { c.Add(3) })
	r.window("suite", func() {})
	if w := r.windows["loop"]; w.runs != 2 || w.counters["perfbench.test.window"] != 5 {
		t.Errorf("loop window: %d runs, count %v; want 2 runs, count 5", w.runs, w.counters["perfbench.test.window"])
	}
	if got := r.windows["suite"].counters["perfbench.test.window"]; got != 0 {
		t.Errorf("suite window counted %v, want 0", got)
	}
}

// carsState builds a small grouped sheet and returns its engine and render.
func carsState(t *testing.T) (*engine.Engine, []engine.Op, []byte) {
	t.Helper()
	ops := []engine.Op{
		{Op: "demo", Table: "cars"},
		{Op: "select", Predicate: "Condition IN ('Good', 'Excellent')"},
		{Op: "group", Columns: []string{"Model"}, Dir: "desc"},
		{Op: "sort", Column: "Price", Dir: "asc"},
	}
	e := engine.New(nil)
	for _, op := range ops {
		if _, err := e.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	render, err := renderOf(e)
	if err != nil {
		t.Fatal(err)
	}
	return e, ops, render
}

func TestRenderChecksCatchAWrongRender(t *testing.T) {
	e, ops, render := carsState(t)
	text, err := e.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRenderSQL(e.DB(), render, text); err != nil {
		t.Fatalf("a correct render failed the SQL check: %v", err)
	}
	if err := coldReplay(e.DB(), ops, render); err != nil {
		t.Fatalf("a correct render failed the cold-replay check: %v", err)
	}

	var body renderBody
	if err := json.Unmarshal(render, &body); err != nil {
		t.Fatal(err)
	}
	body.Rows[1][len(body.Rows[1])-1] += "0"
	wrong, err := encodeRender(body.Grid, body.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRenderSQL(e.DB(), wrong, text); err == nil {
		t.Error("the SQL check accepted a render with a wrong cell")
	}
	if err := coldReplay(e.DB(), ops, wrong); err == nil {
		t.Error("the cold-replay check accepted a render with a wrong cell")
	}
	results := studyResults{}
	if err := results.remember(1, render, ""); err != nil {
		t.Fatal(err)
	}
	if err := results.remember(1, wrong, ""); err == nil {
		t.Error("the study accepted a final render that differs from an earlier walk's")
	}
	body.Rows = body.Rows[:len(body.Rows)-1]
	if short, _ := encodeRender(body.Grid, body.Tree); checkRenderSQL(e.DB(), short, text) == nil {
		t.Error("the SQL check accepted a render missing a row")
	}
}

func TestStreamOpsApply(t *testing.T) {
	// Every study and modify op must be one the engine accepts, or runs
	// would count failures at HEAD.
	db, err := openDB(tpch.Config{ScaleFactor: 0.001, Seed: 1}, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	e := seededEngine(db)
	s := newStudyStream(1)
	for i := 0; i < 300; i++ {
		if a := s.next(); a.Kind == actStep {
			if _, err := e.Apply(a.Op); err != nil {
				t.Fatalf("study op %+v: %v", a.Op, err)
			}
		}
	}
	e = seededEngine(db)
	m := newModifyStream(1, warmState())
	for _, a := range m.setupActions() {
		if _, err := e.Apply(a.Op); err != nil {
			t.Fatalf("modify setup op %+v: %v", a.Op, err)
		}
	}
	for i := 0; i < 300; i++ {
		if a := m.next(); a.Kind == actStep {
			if _, err := e.Apply(a.Op); err != nil {
				t.Fatalf("modify op %+v: %v", a.Op, err)
			}
		}
	}
	if _, err := e.Grid(renderLimit); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarkJSONListsTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit string }
		want [][2]string
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, layerUnits()}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, w := range c.want {
			if c.got[i].Name != w[0] || c.got[i].Unit != w[1] {
				t.Errorf("%s[%d] = %s %s, the benchmark reports %s %s", c.name, i, c.got[i].Name, c.got[i].Unit, w[0], w[1])
			}
		}
	}
}
