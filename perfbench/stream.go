package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sheetmusiq/internal/core"
	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/tpch"
)

// The op streams. Every request the benchmark sends is drawn here from the
// seed, so the untraced HTTP run and the traced in-process run replay the
// same ops, and the server only ever sees the generated requests.

// actionKind says what a client does next.
type actionKind uint8

const (
	actStep  actionKind = iota // POST /op, then GET /render?limit=50 (a timed step)
	actSQL                     // GET /sql
	actPlan                    // GET /plan
	actState                   // GET /state
)

// action is one client request in a stream. Task is the study task the
// action belongs to (0 outside the study), Last marks the task's final op.
type action struct {
	Kind actionKind `json:"kind"`
	Op   engine.Op  `json:"op"`
	Task int        `json:"task,omitempty"`
	Last bool       `json:"last,omitempty"`
}

// seedRNG derives the op stream's generator from the run seed.
func seedRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + 1))
}

// opStream is a session's op stream.
type opStream interface {
	next() action
	// atBoundary reports whether the stream sits between two units of
	// work (a walk, an edit), where a run may stop.
	atBoundary() bool
}

// takeUnit pulls one unit of work (a walk, an edit) off the stream.
func takeUnit(s opStream) []action {
	out := []action{s.next()}
	for !s.atBoundary() {
		out = append(out, s.next())
	}
	return out
}

// drive is the load generator: one closed-loop client that sends the
// stream's next request only after the previous reply has arrived, as a
// direct-manipulation user waits for the refreshed sheet. Once the time is
// up it stops at the stream's next boundary, so a run measures whole walks
// or edits. It returns the measured time.
func drive(s opStream, seconds time.Duration, act func(a action)) time.Duration {
	start := time.Now()
	for time.Since(start) < seconds || !s.atBoundary() {
		act(s.next())
	}
	return time.Since(start)
}

func dirName(d core.Dir) string {
	if d == core.Desc {
		return "desc"
	}
	return "asc"
}

// stepOps translates one task step into the wire ops the server takes.
func stepOps(st tpch.Step) []engine.Op {
	switch st.Kind {
	case tpch.StepSelect:
		return []engine.Op{{Op: "select", Predicate: st.Predicate}}
	case tpch.StepGroup:
		return []engine.Op{{Op: "group", Columns: st.Columns, Dir: dirName(st.Dir)}}
	case tpch.StepSort:
		return []engine.Op{{Op: "sort", Column: st.SortCol, Dir: dirName(st.Dir)}}
	case tpch.StepAggregate:
		return []engine.Op{{Op: "agg", Fn: string(st.Agg), Column: st.Input, Level: st.Level, Name: st.As}}
	case tpch.StepFormula:
		return []engine.Op{{Op: "formula", Name: st.As, Formula: st.Formula}}
	case tpch.StepHide:
		ops := make([]engine.Op, 0, len(st.Columns))
		for _, c := range st.Columns {
			ops = append(ops, engine.Op{Op: "hide", Column: c})
		}
		return ops
	}
	panic(fmt.Sprintf("perfbench: unknown step kind %d", st.Kind))
}

// studyStream walks the ten study tasks over and over, each walk in a fresh
// seeded order: `use` the task's view, one step per algebra action, then
// GET /sql and GET /plan. Task constants are the paper's; the seed sets
// the task order.
type studyStream struct {
	rng   *rand.Rand
	tasks []tpch.Task
	queue []action
}

func newStudyStream(seed int64) *studyStream {
	return &studyStream{rng: seedRNG(seed), tasks: tpch.Tasks()}
}

// atBoundary reports whether the stream sits between two walks.
func (s *studyStream) atBoundary() bool { return len(s.queue) == 0 }

func (s *studyStream) next() action {
	if len(s.queue) == 0 {
		for _, i := range s.rng.Perm(len(s.tasks)) {
			t := s.tasks[i]
			s.queue = append(s.queue, action{Kind: actStep, Op: engine.Op{Op: "use", Table: t.ViewName}, Task: t.ID})
			for _, st := range t.Steps {
				for _, op := range stepOps(st) {
					s.queue = append(s.queue, action{Kind: actStep, Op: op, Task: t.ID})
				}
			}
			s.queue[len(s.queue)-1].Last = true
			s.queue = append(s.queue,
				action{Kind: actSQL, Task: t.ID},
				action{Kind: actPlan, Task: t.ID})
		}
	}
	a := s.queue[0]
	s.queue = s.queue[1:]
	return a
}

// modifyState is the warm task state of the modify workload: Q3 over
// v_shipping_priority, built once. The edits redraw the date constant of
// its order-date selection; sort flips and window adds use sortCol and
// partCol.
type modifyState struct {
	view    string
	setup   []engine.Op
	selID   int    // the redrawn selection, numbered in setup order
	format  string // its predicate, with one %s for the date
	sortCol string
	partCol string
}

func warmState() modifyState {
	q3 := tpch.Tasks()[1]
	ops := []engine.Op{{Op: "use", Table: q3.ViewName}}
	for _, st := range q3.Steps {
		ops = append(ops, stepOps(st)...)
	}
	return modifyState{
		view: q3.ViewName, setup: ops,
		selID: 2, format: "o_orderdate < DATE '%s'",
		sortCol: "l_extendedprice", partCol: "o_orderkey",
	}
}

// editDates is the constant domain of the modify edits: 120 dates, 11
// days apart, from 1994-12-01 to 1998-07-02. Before 1994-12-01 the warm
// state is empty, as it also keeps only lines shipped after 1995-03-15;
// 1998-08-02 is the last generated order date. So every draw shows rows,
// and the cost of a step grows smoothly with the date. With half the dates
// giving an empty sheet, the median step fell between the cheap and the
// costly steps and jumped by 40% from seed to seed.
func editDates() []string {
	base := time.Date(1994, 12, 1, 0, 0, 0, 0, time.UTC)
	out := make([]string, 120)
	for i := range out {
		out[i] = base.AddDate(0, 0, 11*i).Format("2006-01-02")
	}
	return out
}

// editKind is one kind of modify-workload edit.
type editKind uint8

const (
	editModify   editKind = iota // modify the date selection
	editSort                     // flip the sort direction
	editAddDrop                  // add a formula or window column, then drop it
	editUndoRedo                 // undo, then redo
)

// cycleEpisodes is the number of edit episodes in a cycle. An episode is
// one modify to the cycle's next date, then a sort flip, an add/drop and
// an undo/redo in seeded order, so the mix is uniform over the four kinds
// of edit and every date is shown for the same six steps. Neither the
// paper nor its user study gives the proportions of Sec. V edits, so the
// mix is an assumption: the simplest one.
const cycleEpisodes = 150

// zipfCDF is the cumulative distribution of Zipf's law over n ranks,
// P(r) ∝ 1/(r+1), the skew of the modify edits' dates.
func zipfCDF(n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / float64(r+1)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return cdf
}

// cycleDates are the dates of one cycle: Zipf's law over a fixed
// popularity order of editDates, cut into cycleEpisodes equally likely
// slots, each slot taking the date at its middle quantile. The most
// popular date fills 28 slots and 68 dates appear, more distinct states
// than the 64-entry per-sheet snapshot cache holds, so a cycle has both
// cache hits and evictions.
func cycleDates() []string {
	dates := editDates()
	// The popularity order is fixed, so every seed edits the same dates.
	rank := rand.New(rand.NewSource(1))
	rank.Shuffle(len(dates), func(i, j int) { dates[i], dates[j] = dates[j], dates[i] })
	cdf := zipfCDF(len(dates))
	out := make([]string, cycleEpisodes)
	for i := range out {
		u := (float64(i) + 0.5) / cycleEpisodes
		out[i] = dates[min(sort.SearchFloat64s(cdf, u), len(dates)-1)]
	}
	return out
}

// modifyStream draws the Sec. V query-modification edits on the warm
// state in cycles. Every cycle edits the same multiset of dates, in an
// order the seed shuffles, and a run stops only at the end of a cycle. So
// every run edits the same mix of dates, and the seed sets the order of
// dates and edits, not their mix: with dates drawn independently, the
// dates a run happened to draw moved its median step from seed to seed.
// Every 20th step is followed by GET /plan and GET /state.
type modifyStream struct {
	rng     *rand.Rand
	state   modifyState
	cycle   []string   // the dates of one cycle, in slot order
	drawn   []string   // the current cycle's dates still to come
	episode []editKind // the current episode's edits still to come
	queue   []action
	sortUp  bool
	steps   int
	cols    int
}

func newModifyStream(seed int64, st modifyState) *modifyStream {
	return &modifyStream{rng: seedRNG(seed), state: st, cycle: cycleDates()}
}

// setupActions are the ops that build the warm state, each rendered.
func (m *modifyStream) setupActions() []action {
	out := make([]action, len(m.state.setup))
	for i, op := range m.state.setup {
		out[i] = action{Kind: actStep, Op: op}
	}
	return out
}

func (m *modifyStream) push(ops ...engine.Op) {
	for _, op := range ops {
		m.queue = append(m.queue, action{Kind: actStep, Op: op})
		m.steps++
		if m.steps%20 == 0 {
			m.queue = append(m.queue, action{Kind: actPlan}, action{Kind: actState})
		}
	}
}

// atBoundary reports whether the stream sits between two cycles, where a
// run may stop.
func (m *modifyStream) atBoundary() bool {
	return len(m.queue) == 0 && len(m.episode) == 0 && len(m.drawn) == 0
}

func (m *modifyStream) next() action {
	if len(m.queue) == 0 {
		if len(m.episode) == 0 {
			if len(m.drawn) == 0 {
				m.drawn = append(m.drawn, m.cycle...)
				m.rng.Shuffle(len(m.drawn), func(i, j int) { m.drawn[i], m.drawn[j] = m.drawn[j], m.drawn[i] })
			}
			rest := []editKind{editSort, editAddDrop, editUndoRedo}
			m.rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
			m.episode = append(append(m.episode, editModify), rest...)
		}
		kind := m.episode[0]
		m.episode = m.episode[1:]
		switch kind {
		case editModify:
			date := m.drawn[0]
			m.drawn = m.drawn[1:]
			m.push(engine.Op{Op: "modify", ID: m.state.selID, Predicate: fmt.Sprintf(m.state.format, date)})
		case editSort:
			m.sortUp = !m.sortUp
			dir := "desc"
			if m.sortUp {
				dir = "asc"
			}
			m.push(engine.Op{Op: "sort", Column: m.state.sortCol, Dir: dir})
		case editAddDrop:
			// Formula and window adds alternate.
			m.cols++
			add := engine.Op{Op: "formula", Name: fmt.Sprintf("f%d", m.cols),
				Formula: fmt.Sprintf("l_extendedprice * (1 - l_discount) * %d", 1+m.rng.Intn(9))}
			if m.cols%2 == 0 {
				add = engine.Op{Op: "window", Name: fmt.Sprintf("w%d", m.cols),
					Window: fmt.Sprintf("RANK() OVER (PARTITION BY %s ORDER BY l_extendedprice)", m.state.partCol)}
			}
			m.push(add, engine.Op{Op: "dropcol", Column: add.Name})
		case editUndoRedo:
			m.push(engine.Op{Op: "undo"}, engine.Op{Op: "redo"})
		}
	}
	a := m.queue[0]
	m.queue = m.queue[1:]
	return a
}
