package main

import (
	"sort"
	"time"
)

// The traced run's span recorder. The benchmark opens one span around each
// call it makes into a layer's public functions; spans of one step share a
// trace ID. Spans stay in memory and are written out when the run ends.

// span is one finished layer call. Start and End are nanoseconds since the
// recorder was created; Parent is -1 for a trace's root.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder collects spans. It is not safe for concurrent use; a traced run
// keeps one for its set-up and one for its session, and merges them at the
// end.
type recorder struct {
	base  time.Time
	spans []span
	open  []int // stack of open span indexes
	trace uint64
}

// newRecorder starts a recorder whose trace IDs are id<<40 + 1, 2, ...,
// so IDs stay unique across a run's recorders.
func newRecorder(base time.Time, id int) *recorder {
	return &recorder{base: base, trace: uint64(id) << 40}
}

// begin opens a root span under a fresh trace ID.
func (r *recorder) begin(name string) {
	r.trace++
	r.start(name)
}

// start opens a child of the innermost open span.
func (r *recorder) start(name string) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	r.spans = append(r.spans, span{
		Trace: r.trace, ID: len(r.spans), Parent: parent, Name: name,
		Start: int64(time.Since(r.base)),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.base))
}

// spanFunc runs fn inside a span named name.
type spanFunc func(name string, fn func() error) error

// root runs fn inside the root span of a fresh trace.
func (r *recorder) root(name string, fn func() error) error {
	r.begin(name)
	defer r.end()
	return fn()
}

// in runs fn inside a child span.
func (r *recorder) in(name string, fn func() error) error {
	r.start(name)
	defer r.end()
	return fn()
}

// selfTimes returns each span's self time in nanoseconds, keyed by span
// index: its duration minus the part of its interval that its children
// cover (overlapping children are counted once, and a child's time outside
// the parent is not subtracted). Span IDs are indexes into spans.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cur, curEnd := s.Start, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curEnd {
				covered += curEnd - cur
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		covered += curEnd - cur
		self[i] = s.End - s.Start - covered
	}
	return self
}
