package obs

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the bucket-assignment rule: a duration
// lands in the first bucket whose bound is >= it (bounds are inclusive),
// and anything past the last bound lands in the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{time.Nanosecond, 0},
		{time.Microsecond, 0},     // exactly on the first bound
		{time.Microsecond + 1, 1}, // just past it
		{5 * time.Microsecond, 1}, // on the second bound
		{time.Millisecond, 6},     // on the 1ms bound
		{3 * time.Millisecond, 7}, // inside (1ms, 5ms]
		{10 * time.Second, len(DefaultBuckets) - 1},
		{11 * time.Second, len(DefaultBuckets)}, // overflow
		{time.Hour, len(DefaultBuckets)},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}

	var h Histogram
	h.Observe(time.Microsecond)     // bucket 0
	h.Observe(3 * time.Millisecond) // bucket 7
	h.Observe(time.Hour)            // overflow
	h.Observe(-time.Second)         // clamped to 0 → bucket 0
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Buckets[0] != 2 || s.Buckets[7] != 1 || s.Buckets[len(DefaultBuckets)] != 1 {
		t.Fatalf("bucket counts = %v", s.Buckets)
	}
	wantSum := int64(time.Microsecond + 3*time.Millisecond + time.Hour)
	if s.SumNanos != wantSum {
		t.Fatalf("sum = %d, want %d", s.SumNanos, wantSum)
	}
}

// TestConcurrentCounters hammers one counter, one gauge and one histogram
// from many goroutines; run under -race this doubles as the data-race
// check, and the totals must come out exact.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Histogram("h").Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestSnapshotDeterminism: with no writes in between, two snapshots are
// deeply equal and marshal to byte-identical JSON.
func TestSnapshotDeterminism(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(3)
	r.Counter("a.a").Add(1)
	r.Gauge("z").Set(7)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	r.Histogram("lat").Observe(20 * time.Millisecond)

	s1, s2 := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("snapshots differ:\n%v\n%v", s1, s2)
	}
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("JSON differs:\n%s\n%s", j1, j2)
	}
	// A snapshot is a copy: later writes must not leak into it.
	r.Counter("a.b").Add(10)
	r.Histogram("lat").Observe(time.Second)
	if s1.Counters["a.b"] != 3 || s1.Histograms["lat"].Count != 2 {
		t.Fatalf("snapshot mutated by later writes: %v", s1)
	}
}

// TestMergeAssociativity: merging snapshots is associative (and the empty
// snapshot is an identity), so per-shard snapshots can fold in any
// grouping.
func TestMergeAssociativity(t *testing.T) {
	build := func(c int64, d time.Duration) Snapshot {
		r := NewRegistry()
		r.Counter("n").Add(c)
		r.Gauge("g").Add(c)
		r.Histogram("h").Observe(d)
		return r.Snapshot()
	}
	a := build(1, time.Microsecond)
	b := build(10, time.Millisecond)
	c := build(100, time.Second)

	// (a ⊕ b) ⊕ c
	left := build(0, 0)
	left.Counters, left.Gauges, left.Histograms = map[string]int64{}, map[string]int64{}, map[string]HistogramSnapshot{}
	left.Merge(a)
	left.Merge(b)
	left.Merge(c)

	// a ⊕ (b ⊕ c)
	bc := Snapshot{}
	bc.Merge(b)
	bc.Merge(c)
	right := Snapshot{}
	right.Merge(a)
	right.Merge(bc)

	if left.Counters["n"] != 111 || right.Counters["n"] != 111 {
		t.Fatalf("counter totals: left %d right %d", left.Counters["n"], right.Counters["n"])
	}
	lh, rh := left.Histograms["h"], right.Histograms["h"]
	if lh.Count != 3 || rh.Count != 3 || lh.SumNanos != rh.SumNanos {
		t.Fatalf("histogram totals differ: %+v vs %+v", lh, rh)
	}
	if !reflect.DeepEqual(lh.Buckets, rh.Buckets) {
		t.Fatalf("bucket vectors differ: %v vs %v", lh.Buckets, rh.Buckets)
	}
	if left.Gauges["g"] != right.Gauges["g"] {
		t.Fatalf("gauge totals differ: %d vs %d", left.Gauges["g"], right.Gauges["g"])
	}
}

// TestSetEnabled: with recording off every mutation is a no-op, and
// StartTimer hands back a zero start that Since ignores.
func TestSetEnabled(t *testing.T) {
	r := NewRegistry()
	SetEnabled(false)
	defer SetEnabled(true)
	r.Counter("c").Inc()
	r.Gauge("g").Set(5)
	r.Histogram("h").Observe(time.Second)
	start := StartTimer()
	if !start.IsZero() {
		t.Fatal("StartTimer should return zero time when disabled")
	}
	r.Histogram("h").Since(start)
	SetEnabled(true)
	r.Histogram("h").Since(start) // zero start still ignored after re-enable
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Snapshot().Count != 0 {
		t.Fatalf("disabled recording leaked: %+v", r.Snapshot())
	}
}

// TestCounterValue reads absent counters without creating them.
func TestCounterValue(t *testing.T) {
	r := NewRegistry()
	if v := r.CounterValue("missing"); v != 0 {
		t.Fatalf("missing counter = %d", v)
	}
	if len(r.Snapshot().Counters) != 0 {
		t.Fatal("CounterValue must not create the counter")
	}
	r.Counter("present").Add(4)
	if v := r.CounterValue("present"); v != 4 {
		t.Fatalf("present counter = %d", v)
	}
}
