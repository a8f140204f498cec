package server

import (
	"testing"

	"sheetmusiq/internal/engine"
	"sheetmusiq/internal/obs"
)

// TestSessionChurnReleasesSnapshotBytes: 200 sessions each evaluate a
// sheet, drop it for a fresh one and evaluate again, then close — half
// explicitly, half by LRU eviction. Every cached artifact they charged to
// core.eval.snapshot_bytes must be released again.
func TestSessionChurnReleasesSnapshotBytes(t *testing.T) {
	gauge := obs.Default.Gauge("core.eval.snapshot_bytes")
	start := gauge.Value()
	m := NewManager(Config{MaxSessions: 8})
	evaluate := func(e *engine.Engine) error {
		_, err := e.Evaluate()
		return err
	}
	peak := start
	for i := 0; i < 200; i++ {
		s, err := m.Create("")
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []engine.Op{
			{Op: "demo", Table: "cars"},
			{Op: "select", Predicate: "Year = 2005"},
			{Op: "group", Dir: "asc", Columns: []string{"Model"}},
			{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "Avg_Price"},
		} {
			if _, err := s.ApplyOp(op); err != nil {
				t.Fatalf("session %d %s: %v", i, op.Op, err)
			}
		}
		if err := s.Do(evaluate); err != nil {
			t.Fatal(err)
		}
		// Replacing the sheet drops the evaluated one.
		for _, op := range []engine.Op{{Op: "demo", Table: "cars"}, {Op: "select", Predicate: "Price > 10000"}} {
			if _, err := s.ApplyOp(op); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Do(evaluate); err != nil {
			t.Fatal(err)
		}
		if v := gauge.Value(); v > peak {
			peak = v
		}
		if i%2 == 0 {
			m.Close(s.ID())
		}
	}
	m.Shutdown()
	if peak == start {
		t.Fatal("evaluations never charged core.eval.snapshot_bytes; the test measures nothing")
	}
	if got := gauge.Value(); got != start {
		t.Fatalf("core.eval.snapshot_bytes = %d after closing every session, want %d (peak %d)", got, start, peak)
	}
}
