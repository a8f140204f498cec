package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sheetmusiq/internal/dataset"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
)

// TestIncrementalMatchesColdReplay is the equivalence property for the
// incremental pipeline: after every operation in a random sequence, the
// warm, snapshot-reusing evaluation must be bit-identical — rendered grid
// and group tree alike — to a cold full replay of the same state
// (Clone() carries no snapshot cache, so it replays from scratch). Run
// under -race with SHEETMUSIQ_PARALLEL_THRESHOLD forced low this also
// exercises the parallel kernels on tiny inputs.
//
// The same sequence also pins graph-exact invalidation's precision per
// step, in absolute terms: the evaluation's stage_recomputes delta equals
// the number of uncached stages its Plan() reports (for an erroring
// evaluation, those before the failing stage); no stage whose artifact the
// previous evaluation left in the cache is recomputed (invalidation may
// stale an entry, never drop it); and an immediate re-Evaluate recomputes
// nothing.
func TestIncrementalMatchesColdReplay(t *testing.T) {
	defer func(old int) { relation.ParallelThreshold = old }(relation.ParallelThreshold)
	relation.ParallelThreshold = 4

	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New(dataset.RandomCars(300, 100+seed))
			var prev map[uint64]bool // fingerprints the last evaluation left in the cache
			for step := 0; step < 60; step++ {
				op := randomOp(s, rng)
				_, rec0 := stageCounters()
				evals0 := obs.Default.CounterValue("core.eval.count")
				got, gotErr := s.Evaluate()
				_, rec1 := stageCounters()
				ran := obs.Default.CounterValue("core.eval.count") > evals0
				if _, err := s.Evaluate(); (err == nil) != (gotErr == nil) {
					t.Fatalf("step %d after %s: re-Evaluate err %v, first err %v", step, op, err, gotErr)
				}
				if _, rec2 := stageCounters(); rec2 != rec1 {
					t.Fatalf("step %d after %s: immediate re-Evaluate recomputed %d stages", step, op, rec2-rec1)
				}
				if !ran {
					// A rejected op left the version unchanged: the memo
					// served the evaluation and the plan is the previous one.
					if rec1 != rec0 {
						t.Fatalf("step %d after %s: memoised evaluation recomputed %d stages", step, op, rec1-rec0)
					}
				} else if plan, err := s.Plan(); err != nil {
					if gotErr == nil {
						t.Fatal(err)
					}
					prev = nil // the pipeline failed to build; nothing ran
				} else {
					// Stages run in plan order and an erroring evaluation
					// stops at its failing stage, so the recomputed stages
					// are the first `recomputed` uncached ones, the next
					// one (if any) is the one that failed, and any later
					// ones never ran.
					recomputed := int(rec1 - rec0)
					attempted := recomputed
					if gotErr != nil {
						attempted++
					}
					uncached := 0
					fps := map[uint64]bool{}
					for _, st := range plan.Stages {
						if !st.Cached {
							uncached++
							if uncached > attempted {
								continue
							}
							if prev[st.Fingerprint] {
								t.Fatalf("step %d after %s: stage %s recomputed though the previous evaluation cached its artifact",
									step, op, st.ID)
							}
							if uncached > recomputed {
								continue
							}
						}
						fps[st.Fingerprint] = true
					}
					if uncached < recomputed || (gotErr == nil && uncached != recomputed) {
						t.Fatalf("step %d after %s: stage_recomputes advanced by %d, plan shows %d uncached stages",
							step, op, recomputed, uncached)
					}
					prev = fps
				}
				want, wantErr := s.Clone().Evaluate()
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("step %d after %s: incremental err %v, cold err %v", step, op, gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("step %d after %s: incremental err %q, cold err %q", step, op, gotErr, wantErr)
					}
					continue
				}
				if got.Render() != want.Render() {
					t.Fatalf("step %d after %s: incremental grid diverged from cold replay", step, op)
				}
				if got.RenderGrouped() != want.RenderGrouped() {
					t.Fatalf("step %d after %s: incremental group tree diverged from cold replay", step, op)
				}
			}
		})
	}
}

// randomOp applies one randomly chosen algebra operation (or modification,
// or undo/redo) to s and returns a label for failure messages. Operation
// errors are deliberately ignored: a rejected op leaves the state
// unchanged, and the equivalence check still has to hold.
func randomOp(s *Spreadsheet, rng *rand.Rand) string {
	cols := []string{"ID", "Model", "Price", "Year", "Mileage", "Condition"}
	numeric := []string{"Price", "Year", "Mileage"}
	preds := []string{
		"Year >= 2004",
		"Price < 20000",
		"Model = 'Jetta'",
		"Condition = 'Good' OR Condition = 'Excellent'",
		"Mileage < 60000 AND Year > 2002",
		"A1 > 10000", // only valid once the aggregate exists
	}
	aggs := []relation.AggFunc{relation.AggSum, relation.AggAvg, relation.AggMin, relation.AggMax, relation.AggCount}
	formulas := []string{
		"Price / 1000",
		"Price - Mileage / 10",
		"Price / (Year - 2004)", // runtime error on Year = 2004 rows
	}
	names := []string{"A1", "A2", "F1", "F2"}

	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	dir := Asc
	if rng.Intn(2) == 1 {
		dir = Desc
	}

	switch rng.Intn(18) {
	case 0:
		p := pick(preds)
		_, _ = s.Select(p)
		return "σ " + p
	case 1:
		id, p := 1+rng.Intn(3), pick(preds)
		_ = s.ReplaceSelection(id, p)
		return fmt.Sprintf("modify #%d %s", id, p)
	case 2:
		id := 1 + rng.Intn(3)
		_ = s.RemoveSelection(id)
		return fmt.Sprintf("drop σ #%d", id)
	case 3:
		c := pick([]string{"Model", "Year", "Condition"})
		_ = s.GroupBy(dir, c)
		return "γ " + c
	case 4:
		_ = s.Ungroup()
		return "ungroup"
	case 5:
		_ = s.ClearGrouping()
		return "clear grouping"
	case 6:
		c := pick(cols)
		_ = s.Sort(c, dir)
		return "λ " + c
	case 7:
		c, lvl := pick(cols), 1+rng.Intn(3)
		_ = s.OrderBy(c, dir, lvl)
		return fmt.Sprintf("τ %s @%d", c, lvl)
	case 8:
		c := pick(cols)
		_ = s.RemoveOrdering(c)
		return "drop τ " + c
	case 9:
		lvl, c := 2+rng.Intn(2), pick(numeric)
		_ = s.OrderGroupsBy(lvl, c, dir)
		return fmt.Sprintf("order groups @%d by %s", lvl, c)
	case 10:
		n, c, lvl := pick(names[:2]), pick(numeric), 1+rng.Intn(3)
		fn := aggs[rng.Intn(len(aggs))]
		_, _ = s.AggregateAs(n, fn, c, lvl)
		return fmt.Sprintf("η %s=%s(%s)@%d", n, fn, c, lvl)
	case 11:
		n, f := pick(names[2:]), pick(formulas)
		_, _ = s.Formula(n, f)
		return fmt.Sprintf("θ %s=%s", n, f)
	case 12:
		n := pick(names)
		_ = s.RemoveComputed(n)
		return "drop " + n
	case 13:
		c := pick(cols)
		if rng.Intn(2) == 0 {
			_ = s.Hide(c)
			return "hide " + c
		}
		_ = s.Reinstate(c)
		return "reinstate " + c
	case 14:
		if rng.Intn(2) == 0 {
			_ = s.Distinct()
			return "δ"
		}
		_ = s.RemoveDistinct()
		return "drop δ"
	case 15:
		if rng.Intn(2) == 0 {
			_ = s.Rename("Mileage", "Miles")
			return "rename Mileage→Miles"
		}
		_ = s.Rename("Miles", "Mileage")
		return "rename Miles→Mileage"
	case 16:
		_, _ = s.Undo()
		return "undo"
	default:
		_, _ = s.Redo()
		return "redo"
	}
}
