package engine

import (
	"reflect"
	"testing"

	"sheetmusiq/internal/dataset"
)

// TestGridLimitIsPrefixOfFullGrid: a limited render must show exactly the
// first rows of the full render with the same Total, below, at and above
// the row count, on results of every representation: small row-built
// (the paper's demo), a large identity projection sharing the base rows,
// a large column-built result (formula column), and large deferred-gather
// results (sorted; grouped with an aggregate and a hidden column).
func TestGridLimitIsPrefixOfFullGrid(t *testing.T) {
	cars := dataset.RandomCars(2000, 7)
	large := func(t *testing.T, ops ...Op) *Engine {
		e := New(nil)
		e.DB().Register(cars)
		must(t, e, Op{Op: "use", Table: "cars"})
		for _, op := range ops {
			must(t, e, op)
		}
		return e
	}
	formula := Op{Op: "formula", Name: "PerMile", Formula: "Price * 1000 / (Mileage + 1)"}
	states := []struct {
		name  string
		build func(t *testing.T) *Engine
	}{
		{"demo", func(t *testing.T) *Engine {
			e := demoCars(t)
			must(t, e, Op{Op: "sort", Column: "Price", Dir: "desc"})
			return e
		}},
		{"base", func(t *testing.T) *Engine { return large(t) }},
		{"formula", func(t *testing.T) *Engine { return large(t, formula) }},
		{"sorted", func(t *testing.T) *Engine {
			return large(t, formula, Op{Op: "sort", Column: "Price", Dir: "asc"})
		}},
		{"grouped", func(t *testing.T) *Engine {
			return large(t,
				Op{Op: "select", Predicate: "Year >= 2003"},
				Op{Op: "group", Columns: []string{"Model"}, Dir: "desc"},
				Op{Op: "agg", Fn: "avg", Column: "Price", Level: 2, Name: "AvgP"},
				Op{Op: "sort", Column: "Mileage", Dir: "asc"},
				Op{Op: "hide", Column: "Condition"})
		}},
	}
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			full, err := st.build(t).Grid(0)
			if err != nil {
				t.Fatal(err)
			}
			n := full.Total
			if n < 2 || len(full.Rows) != n {
				t.Fatalf("full grid shows %d of %d rows", len(full.Rows), n)
			}
			for _, k := range []int{1, n / 2, n - 1, n, n + 7} {
				// A fresh session per limit, so the limited render is the
				// first reader of the result.
				g, err := st.build(t).Grid(k)
				if err != nil {
					t.Fatal(err)
				}
				want := full.Rows[:min(k, n)]
				if g.Total != n || !reflect.DeepEqual(g.Rows, want) || !reflect.DeepEqual(g.Columns, full.Columns) {
					t.Fatalf("Grid(%d): total %d, %d rows; want Grid(0)'s first %d rows of %d", k, g.Total, len(g.Rows), len(want), n)
				}
			}
		})
	}
}
