package relation

import (
	"math/rand"
	"testing"

	"sheetmusiq/internal/value"
)

// pageRows extends genKeyRows with a mixed-kind column (it columnarizes to
// a Boxed vector) and an all-NULL column, so every column family a page
// can box from is present: typed with and without NULLs, Boxed, KindNull.
func pageRows(rng *rand.Rand, n int) ([]Tuple, Schema) {
	rows, schema := genKeyRows(rng, n)
	schema = append(schema,
		Column{Name: "m", Kind: value.KindInt},
		Column{Name: "z", Kind: value.KindNull})
	for i, t := range rows {
		m := value.NewInt(int64(i))
		switch {
		case i == 0 || rng.Intn(4) == 0:
			m = value.NewString("x")
		case rng.Intn(3) == 0:
			m = value.Null
		}
		rows[i] = append(t, m, value.Null)
	}
	return rows, schema
}

// samePage reports whether two row lists hold the same cells.
func samePage(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// pages draws page bounds over n rows, always including the empty page at
// each end, a page ending at n, and the whole range.
func pages(rng *rand.Rand, n int) [][2]int {
	out := [][2]int{{0, 0}, {n, n}, {0, n}}
	for k := 0; k < 6; k++ {
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		out = append(out, [2]int{lo, hi}, [2]int{lo, n})
	}
	return out
}

// TestPageMatchesTupleRows: Page(lo, hi) must equal TupleRows()[lo:hi] on
// row-built, column-built and deferred-gather relations, for empty and
// full pages and empty relations, without changing what the relation has
// materialised: a deferred gather stays unassembled and rows stay lazy, and
// a later TupleRows still returns the oracle rows.
func TestPageMatchesTupleRows(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		if trial < 3 {
			n = 0
		}
		rows, schema := pageRows(rng, n)
		cols := columnarize(rows, schema)
		if n > 0 && cols[5].Boxed == nil {
			t.Fatalf("trial %d: fixture lost its Boxed column", trial)
		}
		cols[6] = AllNullCol() // the typed all-NULL vector computed columns use
		idx := make([]int32, 0, 2*n)
		gathered := []Tuple{}
		if n > 0 {
			for k := rng.Intn(2 * n); k > 0; k-- {
				ri := int32(rng.Intn(n))
				idx = append(idx, ri)
				gathered = append(gathered, rows[ri])
			}
		}
		cases := []struct {
			name string
			rel  *Relation
			want []Tuple
		}{
			{"rows", &Relation{Name: "p", Schema: schema, Rows: rows}, rows},
			{"columns", FromColumns("p", schema, cols, n), rows},
			{"gather", FromGather("p", schema, cols, idx), gathered},
		}
		for _, c := range cases {
			r, m := c.rel, len(c.want)
			for _, pg := range pages(rng, m) {
				before := rowsMaterialize.Value()
				got := r.Page(pg[0], pg[1])
				if !samePage(got, c.want[pg[0]:pg[1]]) {
					t.Fatalf("trial %d %s: Page(%d, %d) differs from TupleRows slice", trial, c.name, pg[0], pg[1])
				}
				boxed, want := rowsMaterialize.Value()-before, int64(0)
				if c.name != "rows" {
					want = int64((pg[1] - pg[0]) * len(schema))
				}
				if boxed != want {
					t.Fatalf("trial %d %s: Page(%d, %d) boxed %d cells, want %d", trial, c.name, pg[0], pg[1], boxed, want)
				}
			}
			if r.col != nil && r.col.rowsReady {
				t.Fatalf("trial %d %s: Page materialised the rows", trial, c.name)
			}
			if c.name == "gather" && r.CachedColumns() != nil {
				t.Fatalf("trial %d: Page assembled the deferred gather", trial)
			}
			if !samePage(r.TupleRows(), c.want) {
				t.Fatalf("trial %d %s: TupleRows after Page differs from the oracle", trial, c.name)
			}
			if lo := m / 2; !samePage(r.Page(lo, m), c.want[lo:]) {
				t.Fatalf("trial %d %s: Page after TupleRows differs", trial, c.name)
			}
		}
	}
}

// TestGatherRelationAssemblesOnColumns: the deferred gather assembles on
// Columns (once, cached), Clone copies it without assembling the original,
// and both agree with the gathered oracle.
func TestGatherRelationAssemblesOnColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows, schema := pageRows(rng, 200)
	cols := columnarize(rows, schema)
	idx := []int32{199, 0, 0, 57, 3}
	want := make([]Tuple, len(idx))
	for i, ri := range idx {
		want[i] = rows[ri]
	}
	r := FromGather("g", schema, cols, idx)
	cl := r.Clone()
	if r.CachedColumns() != nil {
		t.Fatal("Clone assembled the original's deferred gather")
	}
	if !samePage(cl.TupleRows(), want) {
		t.Fatal("clone of a deferred gather differs from the oracle")
	}
	got := r.Columns()
	if r.CachedColumns() == nil || len(got) != len(schema) || len(got[0].Strs) != len(idx) {
		t.Fatal("Columns did not assemble and cache the gather")
	}
	if !samePage(r.TupleRows(), want) {
		t.Fatal("rows of the assembled gather differ from the oracle")
	}
}
