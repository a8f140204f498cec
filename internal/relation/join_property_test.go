package relation

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sheetmusiq/internal/value"
)

// The join oracle is the retired boxed pair path: filter the full product
// with the predicate, one scratch row per pair, and copy every matching
// pair's cells into boxed rows. The column-built kernels (HashJoin, Join,
// Product) must reproduce it cell for cell — kinds and float bits included.

// materializePairs fills out with the concatenation of r's and s's rows for
// each (a, b) index pair, in pair order, as boxed rows.
func materializePairs(out *Relation, r, s *Relation, pa, pb []int32) {
	rrows, srows := r.TupleRows(), s.TupleRows()
	wl := len(r.Schema)
	for k := range pa {
		row := make(Tuple, len(out.Schema))
		copy(row, rrows[pa[k]])
		copy(row[wl:], srows[pb[k]])
		out.Rows = append(out.Rows, row)
	}
}

// productFilterOracle is the theta join by definition: every pair of the
// product, in product order, kept when on (nil: always) holds.
func productFilterOracle(r, s *Relation, on func(Tuple) (bool, error)) (*Relation, error) {
	out := New(r.Name+"_x_"+s.Name, productSchema(r, s))
	wl := len(r.Schema)
	scratch := make(Tuple, len(out.Schema))
	var pa, pb []int32
	srows := s.TupleRows()
	for a, ta := range r.TupleRows() {
		copy(scratch, ta)
		for b, tb := range srows {
			copy(scratch[wl:], tb)
			ok := true
			if on != nil {
				var err error
				if ok, err = on(scratch); err != nil {
					return nil, err
				}
			}
			if ok {
				pa = append(pa, int32(a))
				pb = append(pb, int32(b))
			}
		}
	}
	materializePairs(out, r, s, pa, pb)
	return out, nil
}

// joinSchema is the generated relations' layout: typed columns of every
// payload family plus a mixed-kind column that columnarizes Boxed.
func joinSchema() Schema {
	return Schema{
		{Name: "i", Kind: value.KindInt},
		{Name: "s", Kind: value.KindString},
		{Name: "d", Kind: value.KindDate},
		{Name: "f", Kind: value.KindFloat},
		{Name: "m", Kind: value.KindString},
		{Name: "b", Kind: value.KindBool},
	}
}

// genJoinRows draws rows with tiny value ranges, so keys collide often,
// NULLs everywhere, signed zeros among the floats, and whole numbers
// shared between the Int, Float and mixed columns.
func genJoinRows(rng *rand.Rand, n int) []Tuple {
	cell := func(v value.Value) value.Value {
		if rng.Intn(7) == 0 {
			return value.Null
		}
		return v
	}
	floats := []float64{0, math.Copysign(0, -1), 1, 2, 2.5}
	rows := make([]Tuple, n)
	for i := range rows {
		var m value.Value
		switch rng.Intn(4) {
		case 0:
			m = value.NewInt(int64(rng.Intn(3)))
		case 1:
			m = value.NewFloat(float64(rng.Intn(3)))
		case 2:
			m = value.NewString(string(rune('a' + rng.Intn(3))))
		default:
			m = value.Null
		}
		rows[i] = Tuple{
			cell(value.NewInt(int64(rng.Intn(4)))),
			cell(value.NewString(string(rune('a' + rng.Intn(4))))),
			cell(value.NewDateDays(int64(rng.Intn(3)))),
			cell(value.NewFloat(floats[rng.Intn(len(floats))])),
			m,
			cell(value.NewBool(rng.Intn(2) == 0)),
		}
	}
	return rows
}

// genJoinRel builds a random relation: sized either side of the columnar
// threshold, and either row-built or column-built.
func genJoinRel(rng *rand.Rand, name string) *Relation {
	n := rng.Intn(40)
	if rng.Intn(3) == 0 {
		n = autoColumnarThreshold - 20 + rng.Intn(60)
	}
	r := New(name, joinSchema())
	r.Rows = genJoinRows(rng, n)
	if rng.Intn(2) == 0 {
		return FromColumns(name, r.Schema, columnarize(r.Rows, r.Schema), n)
	}
	return r
}

// sqlEq is SQL `=` over two cells: NULL never matches, numbers compare
// across kinds, other kind mismatches are simply unequal.
func sqlEq(x, y value.Value) bool {
	return !x.IsNull() && !y.IsNull() && value.Equal(x, y)
}

// sameCells reports whether two relations agree on schema and on every
// cell's kind and payload, floats by their bits.
func sameCells(got, want *Relation) error {
	if !got.Schema.Equal(want.Schema) {
		return fmt.Errorf("schema [%s], want [%s]", got.Schema, want.Schema)
	}
	gr, wr := got.TupleRows(), want.TupleRows()
	if len(gr) != len(wr) {
		return fmt.Errorf("%d rows, want %d", len(gr), len(wr))
	}
	for i := range wr {
		for j := range wr[i] {
			x, y := gr[i][j], wr[i][j]
			same := x.Kind() == y.Kind()
			if same && x.Kind() == value.KindFloat {
				same = math.Float64bits(x.Float()) == math.Float64bits(y.Float())
			} else if same {
				same = x.Key() == y.Key()
			}
			if !same {
				return fmt.Errorf("row %d col %d: %v (%s), want %v (%s)", i, j, x, x.Kind(), y, y.Kind())
			}
		}
	}
	return nil
}

// TestJoinKernelsMatchProductFilterOracle drives HashJoin, Join and Product
// over random relations against the oracle: key pairs of one typed kind
// (where the hash proves the keys), Int = Float, Float = Float and Boxed
// keys (where it cannot), with and without a residual conjunct, sides below
// and above the columnar threshold, row- and column-built, and both build
// orientations (each pair is joined both ways round).
func TestJoinKernelsMatchProductFilterOracle(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(29))
	keyPairs := [][2]int{{0, 0}, {1, 1}, {2, 2}, {5, 5}, {0, 3}, {3, 3}, {4, 4}, {4, 0}}
	residuals := []func(wl int) func(Tuple) (bool, error){
		nil,
		// r.f < s.i, three-valued: NULL or incomparable kinds drop the pair.
		func(wl int) func(Tuple) (bool, error) {
			return func(t Tuple) (bool, error) {
				c, err := value.Compare(t[3], t[wl])
				return err == nil && !t[3].IsNull() && !t[wl].IsNull() && c < 0, nil
			}
		},
		// r.s <> s.s.
		func(wl int) func(Tuple) (bool, error) {
			return func(t Tuple) (bool, error) {
				return !t[1].IsNull() && !t[wl+1].IsNull() && t[1].Str() != t[wl+1].Str(), nil
			}
		},
	}
	for trial := 0; trial < 150; trial++ {
		left, right := genJoinRel(rng, "l"), genJoinRel(rng, "r")
		var lk, rk []int
		for n := 1 + rng.Intn(2); n > 0; n-- {
			p := keyPairs[rng.Intn(len(keyPairs))]
			lk, rk = append(lk, p[0]), append(rk, p[1])
		}
		mkRes := residuals[rng.Intn(len(residuals))]
		for _, sides := range [][2]*Relation{{left, right}, {right, left}} {
			r, s := sides[0], sides[1]
			wl := len(r.Schema)
			var rest func(Tuple) (bool, error)
			if mkRes != nil {
				rest = mkRes(wl)
			}
			on := func(t Tuple) (bool, error) {
				for k := range lk {
					if !sqlEq(t[lk[k]], t[wl+rk[k]]) {
						return false, nil
					}
				}
				if rest == nil {
					return true, nil
				}
				return rest(t)
			}
			want, err := productFilterOracle(r, s, on)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.HashJoin(s, lk, rk, on, rest)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCells(got, want); err != nil {
				t.Fatalf("trial %d keys %v=%v (%d x %d): hash join: %v", trial, lk, rk, r.Len(), s.Len(), err)
			}
			theta, err := r.Join(s, on)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCells(theta, want); err != nil {
				t.Fatalf("trial %d: theta join: %v", trial, err)
			}
		}
		if left.Len()*right.Len() < 4000 {
			want, err := productFilterOracle(left, right, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCells(left.Product(right), want); err != nil {
				t.Fatalf("trial %d: product: %v", trial, err)
			}
		}
	}
}

// TestHashJoinProvenKeysSkipPredicate: when the typed hash proves every key
// (same non-float kind on both sides), rows with a NULL key never match
// and only the residual runs — a keys-only join runs no predicate at all;
// float keys leave the full predicate in charge of every candidate.
func TestHashJoinProvenKeysSkipPredicate(t *testing.T) {
	l := New("l", Schema{{Name: "k", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat}})
	l.MustAppend(value.NewInt(1), value.NewFloat(0))
	l.MustAppend(value.Null, value.Null)
	l.MustAppend(value.NewInt(2), value.NewFloat(math.Copysign(0, -1)))
	r := New("r", Schema{{Name: "k", Kind: value.KindInt}, {Name: "f", Kind: value.KindFloat}})
	r.MustAppend(value.Null, value.Null)
	r.MustAppend(value.NewInt(2), value.NewFloat(0))
	errCalled := errors.New("predicate ran")
	never := func(Tuple) (bool, error) { return false, errCalled }
	j, err := l.HashJoin(r, []int{0}, []int{0}, never, nil)
	if err != nil {
		t.Fatalf("proven keys-only join ran the predicate: %v", err)
	}
	if j.Len() != 1 || j.TupleRows()[0][0].Int() != 2 {
		t.Fatalf("proven join = %v, want the single k=2 pair", j.TupleRows())
	}
	calls := 0
	count := func(t Tuple) (bool, error) {
		calls++
		return sqlEq(t[1], t[3]), nil
	}
	if j, err = l.HashJoin(r, []int{1}, []int{1}, count, nil); err != nil {
		t.Fatal(err)
	}
	// Candidates under value.Equal: 0 and -0 both meet r's 0, NULL meets
	// NULL; the predicate decides each and drops the NULL pair.
	if calls != 3 || j.Len() != 2 {
		t.Fatalf("float-key join: %d predicate calls, %d rows; want 3 calls, 2 rows", calls, j.Len())
	}
}
