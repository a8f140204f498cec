package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Property tests for the vectorized backend's core contract: bit-identity
// with the per-row Program. Random expression trees drawn from the
// vectorizer's full coverage run over random typed columns seeded with the
// adversarial values (-0, NaN, infinities, MinInt64, big ints past 2^53,
// NULLs everywhere), through both backends, and every lane must agree —
// same kind, same payload bits (floats compared via Float64bits), and the
// same error outcome per window.

// batchPropCols is the test schema: every payload family, plus an
// all-NULL column.
var batchPropCols = relation.Schema{
	{Name: "I", Kind: value.KindInt},
	{Name: "J", Kind: value.KindInt},
	{Name: "F", Kind: value.KindFloat},
	{Name: "G", Kind: value.KindFloat},
	{Name: "S", Kind: value.KindString},
	{Name: "B", Kind: value.KindBool},
	{Name: "D", Kind: value.KindDate},
	{Name: "N", Kind: value.KindInt},
}

// genBatchRel builds a random relation over batchPropCols whose cells are
// drawn from pools of boundary values, with ~1 in 5 cells NULL (column N is
// always NULL).
func genBatchRel(rng *rand.Rand, n int) *relation.Relation {
	negZero := math.Copysign(0, -1)
	ints := []int64{0, 1, -1, 2, 7, 19999, 20000, 1 << 53, (1 << 53) + 1,
		1 << 62, math.MaxInt64, math.MinInt64}
	floats := []float64{0, negZero, 1, -1.5, 0.5, 1e300, -1e300,
		math.NaN(), math.Inf(1), math.Inf(-1), float64(1 << 53)}
	strs := []string{"", "a", "b", "ab", "Good", "Excellent", "zzz"}
	r := relation.New("prop", batchPropCols.Clone())
	for i := 0; i < n; i++ {
		cell := func(mk func() value.Value) value.Value {
			if rng.Intn(5) == 0 {
				return value.Null
			}
			return mk()
		}
		r.MustAppend(
			cell(func() value.Value { return value.NewInt(ints[rng.Intn(len(ints))]) }),
			cell(func() value.Value { return value.NewInt(ints[rng.Intn(len(ints))]) }),
			cell(func() value.Value { return value.NewFloat(floats[rng.Intn(len(floats))]) }),
			cell(func() value.Value { return value.NewFloat(floats[rng.Intn(len(floats))]) }),
			cell(func() value.Value { return value.NewString(strs[rng.Intn(len(strs))]) }),
			cell(func() value.Value { return value.NewBool(rng.Intn(2) == 0) }),
			cell(func() value.Value { return value.NewDateDays(int64(rng.Intn(40000) - 10000)) }),
			value.Null,
		)
	}
	return r
}

// genBatchExpr draws a random expression tree from the vectorizer's
// coverage: column refs and literals under comparisons, arithmetic,
// AND/OR/NOT, negation, IS [NOT] NULL, [NOT] IN and [NOT] BETWEEN. Type
// mismatches, division by zero and overflow are all in-distribution — they
// exercise the error-parity contract.
func genBatchExpr(rng *rand.Rand, depth int) Expr {
	lits := []value.Value{
		value.NewInt(0), value.NewInt(1), value.NewInt(-1), value.NewInt(7),
		value.NewInt(20000), value.NewInt(math.MaxInt64), value.NewInt(math.MinInt64),
		value.NewFloat(0), value.NewFloat(math.Copysign(0, -1)),
		value.NewFloat(math.NaN()), value.NewFloat(math.Inf(1)), value.NewFloat(1.5),
		value.NewString(""), value.NewString("a"), value.NewString("Good"),
		value.NewBool(true), value.NewBool(false), value.Null,
	}
	leaf := func() Expr {
		if rng.Intn(2) == 0 {
			return &ColumnRef{Name: batchPropCols[rng.Intn(len(batchPropCols))].Name}
		}
		return &Literal{Val: lits[rng.Intn(len(lits))]}
	}
	if depth <= 0 || rng.Intn(4) == 0 {
		return leaf()
	}
	sub := func() Expr { return genBatchExpr(rng, depth-1) }
	switch rng.Intn(8) {
	case 0:
		ops := []BinaryOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 1:
		ops := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 2:
		ops := []BinaryOp{OpAnd, OpOr}
		return &Binary{Op: ops[rng.Intn(len(ops))], L: sub(), R: sub()}
	case 3:
		return &Unary{Op: OpNot, X: sub()}
	case 4:
		return &Unary{Op: OpNeg, X: sub()}
	case 5:
		return &IsNull{X: sub(), Negate: rng.Intn(2) == 0}
	case 6:
		items := make([]Expr, 1+rng.Intn(3))
		for i := range items {
			items[i] = sub()
		}
		return &InList{X: sub(), Items: items, Negate: rng.Intn(2) == 0}
	default:
		return &Between{X: sub(), Lo: sub(), Hi: sub(), Negate: rng.Intn(2) == 0}
	}
}

// bitIdentical is value identity at the representation level: same kind and
// same payload bits. Floats compare via Float64bits so -0 vs +0 and NaN
// payloads cannot silently diverge between the two backends.
func bitIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case value.KindString:
		return a.Str() == b.Str()
	case value.KindBool:
		return a.Bool() == b.Bool()
	case value.KindDate:
		return a.DateDays() == b.DateDays()
	default:
		return a.Int() == b.Int()
	}
}

func batchPropResolvers(r *relation.Relation) (BatchResolver, Resolver) {
	cols := r.Columns()
	batch := func(name string) (*relation.Col, bool) {
		if i := r.Schema.IndexOf(name); i >= 0 {
			return cols[i], true
		}
		return nil, false
	}
	row := func(name string) (int, bool) {
		if i := r.Schema.IndexOf(name); i >= 0 {
			return i, true
		}
		return 0, false
	}
	return batch, row
}

// TestBatchBitIdentityProperty is the main property: for random expressions
// and random data, EvalPos and SelectInto agree with the row program on
// every lane — identical values (including float bit patterns and NULL
// tri-state) when no row errs, and a reported failure whenever any row
// would err.
func TestBatchBitIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(70)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		batchRes, rowRes := batchPropResolvers(r)

		bp, err := CompileBatch(e, batchRes)
		if err != nil {
			t.Fatalf("trial %d: %s unexpectedly declined: %v", trial, e.SQL(), err)
		}
		rp := Compile(e, Scope{Resolve: rowRes})

		// Row-path reference over the full window.
		want := make([]value.Value, n)
		rowErr := false
		for i, row := range rows {
			v, err := rp.Eval(row)
			if err != nil {
				rowErr = true
				break
			}
			want[i] = v
		}

		out := make([]value.Value, n)
		ok := bp.EvalPos(nil, 0, n, value.KindInt, out)
		if rowErr {
			if ok {
				t.Fatalf("trial %d: %s: row path errs but batch reported ok", trial, e.SQL())
			}
		} else {
			if !ok {
				t.Fatalf("trial %d: %s: batch reported error but no row errs", trial, e.SQL())
			}
			for i := range want {
				if !bitIdentical(want[i], out[i]) {
					t.Fatalf("trial %d: %s: lane %d diverges: row %s (%v) vs batch %s (%v)",
						trial, e.SQL(), i, want[i], want[i].Kind(), out[i], out[i].Kind())
				}
			}
		}

		// Predicate parity: the surviving-row set of SelectInto matches
		// per-row EvalBool, with the same any-error failure contract.
		var survivors []int32
		selErr := false
		for i, row := range rows {
			keep, err := rp.EvalBool(row)
			if err != nil {
				selErr = true
				break
			}
			if keep {
				survivors = append(survivors, int32(i))
			}
		}
		dst := make([]int32, n)
		w, ok := bp.SelectInto(nil, 0, n, dst)
		if selErr {
			if ok {
				t.Fatalf("trial %d: %s: predicate row path errs but batch ok", trial, e.SQL())
			}
		} else {
			if !ok {
				t.Fatalf("trial %d: %s: batch select failed but no row errs", trial, e.SQL())
			}
			if w != len(survivors) {
				t.Fatalf("trial %d: %s: %d survivors, row path kept %d", trial, e.SQL(), w, len(survivors))
			}
			for i := range survivors {
				if dst[i] != survivors[i] {
					t.Fatalf("trial %d: %s: survivor %d = row %d, row path kept %d",
						trial, e.SQL(), i, dst[i], survivors[i])
				}
			}
		}
	}
}

// TestBatchBitIdentityWindowed pins the indexed-window form: evaluating a
// sub-window of a shuffled (and duplicating) index vector must agree lane
// for lane with the row program applied to the indexed rows, and EvalPos's
// KindFloat widening must match the row path's coerce rule.
func TestBatchBitIdentityWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		r := genBatchRel(rng, n)
		rows := r.TupleRows()
		e := genBatchExpr(rng, 3)
		batchRes, rowRes := batchPropResolvers(r)
		bp, err := CompileBatch(e, batchRes)
		if err != nil {
			t.Fatalf("trial %d: %s unexpectedly declined: %v", trial, e.SQL(), err)
		}
		rp := Compile(e, Scope{Resolve: rowRes})

		m := 1 + rng.Intn(2*n)
		idx := make([]int32, m)
		for i := range idx {
			idx[i] = int32(rng.Intn(n)) // duplicates and gaps on purpose
		}
		lo := rng.Intn(m)
		hi := lo + 1 + rng.Intn(m-lo)

		want := make([]value.Value, m)
		rowErr := false
		for k := lo; k < hi; k++ {
			v, err := rp.Eval(rows[idx[k]])
			if err != nil {
				rowErr = true
				break
			}
			if v.Kind() == value.KindInt { // EvalPos(KindFloat) widens; mirror coerce
				v = value.NewFloat(float64(v.Int()))
			}
			want[k] = v
		}

		out := make([]value.Value, m)
		ok := bp.EvalPos(idx, lo, hi, value.KindFloat, out)
		if rowErr {
			if ok {
				t.Fatalf("trial %d: %s: window errs on row path but batch ok", trial, e.SQL())
			}
			continue
		}
		if !ok {
			t.Fatalf("trial %d: %s: batch window failed but no row errs", trial, e.SQL())
		}
		for k := lo; k < hi; k++ {
			if !bitIdentical(want[k], out[k]) {
				t.Fatalf("trial %d: %s: window lane %d diverges: %s vs %s",
					trial, e.SQL(), k, want[k], out[k])
			}
		}
	}
}

// TestCompileBatchDeclines pins the fallback boundary: coverage gaps
// decline with ErrNotVectorizable instead of compiling wrong programs.
func TestCompileBatchDeclines(t *testing.T) {
	r := genBatchRel(rand.New(rand.NewSource(1)), 4)
	batchRes, _ := batchPropResolvers(r)
	for _, src := range []string{
		"S LIKE 'a%'",             // LIKE
		"S || 'x' = 'ax'",         // concatenation
		"UPPER(S) = 'A'",          // scalar function
		"Missing = 1",             // unresolvable column
		"I + 1 > 2 AND Q IS NULL", // unresolvable inside a conjunct
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileBatch(e, batchRes); err == nil {
			t.Errorf("%s: expected decline, compiled", src)
		}
	}
}

// TestBatchWindowBoundedAllocs caps the vectorized per-window overhead: one
// SelectInto call over 10k lanes must allocate a bounded number of vectors
// (operand and truth lanes), never per-lane boxes.
func TestBatchWindowBoundedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := genBatchRel(rng, 10000)
	n := r.Len()
	batchRes, _ := batchPropResolvers(r)
	e, err := Parse("I < 20000 AND S IN ('a', 'Good', 'zzz')")
	if err != nil {
		t.Fatal(err)
	}
	bp, err := CompileBatch(e, batchRes)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int32, n)
	allocs := testing.AllocsPerRun(10, func() {
		bp.SelectInto(nil, 0, n, dst)
	})
	if allocs > 40 {
		t.Fatalf("SelectInto allocates %.0f times per 10k-lane window; per-lane allocation regressed", allocs)
	}
}

// TestBatchDeclineFallsBackIdentically is the end-to-end fallback story in
// miniature: an expression the vectorizer declines still evaluates through
// the row path with the same results the batch-covered equivalent produces.
func TestBatchDeclineFallsBackIdentically(t *testing.T) {
	r := genBatchRel(rand.New(rand.NewSource(7)), 50)
	rows := r.TupleRows()
	_, rowRes := batchPropResolvers(r)
	covered, err := Parse("S = 'a' OR S = 'b'")
	if err != nil {
		t.Fatal(err)
	}
	declined, err := Parse("S LIKE 'a' OR S LIKE 'b'")
	if err != nil {
		t.Fatal(err)
	}
	cp := Compile(covered, Scope{Resolve: rowRes})
	dp := Compile(declined, Scope{Resolve: rowRes})
	for i, row := range rows {
		a, errA := cp.EvalBool(row)
		b, errB := dp.EvalBool(row)
		if (errA == nil) != (errB == nil) || a != b {
			t.Fatalf("row %d: covered (%v,%v) vs declined (%v,%v)", i, a, errA, b, errB)
		}
	}
	if !strings.Contains(ErrNotVectorizable.Error(), "not vectorizable") {
		t.Fatalf("sentinel error text changed: %v", ErrNotVectorizable)
	}
}
