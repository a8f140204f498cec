package expr

import (
	"strings"
	"testing"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// compileRow is the positional layout the compiled-vs-interpreted tests
// share with env(): same names, same values.
var compileCols = []string{"Price", "Year", "Model", "Mileage", "Condition", "Ratio", "Sold", "When", "Note"}

func compileEnvRow() []value.Value {
	m := env()
	row := make([]value.Value, len(compileCols))
	for i, c := range compileCols {
		row[i] = m[c]
	}
	return row
}

func compileResolver() Resolver {
	return func(name string) (int, bool) {
		for i, c := range compileCols {
			if strings.EqualFold(c, name) {
				return i, true
			}
		}
		return 0, false
	}
}

// TestCompileMatchesEval runs a broad set of expressions through both the
// tree-walking evaluator and the compiled program and insists on identical
// values and identical error-ness.
func TestCompileMatchesEval(t *testing.T) {
	srcs := []string{
		"1 + 2 * 3",
		"Price * 1000 / (Mileage + 1)",
		"Price * Ratio",
		"-Price + 7 % 3",
		"'a' || Model || 1",
		"Price < 20000 AND Condition IN ('Good', 'Excellent')",
		"Year = 2005 OR Year = 2006",
		"NOT Sold",
		"Note IS NULL",
		"Note IS NOT NULL",
		"Price BETWEEN 10000 AND 20000",
		"Price NOT BETWEEN 10000 AND 12000",
		"Model LIKE 'Je%'",
		"Model NOT IN ('Civic', 'Accord')",
		"Note + 1",
		"Note = 1",
		"Note IN (1, 2)",
		"1 IN (2, Note)",
		"UPPER(Model) = 'JETTA'",
		"ROUND(Ratio * 100, 1)",
		"COALESCE(Note, Price)",
		"ABS(-Price)",
		"LENGTH(Model) + 1",
		"SUBSTR(Model, 2, 3)",
		"YEAR(When) = Year",
		"CEIL(Ratio) * FLOOR(Ratio)",
		"Price / 0",     // errors in both paths
		"Model + 1",     // type error in both paths
		"NoSuchCol = 1", // unknown column errors at eval time in both paths
		"SUM(Price)",    // aggregate rejected in a row context in both paths
	}
	row := compileEnvRow()
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, wantErr := Eval(e, env())
		prog := Compile(e, Scope{Resolve: compileResolver()})
		got, gotErr := prog.Eval(row)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: eval err %v, compiled err %v", src, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if want.Kind() != got.Kind() || !value.Equal(want, got) {
			t.Errorf("%s: eval %v (%s), compiled %v (%s)", src, want, want.Kind(), got, got.Kind())
		}
	}
}

// TestCompileBoolMatchesEvalBool pins predicate semantics (NULL counts as
// false) through the compiled path.
func TestCompileBoolMatchesEvalBool(t *testing.T) {
	srcs := []string{
		"Price < 20000",
		"Note = 1", // UNKNOWN → false
		"Note IS NULL",
		"Price < 20000 AND Note = 1",
		"Price < 20000 OR Note = 1",
	}
	row := compileEnvRow()
	for _, src := range srcs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		want, wantErr := EvalBool(e, env())
		prog := Compile(e, Scope{Resolve: compileResolver()})
		got, gotErr := prog.EvalBool(row)
		if (wantErr == nil) != (gotErr == nil) || want != got {
			t.Errorf("%s: eval (%v, %v), compiled (%v, %v)", src, want, wantErr, got, gotErr)
		}
	}
	// Non-boolean predicates report the same shaped error.
	e := MustParse("Price + 1")
	if _, err := EvalBool(e, env()); err == nil {
		t.Fatal("EvalBool accepted a non-boolean predicate")
	}
	prog := Compile(e, Scope{Resolve: compileResolver()})
	if _, err := prog.EvalBool(row); err == nil || !strings.Contains(err.Error(), "not boolean") {
		t.Fatalf("compiled EvalBool error = %v, want a not-boolean error", err)
	}
}

// TestCompileShortCircuit verifies AND/OR skip the right operand exactly
// like the interpreter: an erroring right side is never reached when the
// left side decides.
func TestCompileShortCircuit(t *testing.T) {
	for _, src := range []string{
		"1 = 2 AND (1 / 0) = 1",
		"1 = 1 OR (1 / 0) = 1",
	} {
		prog := Compile(MustParse(src), Scope{Resolve: compileResolver()})
		if _, err := prog.Eval(compileEnvRow()); err != nil {
			t.Errorf("%s: short circuit lost: %v", src, err)
		}
	}
}

// subEnv is an interpreter Env that answers every subquery with a fixed
// relation, the oracle for the compiled subquery hook.
type subEnv struct {
	MapEnv
	rel *relation.Relation
}

func (e subEnv) EvalSubquery(*Subquery) (*relation.Relation, error) { return e.rel, nil }

// TestCompileSubqueriesCallHook pins the compiled subquery nodes: without a
// hook they compile and report the interpreter's exact error when
// evaluated; with one, each evaluation calls the hook with the node and the
// current row, and the result relation gets the interpreter's scalar,
// EXISTS and three-valued IN semantics.
func TestCompileSubqueriesCallHook(t *testing.T) {
	sub := &Subquery{Text: "SELECT 1"}
	exprs := []Expr{
		sub,
		&Exists{Sub: sub},
		&Exists{Sub: sub, Negate: true},
		&InSubquery{X: &ColumnRef{Name: "Year"}, Sub: sub},
		&InSubquery{X: &ColumnRef{Name: "Note"}, Sub: sub, Negate: true},
		&Binary{Op: OpAnd, L: &Literal{Val: value.NewBool(true)}, R: &Exists{Sub: sub}},
	}
	row := compileEnvRow()
	for _, e := range exprs {
		_, wantErr := Eval(e, env())
		_, gotErr := Compile(e, Scope{Resolve: compileResolver()}).Eval(row)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() ||
			gotErr.Error() != "expr: subqueries are not supported in this context" {
			t.Errorf("%s without a hook: compiled err %v, interpreter err %v", e.SQL(), gotErr, wantErr)
		}
	}

	one := func(vals ...value.Value) *relation.Relation {
		r := relation.New("sub", relation.Schema{{Name: "x", Kind: value.KindInt}})
		for _, v := range vals {
			r.Rows = append(r.Rows, relation.Tuple{v})
		}
		return r
	}
	two := relation.New("sub", relation.Schema{{Name: "x", Kind: value.KindInt}, {Name: "y", Kind: value.KindInt}})
	results := []*relation.Relation{
		one(),
		one(value.NewInt(2005)),
		one(value.NewInt(1), value.Null),
		one(value.NewInt(1), value.NewInt(2005)),
		two,
	}
	for _, rel := range results {
		for _, e := range exprs {
			calls := 0
			prog := Compile(e, Scope{
				Resolve: compileResolver(),
				Subquery: func(s *Subquery, r []value.Value) (*relation.Relation, error) {
					if s != sub || &r[0] != &row[0] {
						t.Fatalf("%s: hook called with %p/%v, want the node and the evaluated row", e.SQL(), s, r)
					}
					calls++
					return rel, nil
				},
			})
			want, wantErr := Eval(e, subEnv{env(), rel})
			got, gotErr := prog.Eval(row)
			if calls != 1 {
				t.Errorf("%s: hook called %d times, want 1", e.SQL(), calls)
			}
			if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Errorf("%s over %d rows: compiled err %v, interpreter err %v", e.SQL(), rel.Len(), gotErr, wantErr)
				continue
			}
			if wantErr == nil && (want.Kind() != got.Kind() || !value.Equal(want, got)) {
				t.Errorf("%s over %d rows: compiled %v, interpreter %v", e.SQL(), rel.Len(), got, want)
			}
		}
	}
}

// TestCompileOuterBinding: a name the row layout does not resolve binds to
// the enclosing scope's value, while names the layout resolves shadow it.
func TestCompileOuterBinding(t *testing.T) {
	outer := MapEnv{"Outside": value.NewInt(7), "Price": value.NewInt(-1)}
	prog := Compile(MustParse("Price + Outside"), Scope{Resolve: compileResolver(), Outer: outer.Lookup})
	got, err := prog.Eval(compileEnvRow())
	if err != nil {
		t.Fatal(err)
	}
	if want := env()["Price"].Int() + 7; got.Int() != want {
		t.Fatalf("Price + Outside = %v, want %d", got, want)
	}
	if _, err := Compile(MustParse("Ghost"), Scope{Resolve: compileResolver(), Outer: outer.Lookup}).Eval(compileEnvRow()); err == nil ||
		err.Error() != `expr: unknown column "Ghost"` {
		t.Fatalf("unbound name err = %v", err)
	}
}

// TestCompileUnknownColumnDeferred: a dangling reference compiles but
// errors only when evaluated, matching the interpreted path over zero rows.
func TestCompileUnknownColumnDeferred(t *testing.T) {
	prog := Compile(MustParse("Ghost > 1"), Scope{Resolve: compileResolver()})
	if _, err := prog.Eval(compileEnvRow()); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("Eval err = %v, want unknown column", err)
	}
}
