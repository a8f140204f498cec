package expr

import (
	"errors"
	"fmt"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// This file implements expression compilation: turning a parsed tree into a
// Program whose column references are resolved to row positions exactly
// once. Evaluation then indexes straight into a positional row instead of
// performing a name lookup per reference per row. Compile is total — every
// expression compiles, and whatever cannot succeed compiles into a node
// that reports the error when (and only if) a row evaluates it — so the
// Program is the one row evaluator of both core.Evaluate and the SQL
// executor.

// Resolver maps a column name to its index in the row layout a Program will
// be evaluated against. It is consulted only at compile time.
type Resolver func(name string) (int, bool)

// Scope is what Compile binds an expression's names and subqueries to.
type Scope struct {
	// Resolve maps a column name to its position in the evaluated row.
	Resolve Resolver
	// Outer binds a name Resolve does not know to the enclosing scope's
	// value. That value is a constant for the Program's lifetime: a
	// correlated statement compiles afresh for every outer row it runs
	// under. Nil means there is no enclosing scope.
	Outer func(name string) (value.Value, bool)
	// Subquery runs a nested statement with the evaluated row as its
	// enclosing scope and returns the statement's result relation. Nil
	// means subqueries are not supported in this context, and evaluating
	// one reports exactly that.
	Subquery func(sub *Subquery, row []value.Value) (*relation.Relation, error)
}

// progFn evaluates one compiled node against a positional row. Programs
// hold no mutable state, so one Program may be evaluated from many
// goroutines concurrently unless its Scope's Subquery hook forbids it.
type progFn func(row []value.Value) (value.Value, error)

// Program is a compiled expression bound to a fixed row layout. The
// structural fingerprint and the referenced-column set are computed once at
// compile time: Programs are shared across goroutines and both values are
// consulted on every pipeline build, so caching them beside the code avoids
// a tree walk per consultation without introducing mutable state.
type Program struct {
	src  Expr
	fn   progFn
	fp   uint64
	deps []string
}

// Compile resolves every column reference of e through sc and returns a
// Program evaluated directly against a positional row. A name neither
// sc.Resolve nor sc.Outer binds compiles into a node that reports the
// unknown column when evaluated, so an unused dangling reference over zero
// rows stays silent. Subquery nodes call sc.Subquery.
func Compile(e Expr, sc Scope) *Program {
	compileOK.Inc()
	return &Program{src: e, fn: compile(e, &sc), fp: Fingerprint(e), deps: Deps(e)}
}

// compileOK counts compiled programs (expr.compile.ok).
var compileOK = obs.Default.Counter("expr.compile.ok")

// Source returns the expression the program was compiled from.
func (p *Program) Source() Expr { return p.src }

// Eval evaluates the program against a positional row, with SQL
// three-valued NULL semantics: comparisons with NULL yield NULL, AND/OR/NOT
// follow Kleene logic.
func (p *Program) Eval(row []value.Value) (value.Value, error) {
	return p.fn(row)
}

// EvalBool evaluates the program as a predicate; NULL (unknown) counts as
// false, matching SQL WHERE semantics.
func (p *Program) EvalBool(row []value.Value) (bool, error) {
	v, err := p.fn(row)
	if err != nil {
		return false, err
	}
	t, err := value.TruthOf(v)
	if err != nil {
		return false, fmt.Errorf("expr: predicate %s is not boolean: %w", p.src.SQL(), err)
	}
	return t == value.True, nil
}

func compile(e Expr, sc *Scope) progFn {
	switch n := e.(type) {
	case *Literal:
		return constant(n.Val)
	case *ColumnRef:
		if sc.Resolve != nil {
			if i, ok := sc.Resolve(n.Name); ok {
				return func(row []value.Value) (value.Value, error) { return row[i], nil }
			}
		}
		if sc.Outer != nil {
			if v, ok := sc.Outer(n.Name); ok {
				return constant(v)
			}
		}
		return failing(fmt.Errorf("expr: unknown column %q", n.Name))
	case *Star:
		return failing(fmt.Errorf("expr: * is only valid inside COUNT(*)"))
	case *Unary:
		x := compile(n.X, sc)
		if n.Op == OpNeg {
			return func(row []value.Value) (value.Value, error) {
				v, err := x(row)
				if err != nil {
					return value.Null, err
				}
				return value.Neg(v)
			}
		}
		return func(row []value.Value) (value.Value, error) {
			v, err := x(row)
			if err != nil {
				return value.Null, err
			}
			t, err := value.TruthOf(v)
			if err != nil {
				return value.Null, err
			}
			return t.Not().Value(), nil
		}
	case *Binary:
		return compileBinary(n, sc)
	case *IsNull:
		x := compile(n.X, sc)
		negate := n.Negate
		return func(row []value.Value) (value.Value, error) {
			v, err := x(row)
			if err != nil {
				return value.Null, err
			}
			res := v.IsNull()
			if negate {
				res = !res
			}
			return value.NewBool(res), nil
		}
	case *InList:
		return compileIn(n, sc)
	case *Between:
		x, lo, hi := compile(n.X, sc), compile(n.Lo, sc), compile(n.Hi, sc)
		negate := n.Negate
		return func(row []value.Value) (value.Value, error) {
			xv, err := x(row)
			if err != nil {
				return value.Null, err
			}
			lov, err := lo(row)
			if err != nil {
				return value.Null, err
			}
			hiv, err := hi(row)
			if err != nil {
				return value.Null, err
			}
			ge, err := compare(xv, lov, OpGe)
			if err != nil {
				return value.Null, err
			}
			le, err := compare(xv, hiv, OpLe)
			if err != nil {
				return value.Null, err
			}
			t := ge.And(le)
			if negate {
				t = t.Not()
			}
			return t.Value(), nil
		}
	case *FuncCall:
		return compileFunc(n, sc)
	case *WindowCall:
		return failing(fmt.Errorf("expr: window function %s not allowed in a row context", n.Func))
	case *Subquery:
		run := sc.subquery()
		return func(row []value.Value) (value.Value, error) {
			rel, err := run(n, row)
			if err != nil {
				return value.Null, err
			}
			return scalarResult(rel)
		}
	case *Exists:
		run, sub, negate := sc.subquery(), n.Sub, n.Negate
		return func(row []value.Value) (value.Value, error) {
			rel, err := run(sub, row)
			if err != nil {
				return value.Null, err
			}
			return existsResult(rel, negate), nil
		}
	case *InSubquery:
		x, run, sub, negate := compile(n.X, sc), sc.subquery(), n.Sub, n.Negate
		return func(row []value.Value) (value.Value, error) {
			xv, err := x(row)
			if err != nil {
				return value.Null, err
			}
			rel, err := run(sub, row)
			if err != nil {
				return value.Null, err
			}
			return inResult(xv, rel, negate)
		}
	}
	return failing(fmt.Errorf("expr: cannot evaluate %T", e))
}

// constant compiles a node whose value does not depend on the row.
func constant(v value.Value) progFn {
	return func([]value.Value) (value.Value, error) { return v, nil }
}

// failing compiles a node that reports err whenever a row evaluates it.
func failing(err error) progFn {
	return func([]value.Value) (value.Value, error) { return value.Null, err }
}

// subquery returns the scope's subquery hook, or one reporting that the
// context supports none.
func (sc *Scope) subquery() func(*Subquery, []value.Value) (*relation.Relation, error) {
	if sc.Subquery != nil {
		return sc.Subquery
	}
	return func(*Subquery, []value.Value) (*relation.Relation, error) {
		return nil, errNoSubqueries
	}
}

var errNoSubqueries = errors.New("expr: subqueries are not supported in this context")

func compileBinary(n *Binary, sc *Scope) progFn {
	l, r := compile(n.L, sc), compile(n.R, sc)
	switch n.Op {
	case OpAnd, OpOr:
		isAnd := n.Op == OpAnd
		return func(row []value.Value) (value.Value, error) {
			lv, err := l(row)
			if err != nil {
				return value.Null, err
			}
			lt, err := value.TruthOf(lv)
			if err != nil {
				return value.Null, err
			}
			// Short circuit when the left side decides.
			if isAnd && lt == value.False {
				return value.NewBool(false), nil
			}
			if !isAnd && lt == value.True {
				return value.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return value.Null, err
			}
			rt, err := value.TruthOf(rv)
			if err != nil {
				return value.Null, err
			}
			if isAnd {
				return lt.And(rt).Value(), nil
			}
			return lt.Or(rt).Value(), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpConcat:
		var arith func(a, b value.Value) (value.Value, error)
		switch n.Op {
		case OpAdd:
			arith = value.Add
		case OpSub:
			arith = value.Sub
		case OpMul:
			arith = value.Mul
		case OpDiv:
			arith = value.Div
		case OpMod:
			arith = value.Mod
		case OpConcat:
			arith = value.Concat
		}
		return func(row []value.Value) (value.Value, error) {
			lv, err := l(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return value.Null, err
			}
			return arith(lv, rv)
		}
	case OpLike:
		return func(row []value.Value) (value.Value, error) {
			lv, err := l(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return value.Null, err
			}
			return like(lv, rv)
		}
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		op := n.Op
		return func(row []value.Value) (value.Value, error) {
			lv, err := l(row)
			if err != nil {
				return value.Null, err
			}
			rv, err := r(row)
			if err != nil {
				return value.Null, err
			}
			t, err := compare(lv, rv, op)
			if err != nil {
				return value.Null, err
			}
			return t.Value(), nil
		}
	}
	return failing(fmt.Errorf("expr: unknown operator %q", n.Op))
}

func compileIn(n *InList, sc *Scope) progFn {
	x := compile(n.X, sc)
	items := make([]progFn, len(n.Items))
	for i, it := range n.Items {
		items[i] = compile(it, sc)
	}
	negate := n.Negate
	return func(row []value.Value) (value.Value, error) {
		xv, err := x(row)
		if err != nil {
			return value.Null, err
		}
		return memberOf(xv, len(items), func(i int) (value.Value, error) { return items[i](row) }, negate)
	}
}

func compileFunc(n *FuncCall, sc *Scope) progFn {
	if AggregateNames[n.Name] {
		return failing(fmt.Errorf("expr: aggregate %s not allowed in a row context", n.Name))
	}
	args := make([]progFn, len(n.Args))
	for i, a := range n.Args {
		args[i] = compile(a, sc)
	}
	name := n.Name
	return func(row []value.Value) (value.Value, error) {
		vals := make([]value.Value, len(args))
		for i, a := range args {
			v, err := a(row)
			if err != nil {
				return value.Null, err
			}
			vals[i] = v
		}
		return CallScalar(name, vals)
	}
}
