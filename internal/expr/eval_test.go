package expr

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// This file is the tree-walking interpreter of the expression language,
// kept as a test oracle: the compile and batch suites check the production
// evaluators against it. It evaluates through the same shared semantics
// (semantics.go) as the compiled Program, but resolves every column by
// name through an Env on every row.

// Env resolves column references during evaluation.
type Env interface {
	// Lookup returns the value bound to a column name, and whether the
	// name is bound at all. Lookups are case-insensitive.
	Lookup(name string) (value.Value, bool)
}

// MapEnv is an Env over a plain map (case-insensitive keys).
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (value.Value, bool) {
	if v, ok := m[name]; ok {
		return v, true
	}
	for k, v := range m {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return value.Null, false
}

// Eval evaluates e against env, applying SQL three-valued NULL semantics:
// comparisons with NULL yield NULL, AND/OR/NOT follow Kleene logic.
func Eval(e Expr, env Env) (value.Value, error) {
	switch n := e.(type) {
	case *Literal:
		return n.Val, nil
	case *ColumnRef:
		v, ok := env.Lookup(n.Name)
		if !ok {
			return value.Null, fmt.Errorf("expr: unknown column %q", n.Name)
		}
		return v, nil
	case *Star:
		return value.Null, fmt.Errorf("expr: * is only valid inside COUNT(*)")
	case *Unary:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpNeg {
			return value.Neg(x)
		}
		t, err := value.TruthOf(x)
		if err != nil {
			return value.Null, err
		}
		return t.Not().Value(), nil
	case *Binary:
		return evalBinary(n, env)
	case *IsNull:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		res := x.IsNull()
		if n.Negate {
			res = !res
		}
		return value.NewBool(res), nil
	case *InList:
		return evalIn(n, env)
	case *Between:
		x, err := Eval(n.X, env)
		if err != nil {
			return value.Null, err
		}
		lo, err := Eval(n.Lo, env)
		if err != nil {
			return value.Null, err
		}
		hi, err := Eval(n.Hi, env)
		if err != nil {
			return value.Null, err
		}
		ge, err := compare(x, lo, OpGe)
		if err != nil {
			return value.Null, err
		}
		le, err := compare(x, hi, OpLe)
		if err != nil {
			return value.Null, err
		}
		t := ge.And(le)
		if n.Negate {
			t = t.Not()
		}
		return t.Value(), nil
	case *FuncCall:
		return evalFunc(n, env)
	case *WindowCall:
		return value.Null, fmt.Errorf("expr: window function %s not allowed in a row context", n.Func)
	case *Subquery:
		return evalScalarSubquery(n, env)
	case *Exists:
		return evalExists(n, env)
	case *InSubquery:
		return evalInSubquery(n, env)
	}
	return value.Null, fmt.Errorf("expr: cannot evaluate %T", e)
}

// EvalBool evaluates a predicate; NULL (unknown) counts as false, matching
// SQL WHERE semantics.
func EvalBool(e Expr, env Env) (bool, error) {
	v, err := Eval(e, env)
	if err != nil {
		return false, err
	}
	t, err := value.TruthOf(v)
	if err != nil {
		return false, fmt.Errorf("expr: predicate %s is not boolean: %w", e.SQL(), err)
	}
	return t == value.True, nil
}

func evalBinary(n *Binary, env Env) (value.Value, error) {
	switch n.Op {
	case OpAnd, OpOr:
		lv, err := Eval(n.L, env)
		if err != nil {
			return value.Null, err
		}
		lt, err := value.TruthOf(lv)
		if err != nil {
			return value.Null, err
		}
		// Short circuit when the left side decides.
		if n.Op == OpAnd && lt == value.False {
			return value.NewBool(false), nil
		}
		if n.Op == OpOr && lt == value.True {
			return value.NewBool(true), nil
		}
		rv, err := Eval(n.R, env)
		if err != nil {
			return value.Null, err
		}
		rt, err := value.TruthOf(rv)
		if err != nil {
			return value.Null, err
		}
		if n.Op == OpAnd {
			return lt.And(rt).Value(), nil
		}
		return lt.Or(rt).Value(), nil
	}
	l, err := Eval(n.L, env)
	if err != nil {
		return value.Null, err
	}
	r, err := Eval(n.R, env)
	if err != nil {
		return value.Null, err
	}
	switch n.Op {
	case OpAdd:
		return value.Add(l, r)
	case OpSub:
		return value.Sub(l, r)
	case OpMul:
		return value.Mul(l, r)
	case OpDiv:
		return value.Div(l, r)
	case OpMod:
		return value.Mod(l, r)
	case OpConcat:
		return value.Concat(l, r)
	case OpLike:
		return like(l, r)
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		t, err := compare(l, r, n.Op)
		if err != nil {
			return value.Null, err
		}
		return t.Value(), nil
	}
	return value.Null, fmt.Errorf("expr: unknown operator %q", n.Op)
}

func evalIn(n *InList, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	return memberOf(x, len(n.Items), func(i int) (value.Value, error) { return Eval(n.Items[i], env) }, n.Negate)
}

func evalFunc(f *FuncCall, env Env) (value.Value, error) {
	if AggregateNames[f.Name] {
		return value.Null, fmt.Errorf("expr: aggregate %s not allowed in a row context", f.Name)
	}
	args := make([]value.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := Eval(a, env)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return CallScalar(f.Name, args)
}

// SubqueryEvaluator is the optional Env capability that executes a nested
// statement in the current row's scope and returns its result relation.
type SubqueryEvaluator interface {
	EvalSubquery(sub *Subquery) (*relation.Relation, error)
}

// evalSubqueryRelation runs the subquery through the Env's capability.
func evalSubqueryRelation(sub *Subquery, env Env) (*relation.Relation, error) {
	se, ok := env.(SubqueryEvaluator)
	if !ok {
		return nil, errNoSubqueries
	}
	return se.EvalSubquery(sub)
}

func evalScalarSubquery(sub *Subquery, env Env) (value.Value, error) {
	rel, err := evalSubqueryRelation(sub, env)
	if err != nil {
		return value.Null, err
	}
	return scalarResult(rel)
}

func evalExists(e *Exists, env Env) (value.Value, error) {
	rel, err := evalSubqueryRelation(e.Sub, env)
	if err != nil {
		return value.Null, err
	}
	return existsResult(rel, e.Negate), nil
}

func evalInSubquery(n *InSubquery, env Env) (value.Value, error) {
	x, err := Eval(n.X, env)
	if err != nil {
		return value.Null, err
	}
	rel, err := evalSubqueryRelation(n.Sub, env)
	if err != nil {
		return value.Null, err
	}
	return inResult(x, rel, n.Negate)
}
