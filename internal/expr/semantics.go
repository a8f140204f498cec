package expr

import (
	"fmt"

	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// SQL semantics shared by every evaluator of the expression language: the
// compiled Program, the batch backend (compare) and the test-only
// interpreter call these helpers, never a copy of them, so the NULL,
// comparison and subquery rules have one definition.

// compare applies a comparison operator under three-valued logic: a NULL
// operand makes the result unknown.
func compare(l, r value.Value, op BinaryOp) (value.Truth, error) {
	if l.IsNull() || r.IsNull() {
		return value.Unknown, nil
	}
	c, err := value.Compare(l, r)
	if err != nil {
		return value.False, err
	}
	var ok bool
	switch op {
	case OpEq:
		ok = c == 0
	case OpNe:
		ok = c != 0
	case OpLt:
		ok = c < 0
	case OpLe:
		ok = c <= 0
	case OpGt:
		ok = c > 0
	case OpGe:
		ok = c >= 0
	}
	if ok {
		return value.True, nil
	}
	return value.False, nil
}

// like evaluates l LIKE r: NULL when either side is NULL, an error unless
// both are strings.
func like(l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	if l.Kind() != value.KindString || r.Kind() != value.KindString {
		return value.Null, fmt.Errorf("expr: LIKE requires strings, got %s and %s", l.Kind(), r.Kind())
	}
	return value.NewBool(likeMatch(l.Str(), r.Str())), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single char),
// matched case-sensitively over bytes.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match; patterns are short in practice.
	si, pi := 0, 0
	starS, starP := -1, -1
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP = pi
			starS = si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// memberOf is three-valued X [NOT] IN over n candidates, fetched lazily by
// item and in order: membership stops at the first equal candidate, and a
// NULL on either side without a match makes the result unknown.
func memberOf(x value.Value, n int, item func(int) (value.Value, error), negate bool) (value.Value, error) {
	sawNull := x.IsNull()
	found := false
	for i := 0; i < n; i++ {
		v, err := item(i)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() || x.IsNull() {
			sawNull = true
			continue
		}
		t, err := compare(x, v, OpEq)
		if err != nil {
			return value.Null, err
		}
		if t == value.True {
			found = true
			break
		}
	}
	var t value.Truth
	switch {
	case found:
		t = value.True
	case sawNull:
		t = value.Unknown
	default:
		t = value.False
	}
	if negate {
		t = t.Not()
	}
	return t.Value(), nil
}

// scalarResult enforces scalar-subquery semantics on a result relation: one
// column, at most one row; an empty result is NULL.
func scalarResult(rel *relation.Relation) (value.Value, error) {
	if len(rel.Schema) != 1 {
		return value.Null, fmt.Errorf("expr: scalar subquery returns %d columns", len(rel.Schema))
	}
	switch rel.Len() {
	case 0:
		return value.Null, nil
	case 1:
		return rel.Rows[0][0], nil
	default:
		return value.Null, fmt.Errorf("expr: scalar subquery returned %d rows", rel.Len())
	}
}

// existsResult is [NOT] EXISTS over a result relation.
func existsResult(rel *relation.Relation, negate bool) value.Value {
	res := rel.Len() > 0
	if negate {
		res = !res
	}
	return value.NewBool(res)
}

// inResult is X [NOT] IN (SELECT ...) over the result relation's single
// column.
func inResult(x value.Value, rel *relation.Relation, negate bool) (value.Value, error) {
	if len(rel.Schema) != 1 {
		return value.Null, fmt.Errorf("expr: IN subquery returns %d columns", len(rel.Schema))
	}
	return memberOf(x, len(rel.Rows), func(i int) (value.Value, error) { return rel.Rows[i][0], nil }, negate)
}
