// Package expr implements the expression language shared by the spreadsheet
// algebra and the SQL engine: selection predicates (Sec. III-B Def. 5 of the
// paper — atomic comparisons over columns and constants with optional
// arithmetic, combined with AND/OR/NOT) and formula-computation expressions
// (Def. 12).
//
// The package provides a lexer, a precedence-climbing parser, a type
// checker, a row evaluator with SQL three-valued NULL logic, and utilities
// to enumerate referenced columns and to render an expression back to SQL
// text (used by internal/sqlgen).
package expr

import (
	"strings"

	"sheetmusiq/internal/value"
)

// Expr is a parsed expression tree node.
type Expr interface {
	// SQL renders the node as SQL text that reparses to an equal tree.
	SQL() string
	// walk visits this node then its children.
	walk(fn func(Expr))
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// SQL implements Expr.
func (l *Literal) SQL() string { return l.Val.SQL() }

func (l *Literal) walk(fn func(Expr)) { fn(l) }

// ColumnRef references a column by name. Names may be dotted
// ("orders.o_custkey") after binary operators disambiguate collisions.
type ColumnRef struct {
	Name string
}

// SQL implements Expr. Names that need quoting are double-quoted.
func (c *ColumnRef) SQL() string {
	if needsQuote(c.Name) {
		return `"` + strings.ReplaceAll(c.Name, `"`, `""`) + `"`
	}
	return c.Name
}

func (c *ColumnRef) walk(fn func(Expr)) { fn(c) }

func needsQuote(name string) bool {
	if name == "" {
		return true
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return true
			}
		default:
			return true
		}
	}
	return keyword(strings.ToUpper(name))
}

// Star is the "*" argument of COUNT(*) in SQL contexts. The algebra's own
// evaluator rejects it; only the SQL layer interprets it.
type Star struct{}

// SQL implements Expr.
func (*Star) SQL() string { return "*" }

func (s *Star) walk(fn func(Expr)) { fn(s) }

// BinaryOp enumerates binary operators.
type BinaryOp string

// Binary operators in increasing precedence groups.
const (
	OpOr     BinaryOp = "OR"
	OpAnd    BinaryOp = "AND"
	OpEq     BinaryOp = "="
	OpNe     BinaryOp = "<>"
	OpLt     BinaryOp = "<"
	OpLe     BinaryOp = "<="
	OpGt     BinaryOp = ">"
	OpGe     BinaryOp = ">="
	OpLike   BinaryOp = "LIKE"
	OpAdd    BinaryOp = "+"
	OpSub    BinaryOp = "-"
	OpMul    BinaryOp = "*"
	OpDiv    BinaryOp = "/"
	OpMod    BinaryOp = "%"
	OpConcat BinaryOp = "||"
)

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// SQL implements Expr.
func (b *Binary) SQL() string {
	return "(" + b.L.SQL() + " " + string(b.Op) + " " + b.R.SQL() + ")"
}

func (b *Binary) walk(fn func(Expr)) { fn(b); b.L.walk(fn); b.R.walk(fn) }

// UnaryOp enumerates unary operators.
type UnaryOp string

// Unary operators.
const (
	OpNot UnaryOp = "NOT"
	OpNeg UnaryOp = "-"
)

// Unary applies a unary operator.
type Unary struct {
	Op UnaryOp
	X  Expr
}

// SQL implements Expr.
func (u *Unary) SQL() string {
	if u.Op == OpNot {
		return "(NOT " + u.X.SQL() + ")"
	}
	return "(-" + u.X.SQL() + ")"
}

func (u *Unary) walk(fn func(Expr)) { fn(u); u.X.walk(fn) }

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// SQL implements Expr.
func (n *IsNull) SQL() string {
	if n.Negate {
		return "(" + n.X.SQL() + " IS NOT NULL)"
	}
	return "(" + n.X.SQL() + " IS NULL)"
}

func (n *IsNull) walk(fn func(Expr)) { fn(n); n.X.walk(fn) }

// InList tests X [NOT] IN (item, ...).
type InList struct {
	X      Expr
	Items  []Expr
	Negate bool
}

// SQL implements Expr.
func (n *InList) SQL() string {
	parts := make([]string, len(n.Items))
	for i, it := range n.Items {
		parts[i] = it.SQL()
	}
	op := " IN ("
	if n.Negate {
		op = " NOT IN ("
	}
	return "(" + n.X.SQL() + op + strings.Join(parts, ", ") + "))"
}

func (n *InList) walk(fn func(Expr)) {
	fn(n)
	n.X.walk(fn)
	for _, it := range n.Items {
		it.walk(fn)
	}
}

// Between tests X [NOT] BETWEEN Lo AND Hi (inclusive).
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// SQL implements Expr.
func (n *Between) SQL() string {
	op := " BETWEEN "
	if n.Negate {
		op = " NOT BETWEEN "
	}
	return "(" + n.X.SQL() + op + n.Lo.SQL() + " AND " + n.Hi.SQL() + ")"
}

func (n *Between) walk(fn func(Expr)) { fn(n); n.X.walk(fn); n.Lo.walk(fn); n.Hi.walk(fn) }

// FuncCall invokes a scalar function (or, in SQL SELECT lists, an aggregate
// such as SUM — the SQL planner peels those off before evaluation).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
}

// SQL implements Expr.
func (f *FuncCall) SQL() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.SQL()
	}
	return f.Name + "(" + strings.Join(parts, ", ") + ")"
}

func (f *FuncCall) walk(fn func(Expr)) {
	fn(f)
	for _, a := range f.Args {
		a.walk(fn)
	}
}

// DropConjuncts returns e with every top-level AND conjunct that drop
// selects replaced by the literal TRUE, or nil when drop selects them all.
// The AND tree keeps its shape, so on any row where the dropped conjuncts
// are true the result evaluates exactly as e does — same value, same
// error, same evaluation order. Join kernels use it to skip key equalities
// the hash already proved.
func DropConjuncts(e Expr, drop func(Expr) bool) Expr {
	kept := false
	var walk func(Expr) Expr
	walk = func(n Expr) Expr {
		if b, ok := n.(*Binary); ok && b.Op == OpAnd {
			return &Binary{Op: OpAnd, L: walk(b.L), R: walk(b.R)}
		}
		if drop(n) {
			return &Literal{Val: value.NewBool(true)}
		}
		kept = true
		return n
	}
	out := walk(e)
	if !kept {
		return nil
	}
	return out
}

// Columns returns the distinct column names referenced by e, in first-use
// order.
func Columns(e Expr) []string {
	var out []string
	seen := map[string]bool{}
	e.walk(func(n Expr) {
		if c, ok := n.(*ColumnRef); ok {
			k := strings.ToLower(c.Name)
			if !seen[k] {
				seen[k] = true
				out = append(out, c.Name)
			}
		}
	})
	return out
}

// Walk visits every node of e in pre-order.
func Walk(e Expr, fn func(Expr)) { e.walk(fn) }

// References reports whether e mentions the named column
// (case-insensitively).
func References(e Expr, column string) bool {
	found := false
	e.walk(func(n Expr) {
		if c, ok := n.(*ColumnRef); ok && strings.EqualFold(c.Name, column) {
			found = true
		}
	})
	return found
}
