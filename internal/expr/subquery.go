package expr

// This file adds nested-subquery nodes to the expression language: scalar
// subqueries, EXISTS, and IN (SELECT ...). The spreadsheet algebra
// deliberately rejects them (the paper's SheetMusiq "does not support
// nested queries and queries with keyword exist"), but the SQL substrate
// supports them so the repository can run the TPC-H queries the study had
// to exclude and demonstrate exactly where the algebra's expressiveness
// boundary lies.
//
// The expression layer stays ignorant of SQL statement structure: a
// Subquery holds an opaque statement owned by the SQL layer, parsing
// delegates through Parser.SubParser, and evaluation delegates through the
// Subquery hook of the compile Scope.

// Subquery wraps a nested SELECT owned by the SQL layer.
type Subquery struct {
	// Stmt is the parsed statement (a *sql.SelectStmt); opaque here.
	Stmt any
	// Text is the statement's SQL rendering, used by SQL().
	Text string
}

// SQL implements Expr.
func (s *Subquery) SQL() string { return "(" + s.Text + ")" }

func (s *Subquery) walk(fn func(Expr)) { fn(s) }

// Exists is the EXISTS (SELECT ...) predicate.
type Exists struct {
	Sub    *Subquery
	Negate bool
}

// SQL implements Expr.
func (e *Exists) SQL() string {
	if e.Negate {
		return "(NOT EXISTS " + e.Sub.SQL() + ")"
	}
	return "(EXISTS " + e.Sub.SQL() + ")"
}

func (e *Exists) walk(fn func(Expr)) { fn(e); e.Sub.walk(fn) }

// InSubquery is X [NOT] IN (SELECT ...).
type InSubquery struct {
	X      Expr
	Sub    *Subquery
	Negate bool
}

// SQL implements Expr.
func (n *InSubquery) SQL() string {
	op := " IN "
	if n.Negate {
		op = " NOT IN "
	}
	return "(" + n.X.SQL() + op + n.Sub.SQL() + ")"
}

func (n *InSubquery) walk(fn func(Expr)) { fn(n); n.X.walk(fn); n.Sub.walk(fn) }

// ContainsSubquery reports whether e nests any subquery.
func ContainsSubquery(e Expr) bool {
	found := false
	e.walk(func(n Expr) {
		if _, ok := n.(*Subquery); ok {
			found = true
		}
	})
	return found
}
