package expr

import (
	"fmt"
	"strconv"
	"strings"

	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Window-function calls: fn(arg) OVER (PARTITION BY ... ORDER BY ... [ROWS
// frame]). The expression layer parses, prints, checks and fingerprints the
// node; actually computing a window needs the whole column — the SQL
// executor and the algebra's window stage lift WindowCall nodes out before
// row evaluation, so a compiled row program rejects them exactly as it
// rejects bare aggregates.
//
// OVER and its clause words (PARTITION, ROWS, PRECEDING, ...) are not
// lexer keywords: they only carry meaning immediately after a call's closing
// parenthesis, so columns named "over" or "rows" keep working everywhere
// else.

// WindowOrder is one ORDER BY key of a window specification.
type WindowOrder struct {
	X    Expr
	Desc bool
}

// WindowCall is a window-function invocation.
type WindowCall struct {
	Func        relation.WindowFunc
	Arg         Expr // nil for ranking functions and COUNT(*)
	PartitionBy []Expr
	OrderBy     []WindowOrder
	Frame       *relation.Frame
}

// SQL implements Expr.
func (w *WindowCall) SQL() string {
	var b strings.Builder
	b.WriteString(string(w.Func))
	b.WriteByte('(')
	switch {
	case w.Arg != nil:
		b.WriteString(w.Arg.SQL())
	case !w.Func.Ranking():
		b.WriteByte('*')
	}
	b.WriteString(") OVER (")
	sep := ""
	if len(w.PartitionBy) > 0 {
		b.WriteString("PARTITION BY ")
		for i, e := range w.PartitionBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
		sep = " "
	}
	if len(w.OrderBy) > 0 {
		b.WriteString(sep)
		b.WriteString("ORDER BY ")
		for i, o := range w.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.X.SQL())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
		sep = " "
	}
	if w.Frame != nil {
		b.WriteString(sep)
		b.WriteString(w.Frame.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (w *WindowCall) walk(fn func(Expr)) {
	fn(w)
	if w.Arg != nil {
		w.Arg.walk(fn)
	}
	for _, e := range w.PartitionBy {
		e.walk(fn)
	}
	for _, o := range w.OrderBy {
		o.X.walk(fn)
	}
}

// IsWindowCall reports whether e is a window-function call.
func IsWindowCall(e Expr) bool {
	_, ok := e.(*WindowCall)
	return ok
}

// ContainsWindow reports whether any node in e is a window-function call.
func ContainsWindow(e Expr) bool {
	found := false
	e.walk(func(n Expr) {
		if IsWindowCall(n) {
			found = true
		}
	})
	return found
}

// batchWindow counts window computations whose input vectors came from the
// vectorized backend instead of per-row evaluation; asserted alongside the
// relation.window.* series in the metrics e2e test.
var batchWindow = obs.Default.Counter("expr.batch.window")

// NoteWindowBatch records one window evaluation with vectorized inputs.
func NoteWindowBatch() { batchWindow.Inc() }

// checkWindow infers the result kind of a window call and validates its
// shape: the function must exist, ranking functions take no argument and
// require ORDER BY, frames require ORDER BY, and every sub-expression must
// check in the row context.
func checkWindow(w *WindowCall, resolve KindResolver) (value.Kind, error) {
	if _, err := relation.ParseWindowFunc(string(w.Func)); err != nil {
		return value.KindNull, err
	}
	if w.Func.Ranking() {
		if w.Arg != nil {
			return value.KindNull, fmt.Errorf("expr: %s() takes no argument", w.Func)
		}
		if len(w.OrderBy) == 0 {
			return value.KindNull, fmt.Errorf("expr: %s requires an ORDER BY in its OVER clause", w.Func)
		}
		if w.Frame != nil {
			return value.KindNull, fmt.Errorf("expr: %s does not take a frame", w.Func)
		}
	}
	if w.Arg == nil && w.Func.NeedsArg() {
		return value.KindNull, fmt.Errorf("expr: %s window requires an argument", w.Func)
	}
	if w.Frame != nil {
		if len(w.OrderBy) == 0 {
			return value.KindNull, fmt.Errorf("expr: a window frame requires an ORDER BY")
		}
		if err := w.Frame.Validate(); err != nil {
			return value.KindNull, err
		}
	}
	argKind := value.KindNull
	if w.Arg != nil {
		if ContainsWindow(w.Arg) {
			return value.KindNull, fmt.Errorf("expr: window functions cannot nest")
		}
		k, err := Check(w.Arg, resolve)
		if err != nil {
			return value.KindNull, err
		}
		switch w.Func {
		case relation.WinSum, relation.WinAvg:
			if k != value.KindNull && !k.Numeric() {
				return value.KindNull, fmt.Errorf("expr: %s window over non-numeric %s", w.Func, k)
			}
		}
		argKind = k
	}
	for _, e := range w.PartitionBy {
		if ContainsWindow(e) {
			return value.KindNull, fmt.Errorf("expr: window functions cannot nest")
		}
		if _, err := Check(e, resolve); err != nil {
			return value.KindNull, err
		}
	}
	for _, o := range w.OrderBy {
		if ContainsWindow(o.X) {
			return value.KindNull, fmt.Errorf("expr: window functions cannot nest")
		}
		if _, err := Check(o.X, resolve); err != nil {
			return value.KindNull, err
		}
	}
	return w.Func.ResultKind(argKind), nil
}

// acceptWord consumes an identifier token spelled (case-insensitively) like
// word. OVER-clause vocabulary lexes as plain identifiers, so the window
// grammar matches them contextually instead of reserving them.
func (p *Parser) acceptWord(word string) bool {
	if t := p.Peek(); t.Kind == TokIdent && strings.EqualFold(t.Text, word) {
		p.i++
		return true
	}
	return false
}

func (p *Parser) expectWord(word string) error {
	if !p.acceptWord(word) {
		t := p.Peek()
		return fmt.Errorf("expr: expected %s at %d, found %q", word, t.Pos, t.Text)
	}
	return nil
}

// parseOverClause turns a just-parsed function call followed by OVER into a
// WindowCall. The caller consumed the OVER identifier already.
func (p *Parser) parseOverClause(fc *FuncCall) (Expr, error) {
	fn, err := relation.ParseWindowFunc(fc.Name)
	if err != nil {
		return nil, fmt.Errorf("expr: %s is not a window function", fc.Name)
	}
	w := &WindowCall{Func: fn}
	switch len(fc.Args) {
	case 0:
	case 1:
		if _, star := fc.Args[0].(*Star); !star {
			w.Arg = fc.Args[0]
		}
	default:
		return nil, fmt.Errorf("expr: %s(...) OVER takes at most one argument", fc.Name)
	}
	if err := p.ExpectOp("("); err != nil {
		return nil, err
	}
	if p.acceptWord("PARTITION") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			w.PartitionBy = append(w.PartitionBy, e)
			if !p.AcceptOp(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("ORDER") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			o := WindowOrder{X: e}
			if p.AcceptKeyword("DESC") {
				o.Desc = true
			} else {
				p.AcceptKeyword("ASC")
			}
			w.OrderBy = append(w.OrderBy, o)
			if !p.AcceptOp(",") {
				break
			}
		}
	}
	if p.acceptWord("ROWS") {
		frame, err := p.parseFrame()
		if err != nil {
			return nil, err
		}
		w.Frame = frame
	}
	if err := p.ExpectOp(")"); err != nil {
		return nil, err
	}
	return w, nil
}

// parseFrame parses the ROWS frame body: BETWEEN lo AND hi, or a single
// start bound with CURRENT ROW as the implicit end.
func (p *Parser) parseFrame() (*relation.Frame, error) {
	if p.AcceptKeyword("BETWEEN") {
		lo, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseFrameBound()
		if err != nil {
			return nil, err
		}
		return &relation.Frame{Lo: lo, Hi: hi}, nil
	}
	lo, err := p.parseFrameBound()
	if err != nil {
		return nil, err
	}
	return &relation.Frame{Lo: lo, Hi: relation.FrameBound{Kind: relation.BoundCurrentRow}}, nil
}

func (p *Parser) parseFrameBound() (relation.FrameBound, error) {
	var b relation.FrameBound
	switch {
	case p.acceptWord("UNBOUNDED"):
		switch {
		case p.acceptWord("PRECEDING"):
			b.Kind = relation.BoundUnboundedPreceding
		case p.acceptWord("FOLLOWING"):
			b.Kind = relation.BoundUnboundedFollowing
		default:
			t := p.Peek()
			return b, fmt.Errorf("expr: expected PRECEDING or FOLLOWING at %d, found %q", t.Pos, t.Text)
		}
		return b, nil
	case p.acceptWord("CURRENT"):
		if err := p.expectWord("ROW"); err != nil {
			return b, err
		}
		b.Kind = relation.BoundCurrentRow
		return b, nil
	}
	t := p.Peek()
	if t.Kind != TokNumber || strings.ContainsAny(t.Text, ".eE") {
		return b, fmt.Errorf("expr: expected a frame bound at %d, found %q", t.Pos, t.Text)
	}
	p.i++
	off, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return b, fmt.Errorf("expr: bad frame offset %q at %d", t.Text, t.Pos)
	}
	b.Offset = off
	switch {
	case p.acceptWord("PRECEDING"):
		b.Kind = relation.BoundPreceding
	case p.acceptWord("FOLLOWING"):
		b.Kind = relation.BoundFollowing
	default:
		t := p.Peek()
		return b, fmt.Errorf("expr: expected PRECEDING or FOLLOWING at %d, found %q", t.Pos, t.Text)
	}
	return b, nil
}
