package core

import (
	"fmt"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// This file implements the binary operators (Defs. 7–10): Cartesian
// product, multiset union and difference, and join, each combining the
// current spreadsheet with a stored spreadsheet.
//
// Every binary operator is a point of non-commutativity (Sec. IV-B): the
// current selections, DE, and projections are folded into a freshly
// materialised base relation and leave the rewritable query state. Grouping
// and ordering of the current spreadsheet survive, and computed-column
// definitions carry over and recompute against the new base ("all computed
// columns are updated such that computation is based on the product").

// materialize evaluates the spreadsheet and returns its surviving rows over
// the visible non-computed columns — the relation R^j that binary operators
// consume. Computed-column definitions are returned separately so the
// caller can graft them onto the result.
func (s *Spreadsheet) materialize() (*relation.Relation, error) {
	res, err := s.Evaluate()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, c := range s.base.Schema {
		if !s.state.isHidden(c.Name) {
			names = append(names, c.Name)
		}
	}
	out, err := res.Table.Project(names)
	if err != nil {
		return nil, err
	}
	out.Name = s.name
	return out, nil
}

// carryComputed validates that every computed definition still resolves
// against the new base plus the already-carried computed columns.
func carryComputed(newBase *relation.Relation, computed []*ComputedColumn) error {
	known := func(name string) bool {
		if newBase.Schema.Has(name) {
			return true
		}
		for _, c := range computed {
			if strings.EqualFold(c.Name, name) {
				return true
			}
		}
		return false
	}
	for _, c := range computed {
		switch c.Kind {
		case KindAggregate:
			if !known(c.Input) {
				return fmt.Errorf("core: computed column %s aggregates %q, which the result does not carry; remove it first", c.Name, c.Input)
			}
		case KindWindow:
			for _, ref := range c.Win.columns() {
				if !known(ref) {
					return fmt.Errorf("core: computed column %s references %q, which the result does not carry; remove it first", c.Name, ref)
				}
			}
		default:
			for _, ref := range expr.Columns(c.Formula) {
				if !known(ref) {
					return fmt.Errorf("core: computed column %s references %q, which the result does not carry; remove it first", c.Name, ref)
				}
			}
		}
	}
	return nil
}

// rebase installs the new base relation after a binary operator, folding
// history (point of non-commutativity) while keeping grouping, ordering and
// computed definitions.
func (s *Spreadsheet) rebase(newBase *relation.Relation, entry string) error {
	if err := carryComputed(newBase, s.state.computed); err != nil {
		return err
	}
	// Grouping/ordering attributes must still exist in the result.
	for _, g := range s.state.grouping {
		for _, a := range g.Rel {
			if !newBase.Schema.Has(a) && s.state.findComputed(a) == nil {
				return fmt.Errorf("core: grouping attribute %q is not carried by the result", a)
			}
		}
	}
	for _, k := range s.state.finest {
		if !newBase.Schema.Has(k.Column) && s.state.findComputed(k.Column) == nil {
			return fmt.Errorf("core: ordering attribute %q is not carried by the result", k.Column)
		}
	}
	before := s.begin()
	s.base = newBase
	s.state.selections = nil
	s.state.hidden = nil
	s.state.distinctOn = nil
	s.commit(before, entry)
	return nil
}

// Product computes S × S_s (Def. 7): the relational product of the two
// materialised relations, presented with the current spreadsheet's grouping
// and ordering. The operator is deliberately asymmetric, as in the paper.
func (s *Spreadsheet) Product(stored *Spreadsheet) error {
	left, err := s.materialize()
	if err != nil {
		return err
	}
	right, err := stored.materialize()
	if err != nil {
		return err
	}
	prod := left.Product(right)
	prod.Name = s.name
	return s.rebase(prod, "× "+stored.Name())
}

// Union computes S ∪ S_s (Def. 8) under multiset semantics; the stored
// spreadsheet must be union-compatible on the visible non-computed columns.
func (s *Spreadsheet) Union(stored *Spreadsheet) error {
	left, err := s.materialize()
	if err != nil {
		return err
	}
	right, err := stored.materialize()
	if err != nil {
		return err
	}
	u, err := left.Union(right)
	if err != nil {
		return err
	}
	u.Name = s.name
	return s.rebase(u, "∪ "+stored.Name())
}

// Difference computes S − S_s (Def. 9) under multiset semantics
// ({t,t} − {t} = {t}).
func (s *Spreadsheet) Difference(stored *Spreadsheet) error {
	left, err := s.materialize()
	if err != nil {
		return err
	}
	right, err := stored.materialize()
	if err != nil {
		return err
	}
	d, err := left.Difference(right)
	if err != nil {
		return err
	}
	d.Name = s.name
	return s.rebase(d, "− "+stored.Name())
}

// Join computes S ⋈_F S_s (Def. 10) with any predicate the expression
// language supports. Column-name collisions on the stored side are
// disambiguated with its name as a prefix, so conditions reference e.g.
// "orders.o_custkey". An empty condition degenerates to Product.
//
// When the condition carries conjunctive cross-relation column equalities
// (`a = b` with a from the current sheet and b from the stored one), the
// join runs through the equi-hash-join kernel — only hash-matching
// candidate pairs reach the full predicate. Genuinely theta conditions fall
// back to the pair scan.
func (s *Spreadsheet) Join(stored *Spreadsheet, condition string) error {
	if strings.TrimSpace(condition) == "" {
		return s.Product(stored)
	}
	e, err := expr.Parse(condition)
	if err != nil {
		return err
	}
	left, err := s.materialize()
	if err != nil {
		return err
	}
	right, err := stored.materialize()
	if err != nil {
		return err
	}
	// Validate the condition against the product schema before joining, so
	// invalid conditions are "reported to the user immediately" (Sec. VI-A).
	// An empty product of the two schemas gives the layout without
	// materialising a single row.
	probe := relation.New(left.Name, left.Schema).Product(relation.New(right.Name, right.Schema))
	kind, err := expr.Check(e, func(name string) (value.Kind, bool) {
		if i := probe.Schema.IndexOf(name); i >= 0 {
			return probe.Schema[i].Kind, true
		}
		return value.KindNull, false
	})
	if err != nil {
		return fmt.Errorf("core: join condition: %w", err)
	}
	if kind != value.KindBool && kind != value.KindNull {
		return fmt.Errorf("core: join condition must be boolean, got %s", kind)
	}
	on := boolFn(expr.Compile(e, expr.Scope{Resolve: schemaResolver(probe.Schema)}))
	var j *relation.Relation
	split := len(left.Schema)
	if lcols, rcols := equiPairs(e, probe.Schema, split); len(lcols) > 0 {
		// The hash may prove the key equalities (relation.HashJoin); then
		// only the rest of the condition runs on its candidates.
		var rest func(relation.Tuple) (bool, error)
		if re := expr.DropConjuncts(e, func(n expr.Expr) bool {
			_, _, ok := equiPair(n, probe.Schema, split)
			return ok
		}); re != nil {
			rest = boolFn(expr.Compile(re, expr.Scope{Resolve: schemaResolver(probe.Schema)}))
		}
		j, err = left.HashJoin(right, lcols, rcols, on, rest)
	} else {
		j, err = left.Join(right, on)
	}
	if err != nil {
		return err
	}
	j.Name = s.name
	return s.rebase(j, "⋈ "+stored.Name()+" ON "+e.SQL())
}

// boolFn adapts a compiled predicate to the relation kernels' row callback.
func boolFn(p *expr.Program) func(relation.Tuple) (bool, error) {
	return func(t relation.Tuple) (bool, error) { return p.EvalBool(t) }
}

// equiPairs extracts the cross-relation column-equality conjuncts of a join
// condition over the product schema: top-level AND-connected `a = b` where
// one column lies left of split and the other at or right of it. Returned
// right positions are relative to the right relation. A predicate that is
// true implies every returned pair compares equal, which is what lets the
// hash kernel prune non-matching pairs safely.
func equiPairs(e expr.Expr, schema relation.Schema, split int) (lcols, rcols []int) {
	var visit func(expr.Expr)
	visit = func(n expr.Expr) {
		if b, ok := n.(*expr.Binary); ok && b.Op == expr.OpAnd {
			visit(b.L)
			visit(b.R)
			return
		}
		if l, r, ok := equiPair(n, schema, split); ok {
			lcols = append(lcols, l)
			rcols = append(rcols, r)
		}
	}
	visit(e)
	return lcols, rcols
}

// equiPair recognises one conjunct `a = b` whose columns lie on opposite
// sides of split, returning the left position and the right one relative
// to the right relation.
func equiPair(n expr.Expr, schema relation.Schema, split int) (l, r int, ok bool) {
	b, isBin := n.(*expr.Binary)
	if !isBin || b.Op != expr.OpEq {
		return 0, 0, false
	}
	lc, lok := b.L.(*expr.ColumnRef)
	rc, rok := b.R.(*expr.ColumnRef)
	if !lok || !rok {
		return 0, 0, false
	}
	li, ri := schema.IndexOf(lc.Name), schema.IndexOf(rc.Name)
	switch {
	case li < 0 || ri < 0:
	case li < split && ri >= split:
		return li, ri - split, true
	case ri < split && li >= split:
		return ri, li - split, true
	}
	return 0, 0, false
}
