package sql

import (
	"strings"

	"sheetmusiq/internal/expr"
)

// This file implements the FROM-tree rewrites of a join statement.
//
// Predicate pushdown: WHERE conjuncts whose columns all come from a single
// FROM source are applied while that source is materialised, before any
// join touches it. With inner joins only, pushing a single-source filter
// below the join is an identity on the result — including row order,
// because both the hash and nested-loop joins emit surviving left rows in
// input order. DB.DisablePushdown turns the rewrite off;
// BenchmarkAblationPushdown quantifies the difference on the study's
// multi-join views.
//
// Column pruning: when a join statement has no * item and no subquery,
// each base table enters the join tree carrying only the columns some name
// in the statement can resolve to — its bare name or its qualified name,
// by the executor's own matching rule (source.resolve: exact, or a "."
// suffix). Every name therefore resolves, is ambiguous, or is unknown
// exactly as it would be over the full tables, and the error messages stay
// byte-identical. Pruning is skipped when two sources share an alias, so
// the duplicate-name check sees the full schemas. A subquery could bind the
// pruned columns as its outer scope, and * would expand them, hence those
// two exclusions.

// fromPlan is what this file derives for one statement's FROM tree: the
// pushed-down WHERE conjuncts per alias, and the statement's referenced
// names when its base tables may be pruned (nil otherwise).
type fromPlan struct {
	filters map[string][]expr.Expr
	refs    []string
}

// conjuncts flattens top-level ANDs.
func conjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.Binary); ok && b.Op == expr.OpAnd {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

func conjoin(es []expr.Expr) expr.Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = &expr.Binary{Op: expr.OpAnd, L: out, R: e}
	}
	return out
}

// sourceColumns maps each FROM alias to the lowercase column names it
// produces, statically (no data access).
func (db *DB) sourceColumns(f FromItem, out map[string]map[string]bool) {
	switch t := f.(type) {
	case *TableRef:
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		cols := map[string]bool{}
		if base, ok := db.Table(t.Name); ok {
			for _, c := range base.Schema {
				cols[strings.ToLower(c.Name)] = true
			}
		}
		out[strings.ToLower(alias)] = cols
	case *SubqueryRef:
		cols := map[string]bool{}
		for _, it := range t.Stmt.Items {
			if it.Star {
				// Star output depends on the inner sources; give up on
				// pushing into this alias.
				return
			}
			cols[strings.ToLower(it.Name())] = true
		}
		out[strings.ToLower(t.Alias)] = cols
	case *JoinRef:
		db.sourceColumns(t.Left, out)
		db.sourceColumns(t.Right, out)
	}
}

// homeAlias finds the single source that covers every column the conjunct
// references, or "" when none (cross-source, unresolved, or ambiguous).
func homeAlias(e expr.Expr, sources map[string]map[string]bool) string {
	if expr.ContainsSubquery(e) || expr.ContainsAggregate(e) || expr.ContainsWindow(e) {
		return ""
	}
	home := ""
	for _, ref := range expr.Columns(e) {
		lower := strings.ToLower(ref)
		var candidates []string
		if i := strings.LastIndexByte(lower, '.'); i >= 0 {
			alias, col := lower[:i], lower[i+1:]
			if cols, ok := sources[alias]; ok && cols[col] {
				candidates = []string{alias}
			}
		} else {
			for alias, cols := range sources {
				if cols[lower] {
					candidates = append(candidates, alias)
				}
			}
		}
		if len(candidates) != 1 {
			return ""
		}
		if home == "" {
			home = candidates[0]
		} else if home != candidates[0] {
			return ""
		}
	}
	return home
}

// pushdown splits the WHERE clause into per-alias filters plus a residual
// predicate. Joins must all be inner (they are — the grammar has no OUTER).
func (db *DB) pushdown(stmt *SelectStmt) (filters map[string][]expr.Expr, residual expr.Expr) {
	if db.DisablePushdown || stmt.Where == nil {
		return nil, stmt.Where
	}
	if _, isJoin := stmt.From.(*JoinRef); !isJoin {
		// A single source gains nothing: WHERE already runs on the scan.
		return nil, stmt.Where
	}
	sources := map[string]map[string]bool{}
	db.sourceColumns(stmt.From, sources)
	if len(sources) == 0 {
		return nil, stmt.Where
	}
	filters = map[string][]expr.Expr{}
	var rest []expr.Expr
	for _, c := range conjuncts(stmt.Where) {
		if home := homeAlias(c, sources); home != "" {
			filters[home] = append(filters[home], c)
			continue
		}
		rest = append(rest, c)
	}
	if len(filters) == 0 {
		return nil, stmt.Where
	}
	return filters, conjoin(rest)
}

// applyFilter filters a freshly materialised source in place, through the
// statement WHERE path (batch over typed columns when it can). Pushed-down
// conjuncts reference only that source's columns and never nest a
// subquery (homeAlias), so they run with no enclosing scope. The kept rows
// stay in the source's representation: a column-built source stays
// column-built.
func applyFilter(src *source, preds []expr.Expr) error {
	if len(preds) == 0 {
		return nil
	}
	kept, err := (&stmtExec{}).filterRows(src, conjoin(preds), allRows(src))
	if err != nil {
		return err
	}
	src.rel = src.rel.Gather(kept.idx)
	src.cols = src.rel.CachedColumns()
	return nil
}

// pruneRefs returns the lower-cased column names a join statement
// references — select items, WHERE, GROUP BY, HAVING, ORDER BY and every
// ON clause — or nil when its base tables must enter whole: a lone source,
// a * item, a subquery anywhere, or an alias used twice.
func pruneRefs(stmt *SelectStmt) []string {
	join, ok := stmt.From.(*JoinRef)
	if !ok || hasSubquery(stmt) {
		return nil
	}
	exprs := []expr.Expr{stmt.Where, stmt.Having}
	for _, it := range stmt.Items {
		if it.Star {
			return nil
		}
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, stmt.GroupBy...)
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	aliases := map[string]bool{}
	var walk func(f FromItem) bool
	walk = func(f FromItem) bool {
		alias := ""
		switch t := f.(type) {
		case *TableRef:
			alias = t.Alias
			if alias == "" {
				alias = t.Name
			}
		case *SubqueryRef:
			alias = t.Alias
		case *JoinRef:
			exprs = append(exprs, t.On)
			return walk(t.Left) && walk(t.Right)
		}
		alias = strings.ToLower(alias)
		if aliases[alias] {
			return false
		}
		aliases[alias] = true
		return true
	}
	if !walk(join) {
		return nil
	}
	refs := []string{}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if expr.ContainsSubquery(e) {
			return nil
		}
		for _, c := range expr.Columns(e) {
			refs = append(refs, strings.ToLower(c))
		}
	}
	return refs
}

// referenced reports whether some referenced name resolves to (or makes
// ambiguous) the qualified column: an exact match, or a "." suffix match.
func referenced(qualified string, refs []string) bool {
	q := strings.ToLower(qualified)
	for _, r := range refs {
		if strings.EqualFold(qualified, r) || strings.HasSuffix(q, "."+r) {
			return true
		}
	}
	return false
}
