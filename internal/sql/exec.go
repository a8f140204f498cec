package sql

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// DB is a named collection of base relations queries execute against.
type DB struct {
	tables map[string]*relation.Relation
	// subqueryRuns counts actual nested-statement executions (cache misses
	// included, cache hits not); exposed for tests and ablations.
	subqueryRuns int
	// DisablePushdown turns off predicate pushdown (see optimize.go); for
	// ablation benchmarks.
	DisablePushdown bool
}

// SubqueryRuns reports how many nested statements have actually executed
// on this DB since creation (memoised re-uses are not counted).
func (db *DB) SubqueryRuns() int { return db.subqueryRuns }

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: map[string]*relation.Relation{}} }

// Register installs (or replaces) a table under its relation name.
func (db *DB) Register(r *relation.Relation) { db.tables[strings.ToLower(r.Name)] = r }

// Table returns a registered table.
func (db *DB) Table(name string) (*relation.Relation, bool) {
	r, ok := db.tables[strings.ToLower(name)]
	return r, ok
}

// Names lists registered tables.
func (db *DB) Names() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	return out
}

// Query parses and executes one SELECT statement.
func (db *DB) Query(src string) (*relation.Relation, error) {
	stmt, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return db.Exec(stmt)
}

// Exec executes a parsed statement.
func (db *DB) Exec(stmt *SelectStmt) (*relation.Relation, error) {
	filters, residual := db.pushdown(stmt)
	src, err := db.evalFrom(stmt.From, &fromPlan{filters: filters, refs: pruneRefs(stmt)})
	if err != nil {
		return nil, err
	}
	if len(filters) > 0 {
		reduced := *stmt
		reduced.Where = residual
		return execOn(db, src, &reduced, nil)
	}
	return execOn(db, src, stmt, nil)
}

// source is the FROM result: a relation whose columns carry fully qualified
// names ("alias.col"); lookups resolve bare names by unique suffix match.
// cols, when non-nil, are rel's typed column vectors — the WHERE,
// select-item, window and aggregate fast paths evaluate batch programs
// against them. Join results always carry them; a lone table carries them
// when it is large enough (ColumnarThreshold) or already columnarized.
type source struct {
	rel  *relation.Relation
	cols []*relation.Col
}

// rowSet is a statement's working row set over its source: the positions
// of the surviving source rows (idx; nil means every row, in order). Boxed
// tuples materialize only when a row program asks for them.
type rowSet struct {
	src  *source
	idx  []int32
	n    int
	once sync.Once
	rows []relation.Tuple
}

// allRows is the row set of every source row.
func allRows(src *source) *rowSet { return &rowSet{src: src, n: src.rel.Len()} }

// tuples returns the set's rows, materializing them on first call. Chunk
// bodies may call it concurrently.
func (rs *rowSet) tuples() []relation.Tuple {
	rs.once.Do(func() {
		all := rs.src.rel.TupleRows()
		if rs.idx == nil {
			rs.rows = all
			return
		}
		rs.rows = make([]relation.Tuple, len(rs.idx))
		for i, ri := range rs.idx {
			rs.rows[i] = all[ri]
		}
	})
	return rs.rows
}

// batchResolve exposes the source's typed columns to the vectorized
// expression compiler under the source's name-resolution rules.
func (s *source) batchResolve(name string) (*relation.Col, bool) {
	if s.cols == nil {
		return nil, false
	}
	i, err := s.resolve(name)
	if err != nil {
		return nil, false
	}
	return s.cols[i], true
}

// resolve maps a (possibly qualified) name to a column index, insisting on
// uniqueness for bare names.
func (s *source) resolve(name string) (int, error) {
	if i := s.rel.Schema.IndexOf(name); i >= 0 {
		return i, nil
	}
	suffix := "." + strings.ToLower(name)
	found := -1
	for i, c := range s.rel.Schema {
		if strings.HasSuffix(strings.ToLower(c.Name), suffix) {
			if found >= 0 {
				return -1, fmt.Errorf("sql: ambiguous column %q", name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sql: unknown column %q", name)
	}
	return found, nil
}

// scope is one enclosing row of a nested statement: the layout the
// enclosing program resolves names through, the row it is evaluating, and
// the scope around that. Correlated names resolve innermost-first, then
// walk outward.
type scope struct {
	resolve expr.Resolver
	row     []value.Value
	outer   *scope
}

// lookup binds a name through the scope chain; a nil scope binds nothing.
func (sc *scope) lookup(name string) (value.Value, bool) {
	for ; sc != nil; sc = sc.outer {
		if i, ok := sc.resolve(name); ok {
			return sc.row[i], true
		}
	}
	return value.Null, false
}

// stmtExec is one execution of a SELECT body: the database, the enclosing
// row scope (nil at top level), and the subquery memo, which lives exactly
// as long as the execution. seq is set when the statement nests a
// subquery: the memo and the DB's run counter are not goroutine-safe, so
// its chunks run in order on one goroutine.
type stmtExec struct {
	db    *DB
	outer *scope
	subs  map[*expr.Subquery]*subState
	seq   bool
}

// compile compiles e against one of the statement's row layouts. Names the
// layout does not resolve bind to the enclosing scope, and subqueries run
// through the memo with the evaluated row as their enclosing scope.
func (x *stmtExec) compile(e expr.Expr, resolve expr.Resolver) *expr.Program {
	return expr.Compile(e, expr.Scope{
		Resolve: resolve,
		Outer:   x.outer.lookup,
		Subquery: func(sub *expr.Subquery, row []value.Value) (*relation.Relation, error) {
			return x.subquery(sub, &scope{resolve: resolve, row: row, outer: x.outer})
		},
	})
}

// chunks splits n rows (or groups) for the output loops: relation.Chunks,
// or one chunk when the statement must run sequentially.
func (x *stmtExec) chunks(n int) [][2]int {
	if x.seq && n > 0 {
		return [][2]int{{0, n}}
	}
	return relation.Chunks(n)
}

func (x *stmtExec) forChunks(n int, fn func(chunk, lo, hi int) error) error {
	return relation.RunChunks(x.chunks(n), fn)
}

// hasSubquery reports whether any expression of the statement body nests a
// subquery (FROM-clause subqueries are separate statements).
func hasSubquery(stmt *SelectStmt) bool {
	exprs := []expr.Expr{stmt.Where, stmt.Having}
	for _, it := range stmt.Items {
		exprs = append(exprs, it.Expr)
	}
	exprs = append(exprs, stmt.GroupBy...)
	for _, o := range stmt.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if e != nil && expr.ContainsSubquery(e) {
			return true
		}
	}
	return false
}

// subState memoises one subquery node for the lifetime of the enclosing
// statement execution: the materialised FROM sources (correlation is not
// allowed in FROM, so they never change) and, keyed by the values of the
// subquery's free variables, its full results. An uncorrelated subquery
// therefore executes exactly once; a correlated one executes once per
// distinct outer key instead of once per outer row.
type subState struct {
	src      *source
	freeVars []string
	cache    map[string]*relation.Relation
	disable  bool // nested subqueries inside: correlation keys could span scopes
}

// subquery runs a nested statement with sc as its enclosing scope,
// memoised per distinct correlation key.
func (x *stmtExec) subquery(sub *expr.Subquery, sc *scope) (*relation.Relation, error) {
	stmt, ok := sub.Stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: malformed subquery node")
	}
	st := x.subs[sub]
	if st == nil {
		src, err := x.db.evalFrom(stmt.From, &fromPlan{refs: pruneRefs(stmt)})
		if err != nil {
			return nil, err
		}
		st = &subState{src: src, cache: map[string]*relation.Relation{}}
		st.freeVars, st.disable = freeVars(stmt, src)
		x.subs[sub] = st
	}
	if st.disable {
		x.db.subqueryRuns++
		return execOn(x.db, st.src, stmt, sc)
	}
	var kb strings.Builder
	for _, name := range st.freeVars {
		v, ok := sc.lookup(name)
		if !ok {
			// Unresolvable name: let execution surface the real error.
			return execOn(x.db, st.src, stmt, sc)
		}
		kb.WriteString(v.Key())
		kb.WriteByte('\x1f')
	}
	key := kb.String()
	if res, ok := st.cache[key]; ok {
		return res, nil
	}
	x.db.subqueryRuns++
	res, err := execOn(x.db, st.src, stmt, sc)
	if err != nil {
		return nil, err
	}
	st.cache[key] = res
	return res, nil
}

// freeVars lists the column names a statement references that do not
// resolve against its own FROM sources or output aliases — its correlation
// variables. When the statement nests further subqueries, caching is
// disabled (their correlation could reach past this scope).
func freeVars(stmt *SelectStmt, src *source) (vars []string, disable bool) {
	bound := map[string]bool{}
	for _, it := range stmt.Items {
		if !it.Star {
			bound[strings.ToLower(it.Name())] = true
		}
	}
	seen := map[string]bool{}
	collect := func(e expr.Expr) {
		if e == nil {
			return
		}
		if expr.ContainsSubquery(e) {
			disable = true
			return
		}
		for _, c := range expr.Columns(e) {
			lc := strings.ToLower(c)
			if strings.HasPrefix(lc, "__agg_") || bound[lc] || seen[lc] {
				continue
			}
			if _, err := src.resolve(c); err == nil {
				continue
			}
			seen[lc] = true
			vars = append(vars, c)
		}
	}
	for _, it := range stmt.Items {
		if !it.Star {
			collect(it.Expr)
		}
	}
	collect(stmt.Where)
	for _, g := range stmt.GroupBy {
		collect(g)
	}
	collect(stmt.Having)
	for _, o := range stmt.OrderBy {
		collect(o.Expr)
	}
	return vars, disable
}

// evalFrom materialises a FROM tree, applying the plan's pushed-down
// per-alias filters as each source appears and carrying only the
// referenced columns of each base table when the plan prunes.
func (db *DB) evalFrom(f FromItem, plan *fromPlan) (*source, error) {
	switch t := f.(type) {
	case *TableRef:
		base, ok := db.Table(t.Name)
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", t.Name)
		}
		alias := t.Alias
		if alias == "" {
			alias = t.Name
		}
		src := qualify(base, alias, plan.refs)
		if err := applyFilter(src, plan.filters[strings.ToLower(alias)]); err != nil {
			return nil, err
		}
		return src, nil
	case *SubqueryRef:
		inner, err := db.Exec(t.Stmt)
		if err != nil {
			return nil, err
		}
		src := qualify(inner, t.Alias, nil)
		if err := applyFilter(src, plan.filters[strings.ToLower(t.Alias)]); err != nil {
			return nil, err
		}
		return src, nil
	case *JoinRef:
		left, err := db.evalFrom(t.Left, plan)
		if err != nil {
			return nil, err
		}
		right, err := db.evalFrom(t.Right, plan)
		if err != nil {
			return nil, err
		}
		return joinSources(left, right, t.On)
	}
	return nil, fmt.Errorf("sql: unsupported FROM item %T", f)
}

// qualify presents rel under alias, every column renamed to "alias.col".
// The result shares rel's rows and column vectors (Relation.Renamed); the
// typed columns ride along when worthwhile (typedCols). With refs non-nil
// (pruning, see optimize.go) only the columns a referenced name can resolve
// to are carried, as column vectors.
func qualify(rel *relation.Relation, alias string, refs []string) *source {
	cols := typedCols(rel)
	schema := make(relation.Schema, len(rel.Schema))
	for i, c := range rel.Schema {
		name := c.Name
		if j := strings.LastIndexByte(name, '.'); j >= 0 {
			name = name[j+1:]
		}
		schema[i] = relation.Column{Name: alias + "." + name, Kind: c.Kind}
	}
	out := rel.Renamed(alias, schema)
	if refs == nil {
		return &source{rel: out, cols: cols}
	}
	all := out.Columns()
	var kept relation.Schema
	var keptCols []*relation.Col
	for i, c := range schema {
		if referenced(c.Name, refs) {
			kept = append(kept, c)
			keptCols = append(keptCols, all[i])
		}
	}
	return &source{rel: relation.FromColumns(alias, kept, keptCols, out.Len()), cols: keptCols}
}

// typedCols returns the relation's typed columns when the columnar path is
// worthwhile: already built, or large enough to amortise the conversion.
// Renaming does not disturb the vectors, so qualified sources share the
// backing table's cache.
func typedCols(rel *relation.Relation) []*relation.Col {
	if cols := rel.CachedColumns(); cols != nil {
		return cols
	}
	if rel.Len() >= relation.ColumnarThreshold {
		return rel.Columns()
	}
	return nil
}

// joinSources computes left ⋈ right: the equi-hash-join kernel when the ON
// clause carries equality conjuncts, the theta pair scan otherwise. Either
// way the result is column-built (relation's join kernels), so the source
// it returns carries aligned typed columns. The ON predicate sees neither
// an enclosing scope nor subqueries, so it is pure and the kernel's
// parallel candidate probe is safe.
func joinSources(left, right *source, on expr.Expr) (*source, error) {
	schema := append(left.rel.Schema.Clone(), right.rel.Schema.Clone()...)
	seen := map[string]bool{}
	for _, c := range schema {
		k := strings.ToLower(c.Name)
		if seen[k] {
			return nil, fmt.Errorf("sql: duplicate source name %q; alias the tables", c.Name)
		}
		seen[k] = true
	}
	// Source names never collide (checked above), so the kernels' product
	// layout is exactly this concatenated schema.
	probe := &source{rel: relation.New(left.rel.Name+"_"+right.rel.Name, schema)}
	var onFn func(relation.Tuple) (bool, error)
	if on != nil {
		onFn = compileOn(on, probe)
	}
	var j *relation.Relation
	var err error
	if lk, rk, isKey := hashKeys(left, right, probe, on); len(lk) > 0 {
		var rest func(relation.Tuple) (bool, error)
		if re := expr.DropConjuncts(on, isKey); re != nil {
			rest = compileOn(re, probe)
		}
		j, err = left.rel.HashJoin(right.rel, lk, rk, onFn, rest)
	} else {
		j, err = left.rel.Join(right.rel, onFn)
	}
	if err != nil {
		return nil, err
	}
	j.Name = probe.rel.Name
	return &source{rel: j, cols: j.Columns()}, nil
}

// compileOn compiles a join predicate over the joined layout.
func compileOn(on expr.Expr, joined *source) func(relation.Tuple) (bool, error) {
	prog := expr.Compile(on, expr.Scope{Resolve: srcResolver(joined), Subquery: noSubqueries})
	return func(row relation.Tuple) (bool, error) { return prog.EvalBool(row) }
}

// noSubqueries is the subquery hook of contexts that support none.
func noSubqueries(*expr.Subquery, []value.Value) (*relation.Relation, error) {
	return nil, errNoSubqueries
}

var errNoSubqueries = errors.New("sql: subqueries are not supported in this context")

// hashKeys extracts column-index pairs for top-level AND-ed equality
// conjuncts of the form leftCol = rightCol. isKey selects the conjuncts
// that the joined layout resolves to exactly their pair, which the join
// kernel may treat as proven by its hash; a bare name unique on one side
// but ambiguous across both keys the hash yet stays in the predicate, so
// it fails on the candidates just as the full predicate does.
func hashKeys(left, right, joined *source, on expr.Expr) (lk, rk []int, isKey func(expr.Expr) bool) {
	if on == nil {
		return nil, nil, nil
	}
	wl := len(left.rel.Schema)
	keys := map[expr.Expr]bool{}
	at := func(name string) int {
		i, err := joined.resolve(name)
		if err != nil {
			return -1
		}
		return i
	}
	for _, c := range conjuncts(on) {
		b, ok := c.(*expr.Binary)
		if !ok || b.Op != expr.OpEq {
			continue
		}
		lc, lok := b.L.(*expr.ColumnRef)
		rc, rok := b.R.(*expr.ColumnRef)
		if !lok || !rok {
			continue
		}
		if li, ri, ok := sidePair(left, right, lc.Name, rc.Name); ok {
			lk, rk = append(lk, li), append(rk, ri)
			keys[c] = at(lc.Name) == li && at(rc.Name) == wl+ri
		} else if li, ri, ok := sidePair(left, right, rc.Name, lc.Name); ok {
			// Reversed orientation: right = left.
			lk, rk = append(lk, li), append(rk, ri)
			keys[c] = at(rc.Name) == li && at(lc.Name) == wl+ri
		}
	}
	return lk, rk, func(e expr.Expr) bool { return keys[e] }
}

// sidePair resolves l against the left source and r against the right.
func sidePair(left, right *source, l, r string) (li, ri int, ok bool) {
	li, lerr := left.resolve(l)
	ri, rerr := right.resolve(r)
	return li, ri, lerr == nil && rerr == nil
}

// execOn runs the SELECT body against a materialised source, with outer as
// the enclosing row scope of a correlated subquery (nil at top level).
func execOn(db *DB, src *source, stmt *SelectStmt, outer *scope) (*relation.Relation, error) {
	x := &stmtExec{db: db, outer: outer, subs: map[*expr.Subquery]*subState{}, seq: hasSubquery(stmt)}
	// WHERE. The row set starts as every source row; filtering keeps the
	// surviving source-row positions, so downstream batch programs keep
	// reading the source's typed vectors through the indirection, and boxed
	// rows materialize only for the row programs that need them.
	rs := allRows(src)
	if stmt.Where != nil {
		if expr.ContainsAggregate(stmt.Where) {
			return nil, fmt.Errorf("sql: aggregates are not allowed in WHERE")
		}
		if expr.ContainsWindow(stmt.Where) {
			return nil, fmt.Errorf("sql: window functions are not allowed in WHERE")
		}
		var err error
		if rs, err = x.filterRows(src, stmt.Where, rs); err != nil {
			return nil, err
		}
	}

	grouped := len(stmt.GroupBy) > 0 || stmt.Having != nil || hasAggregates(stmt)
	if hasWindows(stmt) {
		if grouped {
			return nil, fmt.Errorf("sql: window functions cannot be combined with GROUP BY, HAVING or aggregates")
		}
		var werr error
		src, rs, stmt, werr = x.applyWindows(src, stmt, rs)
		if werr != nil {
			return nil, werr
		}
	}
	var out *relation.Relation
	var sortVals [][]value.Value
	var err error
	if grouped {
		out, sortVals, err = x.execGrouped(src, stmt, rs)
	} else {
		out, sortVals, err = x.execPlain(src, stmt, rs)
	}
	if err != nil {
		return nil, err
	}

	if stmt.Distinct {
		out, sortVals = distinctRows(out, sortVals)
	}
	if len(stmt.OrderBy) > 0 {
		sortOutput(out, sortVals, stmt.OrderBy)
	}
	if stmt.Offset > 0 {
		if stmt.Offset >= out.Len() {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[stmt.Offset:]
		}
	}
	if stmt.Limit >= 0 && stmt.Limit < out.Len() {
		out.Rows = out.Rows[:stmt.Limit]
	}
	return out, nil
}

func hasAggregates(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if !it.Star && expr.ContainsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range stmt.OrderBy {
		if expr.ContainsAggregate(o.Expr) {
			return true
		}
	}
	return stmt.Having != nil && expr.ContainsAggregate(stmt.Having)
}

// execPlain projects without grouping. It returns the output relation plus,
// for each row, the evaluated ORDER BY key values.
func (x *stmtExec) execPlain(src *source, stmt *SelectStmt, rs *rowSet) (*relation.Relation, [][]value.Value, error) {
	items, err := expandStars(src, stmt.Items)
	if err != nil {
		return nil, nil, err
	}
	schema, err := outputSchema(src, items)
	if err != nil {
		return nil, nil, err
	}
	execPlainCompiled.Inc()
	return x.plainOutput(src, stmt, items, schema, rs)
}

// execGrouped evaluates GROUP BY / aggregate queries. When the source
// carries typed columns, column-reference aggregate arguments run the typed
// grouped-aggregation kernel over their payloads through the row set's
// source positions.
func (x *stmtExec) execGrouped(src *source, stmt *SelectStmt, rs *rowSet) (*relation.Relation, [][]value.Value, error) {
	for _, it := range stmt.Items {
		if it.Star {
			return nil, nil, fmt.Errorf("sql: * is not allowed with GROUP BY or aggregates")
		}
	}
	// Group rows by the GROUP BY expression values.
	groups, gr, err := x.buildRowGroups(src, stmt, rs.tuples())
	if err != nil {
		return nil, nil, err
	}

	// Collect every aggregate call appearing in the statement.
	aggs, rewritten, having, orderBy, err := liftAggregates(stmt)
	if err != nil {
		return nil, nil, err
	}

	// Validate that non-aggregate expressions only reference columns that
	// feed some GROUP BY expression (a practical approximation of the SQL
	// functional-dependency rule; DESIGN.md documents the looseness).
	groupCols := map[string]bool{}
	for _, g := range stmt.GroupBy {
		for _, c := range expr.Columns(g) {
			groupCols[strings.ToLower(c)] = true
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				groupCols[strings.ToLower(c[i+1:])] = true
			}
		}
	}
	checkGrouped := func(e expr.Expr, where string) error {
		for _, c := range expr.Columns(e) {
			if strings.HasPrefix(c, "__agg_") {
				continue
			}
			bare := c
			if i := strings.LastIndexByte(c, '.'); i >= 0 {
				bare = c[i+1:]
			}
			if !groupCols[strings.ToLower(c)] && !groupCols[strings.ToLower(bare)] {
				return fmt.Errorf("sql: column %q in %s must appear in GROUP BY or inside an aggregate", c, where)
			}
		}
		return nil
	}
	items := rewritten
	for _, it := range items {
		if err := checkGrouped(it.Expr, "select list"); err != nil {
			return nil, nil, err
		}
	}
	if having != nil {
		if err := checkGrouped(having, "HAVING"); err != nil {
			return nil, nil, err
		}
	}
	aliases := map[string]bool{}
	for _, it := range stmt.Items {
		aliases[strings.ToLower(it.Name())] = true
	}
	for _, o := range orderBy {
		// An ORDER BY key naming an output column resolves against the
		// produced row, not the source; exempt it from the grouping check.
		if c, ok := o.Expr.(*expr.ColumnRef); ok && aliases[strings.ToLower(c.Name)] {
			continue
		}
		if err := checkGrouped(o.Expr, "ORDER BY"); err != nil {
			return nil, nil, err
		}
	}
	schema, err := groupedSchema(src, stmt, items, aggs)
	if err != nil {
		return nil, nil, err
	}
	execGroupedCompiled.Inc()
	return x.groupOutput(src, groups, gr, aggs, items, having, orderBy, schema, rs)
}

// liftedAgg is one distinct aggregate call lifted out of the statement.
type liftedAgg struct {
	fn   relation.AggFunc
	arg  expr.Expr
	star bool
	sql  string
}

func aggPlaceholder(i int) string { return fmt.Sprintf("__agg_%d", i) }

// liftAggregates replaces every aggregate call in the select list, HAVING
// and ORDER BY with a placeholder column reference and returns the distinct
// aggregate definitions.
func liftAggregates(stmt *SelectStmt) (aggs []liftedAgg, items []SelectItem, having expr.Expr, orderBy []OrderItem, err error) {
	index := map[string]int{}
	var lift func(e expr.Expr) (expr.Expr, error)
	lift = func(e expr.Expr) (expr.Expr, error) {
		if f, ok := e.(*expr.FuncCall); ok && expr.AggregateNames[f.Name] {
			if len(f.Args) != 1 {
				return nil, fmt.Errorf("sql: %s expects exactly one argument", f.Name)
			}
			if expr.ContainsAggregate(f.Args[0]) {
				return nil, fmt.Errorf("sql: nested aggregates are not allowed")
			}
			key := e.SQL()
			i, ok := index[key]
			if !ok {
				i = len(aggs)
				index[key] = i
				la := liftedAgg{sql: key}
				switch f.Name {
				case "COUNT":
					la.fn = relation.AggCount
				case "COUNT_DISTINCT":
					la.fn = relation.AggCountDistinct
				default:
					la.fn = relation.AggFunc(f.Name)
				}
				if _, isStar := f.Args[0].(*expr.Star); isStar {
					if f.Name != "COUNT" {
						return nil, fmt.Errorf("sql: only COUNT accepts *")
					}
					la.star = true
				} else {
					la.arg = f.Args[0]
				}
				aggs = append(aggs, la)
			}
			return &expr.ColumnRef{Name: aggPlaceholder(i)}, nil
		}
		return rebuild(e, lift)
	}
	for _, it := range stmt.Items {
		ne, err := lift(it.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		items = append(items, SelectItem{Expr: ne, Alias: it.Alias})
	}
	if stmt.Having != nil {
		having, err = lift(stmt.Having)
		if err != nil {
			return nil, nil, nil, nil, err
		}
	}
	for _, o := range stmt.OrderBy {
		ne, err := lift(o.Expr)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		orderBy = append(orderBy, OrderItem{Expr: ne, Desc: o.Desc})
	}
	return aggs, items, having, orderBy, nil
}

// rebuild clones a node with each child passed through fn.
func rebuild(e expr.Expr, fn func(expr.Expr) (expr.Expr, error)) (expr.Expr, error) {
	switch n := e.(type) {
	case *expr.Literal, *expr.ColumnRef, *expr.Star, *expr.Subquery, *expr.Exists:
		// Subquery bodies are self-contained statements: aggregates inside
		// them belong to the inner scope and are lifted when it executes.
		return e, nil
	case *expr.InSubquery:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.InSubquery{X: x, Sub: n.Sub, Negate: n.Negate}, nil
	case *expr.Unary:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.Unary{Op: n.Op, X: x}, nil
	case *expr.Binary:
		l, err := fn(n.L)
		if err != nil {
			return nil, err
		}
		r, err := fn(n.R)
		if err != nil {
			return nil, err
		}
		return &expr.Binary{Op: n.Op, L: l, R: r}, nil
	case *expr.IsNull:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{X: x, Negate: n.Negate}, nil
	case *expr.InList:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(n.Items))
		for i, it := range n.Items {
			items[i], err = fn(it)
			if err != nil {
				return nil, err
			}
		}
		return &expr.InList{X: x, Items: items, Negate: n.Negate}, nil
	case *expr.Between:
		x, err := fn(n.X)
		if err != nil {
			return nil, err
		}
		lo, err := fn(n.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := fn(n.Hi)
		if err != nil {
			return nil, err
		}
		return &expr.Between{X: x, Lo: lo, Hi: hi, Negate: n.Negate}, nil
	case *expr.FuncCall:
		args := make([]expr.Expr, len(n.Args))
		var err error
		for i, a := range n.Args {
			args[i], err = fn(a)
			if err != nil {
				return nil, err
			}
		}
		return &expr.FuncCall{Name: n.Name, Args: args}, nil
	case *expr.WindowCall:
		out := &expr.WindowCall{Func: n.Func, Frame: n.Frame}
		var err error
		if n.Arg != nil {
			if out.Arg, err = fn(n.Arg); err != nil {
				return nil, err
			}
		}
		out.PartitionBy = make([]expr.Expr, len(n.PartitionBy))
		for i, p := range n.PartitionBy {
			if out.PartitionBy[i], err = fn(p); err != nil {
				return nil, err
			}
		}
		out.OrderBy = make([]expr.WindowOrder, len(n.OrderBy))
		for i, o := range n.OrderBy {
			x, err := fn(o.X)
			if err != nil {
				return nil, err
			}
			out.OrderBy[i] = expr.WindowOrder{X: x, Desc: o.Desc}
		}
		return out, nil
	}
	return nil, fmt.Errorf("sql: cannot rebuild %T", e)
}

// expandStars replaces * items with one item per source column.
func expandStars(src *source, items []SelectItem) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range src.rel.Schema {
			name := c.Name
			out = append(out, SelectItem{Expr: &expr.ColumnRef{Name: name}})
		}
	}
	return out, nil
}

// outputSchema infers result column kinds for ungrouped projections.
func outputSchema(src *source, items []SelectItem) (relation.Schema, error) {
	resolve := func(name string) (value.Kind, bool) {
		i, err := src.resolve(name)
		if err != nil {
			return value.KindNull, false
		}
		return src.rel.Schema[i].Kind, true
	}
	schema := make(relation.Schema, len(items))
	for i, it := range items {
		k, err := expr.Check(it.Expr, resolve)
		if err != nil {
			return nil, err
		}
		if k == value.KindNull {
			k = value.KindString
		}
		schema[i] = relation.Column{Name: it.Name(), Kind: k}
	}
	return schema, nil
}

// groupedSchema infers result kinds when placeholders stand in for lifted
// aggregates.
func groupedSchema(src *source, stmt *SelectStmt, items []SelectItem, aggs []liftedAgg) (relation.Schema, error) {
	resolve := func(name string) (value.Kind, bool) {
		if strings.HasPrefix(name, "__agg_") {
			var i int
			fmt.Sscanf(name, "__agg_%d", &i)
			if i < len(aggs) {
				a := aggs[i]
				in := value.KindInt
				if a.arg != nil {
					k, err := expr.Check(a.arg, func(n string) (value.Kind, bool) {
						j, err := src.resolve(n)
						if err != nil {
							return value.KindNull, false
						}
						return src.rel.Schema[j].Kind, true
					})
					if err == nil {
						in = k
					}
				}
				return a.fn.ResultKind(in), true
			}
		}
		j, err := src.resolve(name)
		if err != nil {
			return value.KindNull, false
		}
		return src.rel.Schema[j].Kind, true
	}
	schema := make(relation.Schema, len(items))
	origNames := stmt.Items
	for i, it := range items {
		k, err := expr.Check(it.Expr, resolve)
		if err != nil {
			return nil, err
		}
		if k == value.KindNull {
			k = value.KindString
		}
		name := it.Alias
		if name == "" {
			name = origNames[i].Name()
		}
		schema[i] = relation.Column{Name: name, Kind: k}
	}
	return schema, nil
}

// sortOutput stably sorts the output rows by the precomputed keys, through
// the relation layer's keyed parallel sort kernel.
func sortOutput(out *relation.Relation, sortVals [][]value.Value, orderBy []OrderItem) {
	n, k := len(out.Rows), len(orderBy)
	if n < 2 || k == 0 {
		return
	}
	flat := make([]value.Value, n*k)
	desc := make([]bool, k)
	for i := range orderBy {
		desc[i] = orderBy[i].Desc
	}
	for i, keys := range sortVals {
		copy(flat[i*k:(i+1)*k], keys)
	}
	perm := relation.SortPermByKeys(flat, k, desc)
	rows := make([]relation.Tuple, n)
	for i, p := range perm {
		rows[i] = out.Rows[p]
	}
	out.Rows = rows
}

// distinctRows dedupes output rows, keeping the parallel sort keys aligned.
func distinctRows(out *relation.Relation, sortVals [][]value.Value) (*relation.Relation, [][]value.Value) {
	gr := relation.GroupRowsOn(out.Rows, nil)
	res := relation.New(out.Name, out.Schema)
	res.Rows = make([]relation.Tuple, gr.NumGroups())
	var keys [][]value.Value
	if sortVals != nil {
		keys = make([][]value.Value, gr.NumGroups())
	}
	for g, ri := range gr.First {
		res.Rows[g] = out.Rows[ri]
		if sortVals != nil {
			keys[g] = sortVals[ri]
		}
	}
	return res, keys
}

// widen coerces exact-integer results into float-typed output columns.
func widen(v value.Value, kind value.Kind) value.Value {
	if kind == value.KindFloat && v.Kind() == value.KindInt {
		return value.NewFloat(float64(v.Int()))
	}
	return v
}
