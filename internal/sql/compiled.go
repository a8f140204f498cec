package sql

import (
	"errors"
	"strconv"
	"strings"

	"sheetmusiq/internal/expr"
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
	"sheetmusiq/internal/value"
)

// Executor-path metrics, one increment per statement: which output loop
// ran, and how often chunked aggregate accumulation was kept sequential
// because the merge would not be bit-identical (relation.MergeExact).
var (
	execPlainCompiled   = obs.Default.Counter("sql.exec.plain_compiled")
	execGroupedCompiled = obs.Default.Counter("sql.exec.grouped_compiled")
	execMergeFallback   = obs.Default.Counter("sql.exec.merge_fallback")
)

// This file holds the executor's output loops. Each statement execution
// compiles its row expressions once — WHERE predicates, GROUP BY keys,
// aggregate arguments, HAVING, select items and ORDER BY keys — in its own
// scope (stmtExec.compile), so the per-row work is a closure call over a
// positional tuple, and then chunks the row (or group) range. Chunks run in
// parallel unless the statement nests a subquery: the per-statement
// subquery memo and the DB's run counter are not goroutine-safe, so such a
// statement runs its chunks in order on one goroutine (stmtExec.chunks).

// srcResolver resolves names against the source's qualified row layout.
func srcResolver(src *source) expr.Resolver {
	return func(name string) (int, bool) {
		i, err := src.resolve(name)
		if err != nil {
			return 0, false
		}
		return i, true
	}
}

// aggSlot parses a lifted-aggregate placeholder name ("__agg_3") into its
// index.
func aggSlot(name string) (int, bool) {
	l := strings.ToLower(name)
	if !strings.HasPrefix(l, "__agg_") {
		return 0, false
	}
	i, err := strconv.Atoi(l[len("__agg_"):])
	if err != nil || i < 0 {
		return 0, false
	}
	return i, true
}

// extResolver resolves names against the extended grouped row layout: the
// source columns followed by one slot per lifted aggregate, where the
// synthetic aggregate bindings win.
func extResolver(src *source, nAggs int) expr.Resolver {
	n := len(src.rel.Schema)
	return func(name string) (int, bool) {
		if i, ok := aggSlot(name); ok && i < nAggs {
			return n + i, true
		}
		if i, err := src.resolve(name); err == nil {
			return i, true
		}
		return 0, false
	}
}

// filterRows applies the WHERE predicate over the source rows, which are
// the full source row set in base-row order. Each chunk compacts its
// survivors' positions into its own prefix of a fresh index vector and the
// kept runs concatenate in chunk order, reproducing the sequential multiset
// order exactly; the rows belong to a registered base table, so they are
// never compacted in place. When the rows align with the source's typed
// columns and the predicate batch-compiles, each chunk's survivors come
// from a batch selection over the column vectors; a chunk whose window
// would error re-runs through the row program, which reproduces the exact
// error. The surviving base-row indexes are returned beside the rows for
// downstream batch programs.
func (x *stmtExec) filterRows(src *source, pred expr.Expr, rows []relation.Tuple, aligned bool) ([]relation.Tuple, []int32, error) {
	prog := x.compile(pred, srcResolver(src))
	var bp *expr.BatchProgram
	if aligned {
		bp, _ = expr.CompileBatch(pred, src.batchResolve)
	}
	n := len(rows)
	dst := make([]int32, n)
	bounds := x.chunks(n)
	counts := make([]int, len(bounds))
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		if bp != nil {
			if cnt, ok := bp.SelectInto(nil, lo, hi, dst[lo:]); ok {
				counts[c] = cnt
				return nil
			}
		}
		w := lo
		for i := lo; i < hi; i++ {
			ok, err := prog.EvalBool(rows[i])
			if err != nil {
				return err
			}
			if ok {
				dst[w] = int32(i)
				w++
			}
		}
		counts[c] = w - lo
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	w := 0
	if len(bounds) > 0 {
		w = counts[0]
		for c := 1; c < len(bounds); c++ {
			lo := bounds[c][0]
			copy(dst[w:], dst[lo:lo+counts[c]])
			w += counts[c]
		}
	}
	idx := dst[:w:w]
	kept := make([]relation.Tuple, w)
	for i, ri := range idx {
		kept[i] = rows[ri]
	}
	return kept, idx, nil
}

// orderRef is one compiled ORDER BY key: either a projection of the output
// tuple (an output-alias reference) or a program over the evaluation row.
type orderRef struct {
	outCol int
	prog   *expr.Program
}

// compileOrderRefs compiles the ORDER BY keys. A bare name that is an
// output column resolves against the produced tuple; anything else
// compiles against the evaluation row layout.
func (x *stmtExec) compileOrderRefs(orderBy []OrderItem, schema relation.Schema, resolve expr.Resolver) []orderRef {
	refs := make([]orderRef, len(orderBy))
	for i, o := range orderBy {
		if c, ok := o.Expr.(*expr.ColumnRef); ok {
			if j := schema.IndexOf(c.Name); j >= 0 {
				refs[i] = orderRef{outCol: j}
				continue
			}
		}
		refs[i] = orderRef{outCol: -1, prog: x.compile(o.Expr, resolve)}
	}
	return refs
}

// evalOrderRefs produces one row's sort keys from the compiled refs.
func evalOrderRefs(refs []orderRef, tuple relation.Tuple, row []value.Value) ([]value.Value, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	keys := make([]value.Value, len(refs))
	for i, r := range refs {
		if r.prog == nil {
			keys[i] = tuple[r.outCol]
			continue
		}
		v, err := r.prog.Eval(row)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// plainOutput is execPlain's output loop: every item and ORDER BY key
// compiled once, output slots pre-sized so chunks write disjoint indexes.
// When the rows still align with the source's typed columns (idx holds
// their base-row indexes; nil means identity) and every item
// batch-compiles, the items fill positional value vectors straight from the
// column payloads; a chunk whose window would error re-runs through the row
// programs, which reproduce the exact error.
func (x *stmtExec) plainOutput(src *source, stmt *SelectStmt, items []SelectItem, schema relation.Schema, rows []relation.Tuple, idx []int32, aligned bool) (*relation.Relation, [][]value.Value, error) {
	resolve := srcResolver(src)
	itemProgs := make([]*expr.Program, len(items))
	for i, it := range items {
		itemProgs[i] = x.compile(it.Expr, resolve)
	}
	out := relation.New("result", schema)
	refs := x.compileOrderRefs(stmt.OrderBy, out.Schema, resolve)
	var bps []*expr.BatchProgram
	var itemVals [][]value.Value
	if aligned {
		bps = make([]*expr.BatchProgram, len(items))
		for i, it := range items {
			if bps[i], _ = expr.CompileBatch(it.Expr, src.batchResolve); bps[i] == nil {
				bps = nil
				break
			}
		}
		if bps != nil {
			itemVals = make([][]value.Value, len(items))
			for i := range itemVals {
				itemVals[i] = make([]value.Value, len(rows))
			}
		}
	}
	out.Rows = make([]relation.Tuple, len(rows))
	sortVals := make([][]value.Value, len(rows))
	err := x.forChunks(len(rows), func(_, lo, hi int) error {
		if bps != nil {
			ok := true
			for i := range bps {
				if !bps[i].EvalPos(idx, lo, hi, schema[i].Kind, itemVals[i]) {
					ok = false
					break
				}
			}
			if ok {
				flat := make([]value.Value, (hi-lo)*len(items))
				for ri := lo; ri < hi; ri++ {
					tuple := flat[(ri-lo)*len(items) : (ri-lo+1)*len(items) : (ri-lo+1)*len(items)]
					for i := range items {
						tuple[i] = itemVals[i][ri]
					}
					out.Rows[ri] = tuple
					keys, err := evalOrderRefs(refs, tuple, rows[ri])
					if err != nil {
						return err
					}
					sortVals[ri] = keys
				}
				return nil
			}
		}
		for ri := lo; ri < hi; ri++ {
			tuple := make(relation.Tuple, len(items))
			for i, p := range itemProgs {
				v, err := p.Eval(rows[ri])
				if err != nil {
					return err
				}
				tuple[i] = widen(v, schema[i].Kind)
			}
			out.Rows[ri] = tuple
			keys, err := evalOrderRefs(refs, tuple, rows[ri])
			if err != nil {
				return err
			}
			sortVals[ri] = keys
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, sortVals, nil
}

// rowGroup is one GROUP BY partition in first-appearance order.
type rowGroup struct {
	key  []value.Value
	rows []relation.Tuple
}

// buildRowGroups partitions the filtered rows by the GROUP BY expression
// values: the per-row key tuples are computed in chunks and grouped by the
// batch hash kernel, first-appearance order preserved. An aggregate query
// without GROUP BY yields one group even over empty input. The returned
// Grouping maps each row of rows to its group ID, groups[g] holding the
// rows of ID g; the typed aggregate kernel in groupOutput consumes it
// directly.
func (x *stmtExec) buildRowGroups(src *source, stmt *SelectStmt, rows []relation.Tuple) ([]*rowGroup, *relation.Grouping, error) {
	nG := len(stmt.GroupBy)
	if nG == 0 {
		// Ungrouped aggregate: one group holding every row, even over empty
		// input.
		gr := &relation.Grouping{IDs: make([]int32, len(rows)), First: []int32{0}}
		return []*rowGroup{{rows: rows}}, gr, nil
	}
	progs := make([]*expr.Program, nG)
	for i, g := range stmt.GroupBy {
		progs[i] = x.compile(g, srcResolver(src))
	}
	keyVals := make([]relation.Tuple, len(rows))
	err := x.forChunks(len(rows), func(_, lo, hi int) error {
		for ri := lo; ri < hi; ri++ {
			key := make(relation.Tuple, nG)
			for i, p := range progs {
				v, err := p.Eval(rows[ri])
				if err != nil {
					return err
				}
				key[i] = v
			}
			keyVals[ri] = key
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	gr := relation.GroupRowsOn(keyVals, nil)
	counts := make([]int, gr.NumGroups())
	for _, gid := range gr.IDs {
		counts[gid]++
	}
	groups := make([]*rowGroup, gr.NumGroups())
	for g, ri := range gr.First {
		groups[g] = &rowGroup{key: keyVals[ri], rows: make([]relation.Tuple, 0, counts[g])}
	}
	for ri, gid := range gr.IDs {
		groups[gid].rows = append(groups[gid].rows, rows[ri])
	}
	return groups, gr, nil
}

// accumulateGroup computes every lifted aggregate over one group's rows. A
// nil program marks COUNT(*). With chunking enabled (the single-group case,
// where cross-group parallelism has nothing to chew on) the rows split into
// chunks whose partial accumulators merge in chunk order.
func accumulateGroup(aggs []liftedAgg, aggProgs []*expr.Program, rows []relation.Tuple, chunked bool) ([]value.Value, error) {
	accumulate := func(lo, hi int) ([]*relation.Accumulator, error) {
		accs := make([]*relation.Accumulator, len(aggs))
		for i, a := range aggs {
			accs[i] = relation.NewAccumulator(a.fn)
		}
		for ri := lo; ri < hi; ri++ {
			for ai, a := range aggs {
				v := value.NewInt(1)
				if !a.star {
					var err error
					v, err = aggProgs[ai].Eval(rows[ri])
					if err != nil {
						return nil, err
					}
				}
				if err := accs[ai].Add(v); err != nil {
					return nil, err
				}
			}
		}
		return accs, nil
	}
	var accs []*relation.Accumulator
	bounds := relation.Chunks(len(rows))
	if !chunked || len(bounds) <= 1 {
		var err error
		accs, err = accumulate(0, len(rows))
		if err != nil {
			return nil, err
		}
	} else {
		parts := make([][]*relation.Accumulator, len(bounds))
		err := relation.RunChunks(bounds, func(c, lo, hi int) error {
			a, err := accumulate(lo, hi)
			if err != nil {
				return err
			}
			parts[c] = a
			return nil
		})
		if err != nil {
			return nil, err
		}
		accs = parts[0]
		for _, p := range parts[1:] {
			for ai := range accs {
				accs[ai].Merge(p[ai])
			}
		}
	}
	results := make([]value.Value, len(aggs))
	for ai, acc := range accs {
		results[ai] = acc.Result()
	}
	return results, nil
}

// groupOutput is execGrouped's output loop. Aggregate arguments compile
// against the source layout; HAVING, items and ORDER BY keys compile
// against the extended layout of source columns plus one slot per lifted
// aggregate. Groups process in chunks (chunk-local outputs concatenated in
// chunk order); the single-group case chunks the aggregate accumulation
// instead.
//
// When the rows still align with the source's typed columns (idx holds
// their base-row indexes; nil means identity) and every lifted aggregate's
// argument is a plain column reference (or COUNT(*)), the aggregates
// compute up front through the typed grouped-aggregation kernel — all
// groups at once over the column payloads — and the per-group loop only
// reads the results.
func (x *stmtExec) groupOutput(src *source, groups []*rowGroup, gr *relation.Grouping, aggs []liftedAgg, items []SelectItem, having expr.Expr, orderBy []OrderItem, schema relation.Schema, idx []int32, aligned bool, nRows int) (*relation.Relation, [][]value.Value, error) {
	nSrc := len(src.rel.Schema)
	ext := extResolver(src, len(aggs))
	aggProgs := make([]*expr.Program, len(aggs))
	chunkSafe := true
	kindOf := func(name string) (value.Kind, bool) {
		i, err := src.resolve(name)
		if err != nil {
			return value.KindNull, false
		}
		return src.rel.Schema[i].Kind, true
	}
	for i, a := range aggs {
		if a.star {
			continue
		}
		aggProgs[i] = x.compile(a.arg, srcResolver(src))
		// Chunked accumulation must be bit-identical to the sequential
		// scan; float-stream summing is not (addition re-associates), so
		// any such aggregate keeps the whole pass sequential.
		in, err := expr.Check(a.arg, kindOf)
		if err != nil || !relation.MergeExact(a.fn, in) {
			chunkSafe = false
		}
	}
	if !chunkSafe {
		execMergeFallback.Inc()
	}
	// Typed grouped aggregation: with the row→group map in hand and the rows
	// still aligned to the source columns, column-reference arguments (and
	// COUNT(*)) feed the typed kernel over the column payloads for all groups
	// at once. The engagement is all-or-nothing so the boxed per-group loop
	// below stays the single fallback.
	var aggResults [][]value.Value // [agg][group]
	if aligned && len(aggs) > 0 {
		typedOK := true
		cols := make([]*relation.Col, len(aggs))
		for i, a := range aggs {
			if a.star {
				continue // COUNT(*): no argument column
			}
			ref, ok := a.arg.(*expr.ColumnRef)
			if !ok {
				typedOK = false
				break
			}
			if cols[i], ok = src.batchResolve(ref.Name); !ok {
				typedOK = false
				break
			}
		}
		if typedOK {
			aggResults = make([][]value.Value, len(aggs))
			for i, a := range aggs {
				res, _, err := relation.GroupAggregate(a.fn, cols[i], gr.IDs, idx, nRows, len(groups))
				if err != nil {
					if errors.Is(err, relation.ErrNotVectorizable) {
						aggResults = nil
						break
					}
					return nil, nil, err
				}
				aggResults[i] = res
			}
		}
	}
	var havingProg *expr.Program
	if having != nil {
		havingProg = x.compile(having, ext)
	}
	itemProgs := make([]*expr.Program, len(items))
	for i, it := range items {
		itemProgs[i] = x.compile(it.Expr, ext)
	}
	out := relation.New("result", schema)
	refs := x.compileOrderRefs(orderBy, out.Schema, ext)

	type part struct {
		rows []relation.Tuple
		keys [][]value.Value
	}
	bounds := x.chunks(len(groups))
	parts := make([]part, len(bounds))
	chunkRows := len(groups) == 1 && chunkSafe && !x.seq
	err := relation.RunChunks(bounds, func(c, lo, hi int) error {
		p := &parts[c]
		for gi := lo; gi < hi; gi++ {
			grp := groups[gi]
			var results []value.Value
			if aggResults != nil {
				results = make([]value.Value, len(aggs))
				for ai := range aggResults {
					results[ai] = aggResults[ai][gi]
				}
			} else {
				var err error
				results, err = accumulateGroup(aggs, aggProgs, grp.rows, chunkRows)
				if err != nil {
					return err
				}
			}
			// Extended row: a representative source row (all NULL for the
			// empty ungrouped group) followed by the aggregate results.
			row := make(relation.Tuple, nSrc+len(aggs))
			if len(grp.rows) > 0 {
				copy(row, grp.rows[0])
			}
			copy(row[nSrc:], results)
			if havingProg != nil {
				ok, err := havingProg.EvalBool(row)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			tuple := make(relation.Tuple, len(items))
			for i, ip := range itemProgs {
				v, err := ip.Eval(row)
				if err != nil {
					return err
				}
				tuple[i] = widen(v, schema[i].Kind)
			}
			keys, err := evalOrderRefs(refs, tuple, row)
			if err != nil {
				return err
			}
			p.rows = append(p.rows, tuple)
			p.keys = append(p.keys, keys)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sortVals := make([][]value.Value, 0, len(groups))
	for _, p := range parts {
		out.Rows = append(out.Rows, p.rows...)
		sortVals = append(sortVals, p.keys...)
	}
	return out, sortVals, nil
}
