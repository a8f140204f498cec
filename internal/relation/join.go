package relation

import (
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/value"
)

// Join kernels. Every join — the equi-hash join, the theta pair scan and
// the product — enumerates its matches as two aligned row-index vectors,
// pa[k] into the left relation and pb[k] into the right, in product order
// (left rows in order, each with its matching right rows ascending). The
// output is then gathered straight from both sides' typed column vectors
// (Col.Gather into FromColumns): joins return column-built relations, and
// no output cell is boxed unless a consumer later asks for rows. Inputs are
// columnarized for the join whatever their size; a small side converts in
// microseconds.
//
// HashJoin builds a key table on the smaller side's key columns and probes
// with the other, so only hash-matching candidate pairs reach a predicate.
// Candidates compare keys with value.Equal, which is at least as inclusive
// as any evaluator's `=`. When every key pair is proven by the typed hash
// equality — both key columns typed (not Boxed), of the same kind, and that
// kind not Float — a candidate's key conjuncts are exactly true, except
// for NULL keys, so rows with a NULL key never match and only the
// predicate's remaining conjuncts run on the candidates; a keys-only ON
// runs no row program at all. Otherwise (cross-kind numeric keys, float
// keys, Boxed mixed-kind columns) the full predicate runs on every
// candidate. Boxed rows therefore appear only where a predicate runs.
//
// A predicate that would *error* on a non-candidate pair — a residual
// conjunct comparing incompatible kinds, say — reports that error only on
// the product path (Join); the hash kernel never evaluates such a pair.
var (
	joinHash     = obs.Default.Counter("relation.join.hash")
	joinFallback = obs.Default.Counter("relation.join.fallback")
)

// colPairEqual reports value.Equal of cell i of column a and cell j of
// column b without boxing, falling back to boxed comparison for dynamic
// columns or mismatched kinds (where cross-kind numeric equality applies).
func colPairEqual(a *Col, i int, b *Col, j int) bool {
	if a.Boxed != nil || b.Boxed != nil || a.Kind != b.Kind {
		return value.Equal(a.Value(i), b.Value(j))
	}
	ni, nj := a.IsNull(i), b.IsNull(j)
	if ni || nj {
		return ni == nj
	}
	switch a.Kind {
	case value.KindFloat:
		x, y := a.Floats[i], b.Floats[j]
		return !(x < y) && !(x > y)
	case value.KindString:
		return a.Strs[i] == b.Strs[j]
	default:
		return a.Ints[i] == b.Ints[j]
	}
}

// findCross probes the table with a key drawn from a different column set
// (the join probe side); cols must align positionally with the table's own.
func (g *colGrouper) findCross(probe []*Col, cell int, h uint64) int32 {
	i := h & g.mask
	for {
		s := g.slots[i]
		if s == 0 {
			return -1
		}
		gid := s - 1
		if g.hash[gid] == h {
			eq := true
			for k, c := range g.cols {
				if !colPairEqual(c, int(g.reps[gid]), probe[k], cell) {
					eq = false
					break
				}
			}
			if eq {
				return gid
			}
		}
		grouperCollisions.Inc()
		i = (i + 1) & g.mask
	}
}

// keysProven reports whether the typed hash equality of the key columns is
// exactly SQL `=` on non-NULL cells: every pair typed, same kind, not Float.
func keysProven(akey, bkey []*Col) bool {
	for k := range akey {
		a, b := akey[k], bkey[k]
		if a.Boxed != nil || b.Boxed != nil || a.Kind != b.Kind ||
			a.Kind == value.KindFloat || a.Kind == value.KindNull {
			return false
		}
	}
	return true
}

// nullKey reports whether any key cell of row i is NULL.
func nullKey(key []*Col, i int) bool {
	for _, c := range key {
		if BitGet(c.Nulls, i) {
			return true
		}
	}
	return false
}

// joinGroups assigns every left and right row its key group ID, -1 for a
// row no key on the other side can match. The table is built on the
// smaller side and probed with the larger; probing only reads the table,
// so it fans out across chunks. With skipNulls, rows holding a NULL key
// cell take -1 on both sides.
func joinGroups(akey, bkey []*Col, na, nb int, skipNulls bool) (agids, bgids []int32, ngroups int) {
	agids, bgids = make([]int32, na), make([]int32, nb)
	build, probe, bgid, pgid := akey, bkey, agids, bgids
	if na > nb {
		build, probe, bgid, pgid = bkey, akey, bgids, agids
	}
	grouperBuilds.Inc()
	bh := hashLanes(build, nil, len(bgid))
	ph := hashLanes(probe, nil, len(pgid))
	g := newColGrouper(build, len(bgid))
	for i := range bgid {
		if skipNulls && nullKey(build, i) {
			bgid[i] = -1
			continue
		}
		bgid[i], _ = g.add(i, bh[i])
	}
	_ = ForChunks(len(pgid), func(_, lo, hi int) error {
		for j := lo; j < hi; j++ {
			if skipNulls && nullKey(probe, j) {
				pgid[j] = -1
				continue
			}
			pgid[j] = g.findCross(probe, j, ph[j])
		}
		return nil
	})
	return agids, bgids, len(g.reps)
}

// HashJoin joins r and s on the key column pairs lcols[i] = rcols[i]. on is
// the full join predicate over the product row layout (nil keeps every
// candidate); rest is on with its key conjuncts replaced by TRUE, nil when
// nothing else remains — it is all that runs on a candidate when the typed
// hash proves the keys (see above). Output rows appear in product order,
// bit-identical to Join(s, on).
func (r *Relation) HashJoin(s *Relation, lcols, rcols []int, on, rest func(Tuple) (bool, error)) (*Relation, error) {
	joinHash.Inc()
	acols, bcols := r.Columns(), s.Columns()
	na, nb := r.Len(), s.Len()
	if na == 0 || nb == 0 {
		return gatherPairs(r, s, nil, nil), nil
	}
	akey := make([]*Col, len(lcols))
	for i, c := range lcols {
		akey[i] = acols[c]
	}
	bkey := make([]*Col, len(rcols))
	for i, c := range rcols {
		bkey[i] = bcols[c]
	}
	pred := on
	proven := keysProven(akey, bkey)
	if proven {
		pred = rest
	}
	agids, bgids, ngroups := joinGroups(akey, bkey, na, nb, proven)
	// Posting lists: the right rows of each group, ascending, in CSR layout —
	// one flat entry array sliced per group by offsets, not one slice per
	// group.
	starts := make([]int32, ngroups+1)
	for _, gid := range bgids {
		if gid >= 0 {
			starts[gid+1]++
		}
	}
	for gid := 0; gid < ngroups; gid++ {
		starts[gid+1] += starts[gid]
	}
	entries := make([]int32, starts[ngroups])
	cursor := make([]int32, ngroups)
	copy(cursor, starts[:ngroups])
	for j, gid := range bgids {
		if gid >= 0 {
			entries[cursor[gid]] = int32(j)
			cursor[gid]++
		}
	}
	// Enumerate pairs over left-row chunks. With a predicate, each chunk
	// evaluates it over its candidates in a private scratch row — left cells
	// filled once per left row, right cells per candidate — and aborts at
	// its first error, so RunChunks reports the error of the first failing
	// candidate in product order, as the sequential scan would.
	wl := len(acols)
	bounds := Chunks(na)
	pas := make([][]int32, len(bounds))
	pbs := make([][]int32, len(bounds))
	err := RunChunks(bounds, func(c, lo, hi int) error {
		var scratch Tuple
		if pred != nil {
			scratch = make(Tuple, wl+len(bcols))
		}
		// The chunk's candidate count bounds its pairs: one allocation each.
		cand := 0
		for a := lo; a < hi; a++ {
			if gid := agids[a]; gid >= 0 {
				cand += int(starts[gid+1] - starts[gid])
			}
		}
		pa, pb := make([]int32, 0, cand), make([]int32, 0, cand)
		for a := lo; a < hi; a++ {
			gid := agids[a]
			if gid < 0 || starts[gid] == starts[gid+1] {
				continue
			}
			if pred != nil {
				fillCells(scratch, acols, a)
			}
			for _, b := range entries[starts[gid]:starts[gid+1]] {
				if pred != nil {
					fillCells(scratch[wl:], bcols, int(b))
					ok, err := pred(scratch)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				pa = append(pa, int32(a))
				pb = append(pb, b)
			}
		}
		pas[c], pbs[c] = pa, pb
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(pas) == 1 {
		return gatherPairs(r, s, pas[0], pbs[0]), nil
	}
	total := 0
	for _, pa := range pas {
		total += len(pa)
	}
	pa := make([]int32, 0, total)
	pb := make([]int32, 0, total)
	for c := range pas {
		pa = append(pa, pas[c]...)
		pb = append(pb, pbs[c]...)
	}
	return gatherPairs(r, s, pa, pb), nil
}

// fillCells writes row i of cols into dst.
func fillCells(dst Tuple, cols []*Col, i int) {
	for ci, c := range cols {
		dst[ci] = c.Value(i)
	}
}

// Join computes the theta-join of r and s using on as the join predicate
// over the product row layout (r's columns then s's, disambiguated as in
// Product). A nil predicate degenerates to the product. Candidate pairs are
// enumerated with a scratch row over both sides' rows — the predicate runs
// on every pair, so the rows are worth materializing — and the matches are
// gathered column-wise, in product order.
func (r *Relation) Join(s *Relation, on func(Tuple) (bool, error)) (*Relation, error) {
	if on == nil {
		return r.Product(s), nil
	}
	joinFallback.Inc()
	wl := len(r.Schema)
	scratch := make(Tuple, wl+len(s.Schema))
	var pa, pb []int32
	srows := s.TupleRows()
	for a, ta := range r.TupleRows() {
		copy(scratch, ta)
		for b, tb := range srows {
			copy(scratch[wl:], tb)
			ok, err := on(scratch)
			if err != nil {
				return nil, err
			}
			if ok {
				pa = append(pa, int32(a))
				pb = append(pb, int32(b))
			}
		}
	}
	return gatherPairs(r, s, pa, pb), nil
}

// Product returns the Cartesian product r × s with productSchema naming:
// every pair, gathered column-wise in product order.
func (r *Relation) Product(s *Relation) *Relation {
	na, nb := r.Len(), s.Len()
	pa := make([]int32, na*nb)
	pb := make([]int32, na*nb)
	for a := 0; a < na; a++ {
		for b := 0; b < nb; b++ {
			pa[a*nb+b], pb[a*nb+b] = int32(a), int32(b)
		}
	}
	return gatherPairs(r, s, pa, pb)
}

// gatherPairs builds the product-layout relation of the index pairs: r's
// columns gathered by pa, then s's by pb. Payloads copy as raw typed slots.
func gatherPairs(r, s *Relation, pa, pb []int32) *Relation {
	acols, bcols := r.Columns(), s.Columns()
	out := make([]Col, len(acols)+len(bcols))
	cols := make([]*Col, len(out))
	for i := range out {
		if i < len(acols) {
			acols[i].gatherInto(&out[i], pa)
		} else {
			bcols[i-len(acols)].gatherInto(&out[i], pb)
		}
		cols[i] = &out[i]
	}
	return FromColumns(r.Name+"_x_"+s.Name, productSchema(r, s), cols, len(pa))
}
