package core

import (
	"sheetmusiq/internal/obs"
	"sheetmusiq/internal/relation"
)

// Stage-artifact cache metrics. stage_hits counts pipeline stages served
// from a cached artifact; stage_recomputes counts stages actually
// re-executed. invalidate.exact counts cache entries stale-marked because a
// mutation touched one of their dependency atoms. snapshot_bytes gauges the
// resident bytes owned by cached artifacts (each artifact is charged only
// for the storage it allocated itself).
var (
	evalStageHits       = obs.Default.Counter("core.eval.stage_hits")
	evalStageRecomputes = obs.Default.Counter("core.eval.stage_recomputes")
	evalInvalidateExact = obs.Default.Counter("core.eval.invalidate.exact")
	evalSnapshotBytes   = obs.Default.Gauge("core.eval.snapshot_bytes")
)

// stageSnap is the running state of one evaluation: the surviving base-row
// index vector in presentation (multiset) order, plus the computed-column
// vectors filled so far. Column vectors are indexed by base-row index — rows
// eliminated by upstream selections leave unread holes — so a downstream
// snapshot extends an upstream one by appending to cols without copying
// anything. Snapshots are per-evaluation scaffolding; what the cache stores
// is each stage's own stageArtifact, and apply closures (plan.go) fold
// artifacts back into the running snapshot.
type stageSnap struct {
	idx      []int32
	cols     []stageCol
	ownBytes int64
}

// stageCol is one filled computed-column vector: a typed column indexed by
// base-row index (relation.Col), so downstream stages, the vectorized
// expression kernels and the final materialisation all read raw payloads.
// Stages fall back to a Boxed column only when the fill produced cells of
// mixed kinds.
type stageCol struct {
	name string
	col  *relation.Col
}

// extend starts a downstream snapshot sharing this one's storage.
func (sn *stageSnap) extend() *stageSnap {
	return &stageSnap{idx: sn.idx, cols: sn.cols[:len(sn.cols):len(sn.cols)]}
}

// stageArtifact is the cacheable output of one pipeline stage: row stages
// (base, σ, ∧, δ, λ) own a surviving-row index vector; column stages (η, ω,
// θ) own one filled column vector. Artifacts deliberately do not carry the
// output column's *name*: the fingerprint keys the definition's content, so
// two identically defined columns under different names share one artifact,
// and the stage's apply closure supplies its own name — the keying that also
// lets artifacts be shared across sessions later.
type stageArtifact struct {
	fp       uint64
	idx      []int32       // row stages: surviving base-row indices, nil otherwise
	col      *relation.Col // column stages: the filled vector, nil otherwise
	ownBytes int64
}

const (
	// snapCacheCap bounds the per-sheet artifact cache. Eviction prefers
	// stale entries (see invalidate), then least-recently-used. Residency
	// is purely an optimisation: fingerprints key every lookup, so a miss
	// costs recomputation, never correctness.
	snapCacheCap = 64
)

// snapCache is a per-sheet fingerprint-keyed store of stage artifacts.
type snapCache struct {
	entries map[uint64]*snapEntry
	tick    int64
}

// snapEntry carries an artifact plus its invalidation metadata: the
// dependency atoms of the stage that built it (plan.go — the invalidation
// alphabet mutators speak). Atoms are advisory — staleness only biases
// eviction and the metrics; fingerprints alone guarantee correctness.
type snapEntry struct {
	art   *stageArtifact
	atoms []string
	used  int64
	stale bool
}

func newSnapCache() *snapCache {
	return &snapCache{entries: map[uint64]*snapEntry{}}
}

// get returns the cached artifact for fp, or nil. A hit revives a stale
// entry: the fingerprint match proves the mutation that staled it has been
// reverted (or re-applied), so the artifact is live again.
func (c *snapCache) get(fp uint64) *stageArtifact {
	e := c.entries[fp]
	if e == nil {
		return nil
	}
	c.tick++
	e.used = c.tick
	e.stale = false
	return e.art
}

// put inserts a freshly computed artifact, evicting past the cap. An entry
// already present refreshes its metadata (the same fingerprint can resurface
// with a different atom spelling after selection IDs are reassigned).
func (c *snapCache) put(art *stageArtifact, atoms []string) {
	if e := c.entries[art.fp]; e != nil {
		c.tick++
		e.used = c.tick
		e.stale = false
		e.atoms = atoms
		return
	}
	c.tick++
	c.entries[art.fp] = &snapEntry{art: art, atoms: atoms, used: c.tick}
	evalSnapshotBytes.Add(art.ownBytes)
	for len(c.entries) > snapCacheCap {
		c.evictOne()
	}
}

// evictOne drops the best eviction candidate: stale entries first, then the
// least recently used.
func (c *snapCache) evictOne() {
	var victimFP uint64
	var victim *snapEntry
	for fp, e := range c.entries {
		if victim == nil ||
			(e.stale && !victim.stale) ||
			(e.stale == victim.stale && e.used < victim.used) {
			victimFP, victim = fp, e
		}
	}
	if victim != nil {
		evalSnapshotBytes.Add(-victim.art.ownBytes)
		delete(c.entries, victimFP)
	}
}

// invalidate marks as stale exactly the entries whose dependency-atom set
// intersects the mutation's atoms — the graph-reachability contract: a
// stage's atoms are the transitive closure of everything its artifact was
// derived from, so an entry holding none of the mutation's atoms provably
// cannot change and stays live. Stale entries stay resident (preferentially
// evicted) and revive on a fingerprint hit — Theorem 3 makes reverting a
// modification as common as applying one.
func (c *snapCache) invalidate(atoms []string) {
	for _, e := range c.entries {
		if atomsIntersect(e.atoms, atoms) {
			e.stale = true
			evalInvalidateExact.Inc()
		}
	}
}

// atomsIntersect reports whether the two atom sets share an element. Sets
// are tiny (a handful of strings), so nested scanning beats allocating.
func atomsIntersect(a, b []string) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

// clear drops every artifact (the base relation was replaced).
func (c *snapCache) clear() {
	for fp, e := range c.entries {
		evalSnapshotBytes.Add(-e.art.ownBytes)
		delete(c.entries, fp)
	}
}

// snaps returns the sheet's artifact cache, creating it on first use.
func (s *Spreadsheet) snaps() *snapCache {
	if s.snapCache == nil {
		s.snapCache = newSnapCache()
	}
	return s.snapCache
}

// invalidateAtoms records that a mutation changed the definitions behind the
// given dependency atoms (see DESIGN.md §15 for the operator → atom table).
func (s *Spreadsheet) invalidateAtoms(atoms ...string) {
	if s.snapCache != nil {
		s.snapCache.invalidate(atoms)
	}
}

// checkBaseGeneration starts a new fingerprint generation when the base
// relation pointer changed since the last evaluation — binary operators,
// base-column renames and undo across either replace the base wholesale.
// Every cached artifact indexes into the old base, so the cache clears.
func (s *Spreadsheet) checkBaseGeneration() {
	if s.baseSeen == s.base {
		return
	}
	if s.baseSeen != nil {
		s.baseGen++
	}
	s.baseSeen = s.base
	if s.snapCache != nil {
		s.snapCache.clear()
	}
}
