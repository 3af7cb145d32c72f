package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cardirect/internal/geom"
)

// ErrUnknownRegion is returned (wrapped, with the region's name) by
// RelationStore operations addressing a region the store does not hold.
// Callers can test for it with errors.Is.
var ErrUnknownRegion = errors.New("core: unknown region")

// StoreOptions configures a RelationStore.
type StoreOptions struct {
	// Workers is the worker-pool size of the all-pairs reads (Pairs,
	// PctPairs); values ≤ 0 mean GOMAXPROCS.
	Workers int
	// Pct enables the quantitative reads (Percent, Areas, PctPairs). It
	// requires every region to have positive area, like the quantitative
	// batch engine, and the edit methods reject regions that do not.
	Pct bool
}

// Kernel stages a served pair can be decided by: one counter each, counting
// every answered pair (a row or a sweep adds its pairs in one step).
const (
	stageSingleTile = iota // qualitative, mbb(primary) inside one tile
	stageBand              // qualitative, mbb(primary) inside one row/column
	stageExact             // qualitative, full edge pass
	stagePctTile           // quantitative, mbb(primary) inside one tile
	stagePctPoly           // quantitative, every polygon box inside one tile
	stagePctExact          // quantitative, full edge pass
	numStages
)

// RelationStore is the stateful heart of an interactive CARDIRECT session:
// it owns the Prepared form of a set of named regions and answers the
// cardinal direction relation — and, with StoreOptions.Pct, the percent
// matrix — of any ordered pair by running the paper's linear-time kernels
// on demand. A Prepared pair costs tens to hundreds of nanoseconds, less
// than the cache miss of looking it up in an n² matrix, so nothing
// quadratic is held: the store is O(n) in memory, an edit is one Prepare
// plus a pointer swap, and every answer is by construction what a
// from-scratch batch recompute over the current regions would give.
//
// A store is safe for concurrent use. Reads fetch the Prepared pointers
// they need under the read side of an RWMutex and run the kernel outside
// it (Prepared values are immutable), so an edit waits for map lookups,
// never for geometry; the edit methods (Add, AddBulk, Remove, SetGeometry,
// Rename) take the write side.
type RelationStore struct {
	opt StoreOptions

	// mu guards ps and idx. Readers copy the pointers they need and drop
	// the lock before computing.
	mu  sync.RWMutex
	ps  []*Prepared    // slot order: insertion order, compacted on Remove
	idx map[string]int // region name → slot

	// gen counts successful edits (Add, AddBulk, Remove, SetGeometry,
	// Rename). It is atomic so readers can poll it without taking mu: the
	// query planner's plan cache re-plans when it moves, and the HTTP layer
	// serves it as an ETag so repeat readers short-circuit to 304.
	gen atomic.Uint64

	// Readers run kernels concurrently, so the instrumentation is atomic.
	served [numStages]atomic.Int64
	bulks  atomic.Int64
}

// Generation returns the store's monotonic edit counter: 0 for a freshly
// built store, +1 after every successful Add, AddBulk, Remove, SetGeometry
// or Rename. Two reads returning the same value bracket a window with no
// edits, which is what makes it usable as a cache validator (ETag, plan
// cache).
func (s *RelationStore) Generation() uint64 { return s.gen.Load() }

// Pct reports whether the store answers percentages (StoreOptions.Pct).
func (s *RelationStore) Pct() bool { return s.opt.Pct }

// SetGeneration overwrites the edit counter. Replication uses it to align a
// replica's generation with the primary's: a replica builds its store from a
// snapshot (generation 0 locally, G on the primary) and adopts G so ETags
// agree byte-for-byte at the same logical state. Outside replication the
// counter should only ever move via edits.
func (s *RelationStore) SetGeneration(v uint64) { s.gen.Store(v) }

// NewRelationStore builds a store over the given regions: one Prepare per
// region, no pair is computed. Region names must be unique and non-empty;
// every region must be usable as a reference (non-degenerate bounding box),
// and with opt.Pct as a quantitative primary (positive area).
func NewRelationStore(regions []NamedRegion, opt StoreOptions) (*RelationStore, error) {
	s := &RelationStore{opt: opt, idx: make(map[string]int, len(regions))}
	ps, err := s.admit(regions)
	if err != nil {
		return nil, err
	}
	s.install(ps)
	return s, nil
}

// admit validates and prepares regions about to enter the store: names
// non-empty and unique among themselves and against the held regions,
// geometry the store can answer for — a non-degenerate bounding box (usable
// as a reference) always, positive area when the store answers percentages.
// Each region is prepared on its own (Prepare), not from a PrepareAll
// slab: a slab is reclaimed only once every region carved from it is gone,
// and a store's regions are replaced one by one for as long as it lives.
// Callers that edit hold the write lock.
func (s *RelationStore) admit(regions []NamedRegion) ([]*Prepared, error) {
	ps := make([]*Prepared, len(regions))
	batch := make(map[string]bool, len(regions))
	for i, r := range regions {
		if r.Name == "" {
			return nil, fmt.Errorf("core: empty region name")
		}
		if _, held := s.idx[r.Name]; held || batch[r.Name] {
			return nil, fmt.Errorf("core: duplicate region name %q", r.Name)
		}
		batch[r.Name] = true
		p, err := s.prepare(r.Name, r.Region)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// prepare prepares one region and rejects geometry the store cannot answer
// for (see admit).
func (s *RelationStore) prepare(name string, r geom.Region) (*Prepared, error) {
	p, err := Prepare(name, r)
	if err != nil {
		return nil, err
	}
	if p.noGrid {
		return nil, fmt.Errorf("core: region %q: %w", name, p.gridErr())
	}
	if s.opt.Pct && p.totalArea <= 0 {
		return nil, fmt.Errorf("core: region %q has zero area: %w", name, ErrDegenerateRegion)
	}
	return p, nil
}

// install appends admitted regions to the slot table.
func (s *RelationStore) install(ps []*Prepared) {
	for i, p := range ps {
		s.idx[p.Name] = len(s.ps) + i
	}
	s.ps = append(s.ps, ps...)
}

// Add inserts a new region — one Prepare and a slot append. The name must
// be unique and non-empty.
func (s *RelationStore) Add(name string, r geom.Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, err := s.admit([]NamedRegion{{Name: name, Region: r}})
	if err != nil {
		return err
	}
	s.install(ps)
	s.gen.Add(1)
	return nil
}

// AddBulk inserts many regions in one edit: every region is validated and
// prepared up front (on failure the store is unchanged), then all of them
// become visible together under one generation bump, counted as one
// Stats.BulkBatches.
func (s *RelationStore) AddBulk(regions []NamedRegion) error {
	if len(regions) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ps, err := s.admit(regions)
	if err != nil {
		return err
	}
	s.install(ps)
	s.gen.Add(1)
	s.bulks.Add(1)
	return nil
}

// Remove deletes a region, moving the last slot into the vacated one.
func (s *RelationStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[name]
	if !ok {
		return fmt.Errorf("core: region %q: %w", name, ErrUnknownRegion)
	}
	last := len(s.ps) - 1
	if i != last {
		s.ps[i] = s.ps[last]
		s.idx[s.ps[i].Name] = i
	}
	s.ps[last] = nil
	s.ps = s.ps[:last]
	delete(s.idx, name)
	s.gen.Add(1)
	return nil
}

// SetGeometry replaces a region's geometry — one Prepare and a pointer
// swap, the edit CARDIRECT's interactive move/resize operations map to. On
// error (degenerate replacement) the store is unchanged.
func (s *RelationStore) SetGeometry(name string, r geom.Region) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.idx[name]
	if !ok {
		return fmt.Errorf("core: region %q: %w", name, ErrUnknownRegion)
	}
	p, err := s.prepare(name, r)
	if err != nil {
		return err
	}
	s.ps[i] = p
	s.gen.Add(1)
	return nil
}

// Rename changes a region's name without touching geometry. The new name
// must be unique and non-empty.
func (s *RelationStore) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if newName == "" {
		return fmt.Errorf("core: empty region name")
	}
	i, ok := s.idx[oldName]
	if !ok {
		return fmt.Errorf("core: region %q: %w", oldName, ErrUnknownRegion)
	}
	if oldName == newName {
		return nil
	}
	if _, ok := s.idx[newName]; ok {
		return fmt.Errorf("core: duplicate region name %q", newName)
	}
	// Prepared values are immutable; renaming installs a shallow copy that
	// shares the (immutable) geometry buffers.
	np := *s.ps[i]
	np.Name = newName
	s.ps[i] = &np
	delete(s.idx, oldName)
	s.idx[newName] = i
	s.gen.Add(1)
	return nil
}

// Len returns the number of held regions.
func (s *RelationStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ps)
}

// Has reports whether the store holds a region with the given name.
func (s *RelationStore) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.idx[name]
	return ok
}

// Names returns the held region names, sorted.
func (s *RelationStore) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.ps))
	for _, p := range s.ps {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// Prepared returns the held Prepared form of a region, or false. The value
// is shared and must not be mutated.
func (s *RelationStore) Prepared(name string) (*Prepared, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.idx[name]
	if !ok {
		return nil, false
	}
	return s.ps[i], true
}

// pair fetches the Prepared forms of an ordered pair under one lock
// acquisition, so both sides belong to the same store state.
func (s *RelationStore) pair(primary, reference string) (a, b *Prepared, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.idx[primary]
	if !ok {
		return nil, nil, fmt.Errorf("core: region %q: %w", primary, ErrUnknownRegion)
	}
	j, ok := s.idx[reference]
	if !ok {
		return nil, nil, fmt.Errorf("core: region %q: %w", reference, ErrUnknownRegion)
	}
	if i == j {
		return nil, nil, fmt.Errorf("core: relation of region %q against itself is not defined", primary)
	}
	return s.ps[i], s.ps[j], nil
}

// pctPair is pair for the quantitative reads.
func (s *RelationStore) pctPair(primary, reference string) (a, b *Prepared, err error) {
	if !s.opt.Pct {
		return nil, nil, ErrNoPct
	}
	return s.pair(primary, reference)
}

// ErrNoPct is returned by the quantitative reads of a store built without
// StoreOptions.Pct.
var ErrNoPct = errors.New("core: store does not answer percentages (StoreOptions.Pct)")

// count adds one read's answered pairs to the stage counters: pairs
// qualitative and pctPairs quantitative ones, each split into st's prune
// counters and the exact rest. Only non-zero counts are added, so a
// single-pair read is one atomic add; straight-line adds, not a loop over
// the six counts, keep it as cheap as a switch on the deciding stage.
func (s *RelationStore) count(st *Stats, pairs, pctPairs int) {
	add := func(stage, v int) {
		if v != 0 {
			s.served[stage].Add(int64(v))
		}
	}
	add(stageSingleTile, st.PruneSingleTile)
	add(stageBand, st.PruneBand)
	add(stageExact, pairs-st.PruneSingleTile-st.PruneBand)
	add(stagePctTile, st.PrunePctTile)
	add(stagePctPoly, st.PrunePctPoly)
	add(stagePctExact, pctPairs-st.PrunePctTile-st.PrunePctPoly)
}

// relate runs Compute-CDR on one pair and counts the stage that decided it.
func (s *RelationStore) relate(a, b *Prepared) Relation {
	var st Stats
	rel := a.relate(b.grid(), false, &st)
	s.count(&st, 1, 0)
	return rel
}

// relatePct runs Compute-CDR% on one pair and counts the stage that decided
// it.
func (s *RelationStore) relatePct(a, b *Prepared) (PercentMatrix, TileAreas, error) {
	var st Stats
	m, areas, err := a.relatePct(b.grid(), false, &st)
	s.count(&st, 0, 1)
	return m, areas, err
}

// Relation returns the cardinal direction relation of primary against
// reference, computed from the held Prepared forms.
func (s *RelationStore) Relation(primary, reference string) (Relation, error) {
	a, b, err := s.pair(primary, reference)
	if err != nil {
		return 0, err
	}
	return s.relate(a, b), nil
}

// Percent returns the percent matrix of primary against reference. The
// store must have been built with StoreOptions.Pct.
func (s *RelationStore) Percent(primary, reference string) (PercentMatrix, error) {
	a, b, err := s.pctPair(primary, reference)
	if err != nil {
		return PercentMatrix{}, err
	}
	m, _, err := s.relatePct(a, b)
	return m, err
}

// RelationPercent returns the relation and the percent matrix of one pair
// computed from the same two Prepared forms, fetched once: an edit landing
// between a Relation and a Percent call cannot pair one generation's
// relation with the next one's matrix. The store must have been built with
// StoreOptions.Pct.
func (s *RelationStore) RelationPercent(primary, reference string) (Relation, PercentMatrix, error) {
	a, b, err := s.pctPair(primary, reference)
	if err != nil {
		return 0, PercentMatrix{}, err
	}
	rel := s.relate(a, b)
	m, _, err := s.relatePct(a, b)
	return rel, m, err
}

// PreparedAll returns the held Prepared forms of names, in that order and of
// one store state (one lock acquisition). The values are shared and must not
// be mutated.
func (s *RelationStore) PreparedAll(names []string) ([]*Prepared, error) {
	out := make([]*Prepared, len(names))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, name := range names {
		i, ok := s.idx[name]
		if !ok {
			return nil, fmt.Errorf("core: region %q: %w", name, ErrUnknownRegion)
		}
		out[k] = s.ps[i]
	}
	return out, nil
}

// rowStride is how many pairs RelateRow runs between context polls: an
// MBB-decided pair costs about what ctx.Err() does.
const rowStride = 256

// RelateRow is the row (or column) read: it fills out[k] with the relation of
// cands[k] against pin — cands[k] as primary and pin as reference when
// pinnedIsRef, the transpose otherwise; B, without a kernel run, where
// cands[k] is pin (a region is only B of itself). The caller hands in forms
// it holds (PreparedAll), so the row takes no lock and looks up no name; it
// adds its pairs to the stage counters once and polls ctx every rowStride
// pairs. Each answer is what Relation gives for the same two forms.
func (s *RelationStore) RelateRow(ctx context.Context, pin *Prepared, pinnedIsRef bool, cands []*Prepared, out []Relation) error {
	var st Stats
	var err error
	pairs, g := 0, pin.grid()
	for k, c := range cands {
		if k%rowStride == 0 {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		switch {
		case c == pin:
			out[k] = B
			continue
		case pinnedIsRef:
			out[k] = c.relate(g, false, &st)
		default:
			out[k] = pin.relate(c.grid(), false, &st)
		}
		pairs++
	}
	s.count(&st, pairs, 0)
	return err
}

// all copies the held Prepared pointers for an all-pairs read.
func (s *RelationStore) all() []*Prepared {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]*Prepared(nil), s.ps...)
}

// Pairs returns every qualitative pair sorted by (primary, reference) —
// the slice BatchCDR produces over the current regions, because it is that
// engine run over the held Prepared forms.
func (s *RelationStore) Pairs() []PairRelation {
	// Every held region passed usable, the only error the engine has
	// without a context to cancel.
	out, _ := s.PairsCtx(context.Background())
	return out
}

// PairsCtx is Pairs honoring a context: the sweep polls it once per primary
// row and returns the context's error.
func (s *RelationStore) PairsCtx(ctx context.Context) ([]PairRelation, error) {
	out, st, err := batchPrepared(ctx, s.all(), BatchOptions{Workers: s.opt.Workers})
	s.count(&st, st.Passes, 0)
	return out, err
}

// PctPairs returns every quantitative pair sorted by (primary, reference),
// BatchPct over the current regions. The store must have been built with
// StoreOptions.Pct.
func (s *RelationStore) PctPairs() ([]PairPercent, error) {
	return s.PctPairsCtx(context.Background())
}

// PctPairsCtx is PctPairs honoring a context, like PairsCtx.
func (s *RelationStore) PctPairsCtx(ctx context.Context) ([]PairPercent, error) {
	if !s.opt.Pct {
		return nil, ErrNoPct
	}
	out, st, err := batchPctPrepared(ctx, s.all(), BatchOptions{Workers: s.opt.Workers})
	s.count(&st, 0, st.Passes)
	return out, err
}

// StoreStats is the RelationStore's instrumentation. The embedded Stats
// keeps its field names: Passes is the number of pairs answered since the
// store was built (single reads, RelateRow and all-pairs sweeps alike), the
// prune counters and the two exact counters say which kernel stage decided
// them — the six sum to Passes — and BulkBatches counts AddBulk edits. The
// per-edge counters and DeltaPairs stay zero. (The exact counters live here
// rather than in Stats because the batch workers keep a Stats on their
// stack, and growing it measurably slows the exact-kernel batch.)
type StoreStats struct {
	Stats
	ExactPairs    int // qualitative pairs no fast path decided
	ExactPctPairs int // quantitative pairs no fast path decided
}

// Stats returns the store's cumulative read instrumentation. The counters
// are atomic and read one by one, so a snapshot taken beside running
// readers may be a few pairs apart from itself.
func (s *RelationStore) Stats() StoreStats {
	st := StoreStats{
		Stats: Stats{
			PruneSingleTile: int(s.served[stageSingleTile].Load()),
			PruneBand:       int(s.served[stageBand].Load()),
			PrunePctTile:    int(s.served[stagePctTile].Load()),
			PrunePctPoly:    int(s.served[stagePctPoly].Load()),
			BulkBatches:     int(s.bulks.Load()),
		},
		ExactPairs:    int(s.served[stageExact].Load()),
		ExactPctPairs: int(s.served[stagePctExact].Load()),
	}
	st.Passes = st.PruneSingleTile + st.PruneBand + st.ExactPairs +
		st.PrunePctTile + st.PrunePctPoly + st.ExactPctPairs
	return st
}
