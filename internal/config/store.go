package config

import (
	"fmt"
	"sync"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
)

// Tracked couples an Image with a core.RelationStore and a maintained
// index.Live R-tree, kept in sync with the image's edit methods through the
// Watcher hooks: an AddRegion/RemoveRegion/RenameRegion/SetRegionGeometry
// call updates the document, prepares the touched region once — the store
// and the index share that Prepared form — and moves the R-tree entry. No
// pair is computed by an edit; relations are computed when they are read.
// This is the paper's interactive annotation loop (§4) with an edit path
// that does not depend on the number of regions.
//
// The watcher callbacks cannot reject an edit, so a failure while applying
// one (it cannot arise from geometry the edit methods accept, since
// they validate first — but a store fed out-of-band could diverge) is
// latched into Err and every later edit is ignored until the caller
// re-syncs.
//
// Concurrency: Tracked carries an RWMutex so many readers overlap one
// writer — the contract cardirectd relies on. Mutations must go through
// Tracked's own edit methods (AddRegion, RemoveRegion, RenameRegion,
// SetRegionGeometry, Materialize), which take the write side; document
// reads go through View, which takes the read side. The maintained
// RelationStore has its own internal lock and stays safe to query directly
// at any time. Editing the underlying Image directly remains possible (the
// watcher keeps firing) but forfeits the concurrency guarantee — it is
// only safe single-threaded, as in the seed's interactive examples.
type Tracked struct {
	mu    sync.RWMutex
	img   *Image
	store *core.RelationStore
	idx   *index.Live
	err   error
}

// Track validates the image and builds the coupled relation store and live
// index over its current regions (region ids are the store names), then
// subscribes to the image's edits. Materialised Relation elements of the
// document are dropped, neither read nor trusted: the store computes every
// answer from geometry, and the Image edit methods would scan the O(n²)
// list on every mutation (snapshots written before the store computed on
// demand carry one). Call Close to unsubscribe.
func Track(img *Image, opt core.StoreOptions) (*Tracked, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	regions := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		regions[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	store, err := core.NewRelationStore(regions, opt)
	if err != nil {
		return nil, err
	}
	ps := make([]*core.Prepared, len(regions))
	for i, r := range regions {
		ps[i], _ = store.Prepared(r.Name)
	}
	idx, err := index.NewLivePrepared(ps)
	if err != nil {
		return nil, err
	}
	img.Relations = nil
	tr := &Tracked{img: img, store: store, idx: idx}
	img.Watch(tr)
	return tr, nil
}

// Store returns the maintained relation store.
func (tr *Tracked) Store() *core.RelationStore { return tr.store }

// Index returns the maintained live R-tree index.
func (tr *Tracked) Index() *index.Live { return tr.idx }

// Image returns the tracked document.
func (tr *Tracked) Image() *Image { return tr.img }

// Err returns the first edit-application failure, or nil. A non-nil value
// means the store and index no longer reflect the image and must be rebuilt
// with a fresh Track.
func (tr *Tracked) Err() error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.err
}

// Close unsubscribes from the image's edits; the store and index stay
// readable at their final state.
func (tr *Tracked) Close() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.img.Unwatch(tr)
}

// View runs fn with the tracked document under the read lock, so it can
// overlap other readers but never an edit. fn must not mutate the image or
// retain it past the call; any error is returned verbatim. The maintained
// store and live index may be used inside fn (their reads nest safely
// under the read lock), which is how the HTTP layer serves directional
// selections and queries against a consistent document snapshot.
func (tr *Tracked) View(fn func(img *Image) error) error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return fn(tr.img)
}

// AddRegion is Image.AddRegion under the write lock: the document, relation
// store and live index all advance before any reader observes the new
// region. A previously latched failure short-circuits.
func (tr *Tracked) AddRegion(id, name, color string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.AddRegion(id, name, color, g); err != nil {
		return err
	}
	return tr.err
}

// RemoveRegion is Image.RemoveRegion under the write lock.
func (tr *Tracked) RemoveRegion(id string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.RemoveRegion(id); err != nil {
		return err
	}
	return tr.err
}

// RenameRegion is Image.RenameRegion under the write lock.
func (tr *Tracked) RenameRegion(oldID, newID string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.RenameRegion(oldID, newID); err != nil {
		return err
	}
	return tr.err
}

// SetRegionGeometry is Image.SetRegionGeometry under the write lock.
func (tr *Tracked) SetRegionGeometry(id string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.img.SetRegionGeometry(id, g); err != nil {
		return err
	}
	return tr.err
}

// BulkRegion is one region of a bulk ingest (Tracked.BulkAddRegions).
type BulkRegion struct {
	ID, Name, Color string
	Geometry        geom.Region
}

// BulkAddRegions ingests many regions as one edit: every region is
// validated first (empty or duplicate id, invalid geometry — the same
// checks as Image.AddRegion — leave everything unchanged), then the
// relation store takes them all in one generation bump
// (core.RelationStore.AddBulk), and the document and R-tree follow. The
// document mutation is applied
// directly rather than through Image.AddRegion, so Image watchers other
// than the Tracked itself are NOT notified per region — the store and
// index are updated here, batched.
func (tr *Tracked) BulkAddRegions(regions []BulkRegion) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if len(regions) == 0 {
		return nil
	}
	batch := make(map[string]bool, len(regions))
	named := make([]core.NamedRegion, len(regions))
	for i, r := range regions {
		if r.ID == "" {
			return fmt.Errorf("config: empty region id")
		}
		// The store is keyed by region id and in step with the document
		// (tr.err is nil): one map lookup where FindRegion scans.
		if batch[r.ID] || tr.store.Has(r.ID) {
			return fmt.Errorf("config: region %q: %w", r.ID, ErrDuplicateRegion)
		}
		batch[r.ID] = true
		if err := r.Geometry.Validate(); err != nil {
			return fmt.Errorf("config: region %q: %w", r.ID, err)
		}
		named[i] = core.NamedRegion{Name: r.ID, Region: r.Geometry}
	}
	// Store first: it is the only step that can still reject (e.g. zero
	// area under StoreOptions.Pct), and a rejection must leave the
	// document untouched.
	if err := tr.store.AddBulk(named); err != nil {
		return err
	}
	for _, r := range regions {
		reg := Region{ID: r.ID, Name: r.Name, Color: r.Color}
		reg.SetGeometry(r.Geometry)
		tr.img.Regions = append(tr.img.Regions, reg)
		tr.fail(tr.indexPrepared(r.ID, tr.idx.AddPrepared))
	}
	return tr.err
}

// fail latches the first failure.
func (tr *Tracked) fail(err error) {
	if tr.err == nil && err != nil {
		tr.err = err
	}
}

// indexPrepared hands the store's Prepared form of id to one of the index's
// edit methods, so a region is prepared once per edit, not once per owner.
func (tr *Tracked) indexPrepared(id string, edit func(*core.Prepared) error) error {
	p, ok := tr.store.Prepared(id)
	if !ok {
		return fmt.Errorf("config: region %q: %w", id, core.ErrUnknownRegion)
	}
	return edit(p)
}

// RegionAdded implements Watcher.
func (tr *Tracked) RegionAdded(id string, g geom.Region) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Add(id, g); err != nil {
		tr.fail(fmt.Errorf("config: tracking add %q: %w", id, err))
		return
	}
	tr.fail(tr.indexPrepared(id, tr.idx.AddPrepared))
}

// RegionRemoved implements Watcher.
func (tr *Tracked) RegionRemoved(id string) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Remove(id); err != nil {
		tr.fail(fmt.Errorf("config: tracking remove %q: %w", id, err))
		return
	}
	tr.fail(tr.idx.Remove(id))
}

// RegionRenamed implements Watcher.
func (tr *Tracked) RegionRenamed(oldID, newID string) {
	if tr.err != nil {
		return
	}
	if err := tr.store.Rename(oldID, newID); err != nil {
		tr.fail(fmt.Errorf("config: tracking rename %q: %w", oldID, err))
		return
	}
	tr.fail(tr.idx.Rename(oldID, newID))
}

// RegionGeometryChanged implements Watcher.
func (tr *Tracked) RegionGeometryChanged(id string, g geom.Region) {
	if tr.err != nil {
		return
	}
	if err := tr.store.SetGeometry(id, g); err != nil {
		tr.fail(fmt.Errorf("config: tracking geometry %q: %w", id, err))
		return
	}
	tr.fail(tr.indexPrepared(id, tr.idx.SetPrepared))
}

// Materialize computes every pair's relation from the store and writes the
// result into the image's Relation list — the export path for the paper's
// DTD document with its <Relation> elements. The list is O(n²), stays in
// the live image, and every subsequent edit pays a full scan of it;
// encoders should prefer WithMaterialized, which strips it again.
func (tr *Tracked) Materialize(withPct bool) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.materializeLocked(withPct)
}

// WithMaterialized runs f over the image with every pair's relation
// materialised into it, then strips the relation list again before
// returning. The list is O(n²) and the Image edit methods filter it on
// every mutation, so a live image must not keep it between encodes.
func (tr *Tracked) WithMaterialized(withPct bool, f func(*Image) error) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := tr.materializeLocked(withPct); err != nil {
		return err
	}
	err := f(tr.img)
	tr.img.Relations = nil
	return err
}

func (tr *Tracked) materializeLocked(withPct bool) error {
	if tr.err != nil {
		return tr.err
	}
	pairs := tr.store.Pairs()
	var pcts []core.PairPercent
	if withPct {
		var err error
		pcts, err = tr.store.PctPairs()
		if err != nil {
			return err
		}
	}
	tr.img.Relations = tr.img.Relations[:0]
	for i, pr := range pairs {
		entry := Relation{Type: pr.Relation.String(), Primary: pr.Primary, Reference: pr.Reference}
		if withPct {
			entry.Pct = encodePct(pcts[i].Matrix)
		}
		tr.img.Relations = append(tr.img.Relations, entry)
	}
	return nil
}
