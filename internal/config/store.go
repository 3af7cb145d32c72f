package config

import (
	"errors"
	"fmt"
	"sync"

	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/wal"
)

// ErrUnknownRegion is returned (wrapped, with the offending id) by the edit
// methods when the addressed region does not exist, so callers maintaining
// derived state — relation stores, spatial indexes — can branch on
// errors.Is instead of parsing messages. It wraps core.ErrUnknownRegion, so
// a single errors.Is(err, core.ErrUnknownRegion) test covers both the
// configuration layer and the relation store beneath it.
var ErrUnknownRegion = fmt.Errorf("config: unknown region: %w", core.ErrUnknownRegion)

// ErrDuplicateRegion is returned (wrapped, with the offending id) by
// AddRegion and RenameRegion when the requested id is already taken —
// the conflict case HTTP servers map to 409.
var ErrDuplicateRegion = errors.New("config: duplicate region id")

// Tracked couples an Image with a core.RelationStore and a maintained
// index.Live R-tree and is the one place an edit is applied: an
// AddRegion/RemoveRegion/RenameRegion/SetRegionGeometry call validates
// against the document, prepares the touched region once in the store (the
// only step that can still refuse, and a refusal leaves everything
// untouched), moves the R-tree entry with that same Prepared form, and
// updates the document last. No pair is computed by an edit; relations are
// computed when they are read. This is the paper's interactive annotation
// loop (§4) with an edit path that does not depend on the number of regions.
// Apply takes the same edits spelled as log records, the form every layer
// above passes down; it is the one place a record turns into an edit.
//
// Concurrency: Tracked carries an RWMutex so many readers overlap one
// writer — the contract cardirectd relies on. The edit methods take the
// write side; document reads go through View, which takes the read side.
// The maintained RelationStore has its own internal lock and stays safe to
// query directly at any time.
type Tracked struct {
	mu    sync.RWMutex
	img   *Image
	store *core.RelationStore
	idx   *index.Live
	err   error
}

// Track validates the image and builds the coupled relation store and live
// index over its current regions (region ids are the store names), taking
// ownership of the document: from here on it changes only through the
// Tracked's edit methods. Materialised Relation elements of the document
// are dropped, neither read nor trusted: the store computes every answer
// from geometry (snapshots written before the store computed on demand
// carry an O(n²) list of them).
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
	return &Tracked{img: img, store: store, idx: idx}, nil
}

// Store returns the maintained relation store.
func (tr *Tracked) Store() *core.RelationStore { return tr.store }

// Index returns the maintained live R-tree index.
func (tr *Tracked) Index() *index.Live { return tr.idx }

// Err reports a fault, or nil: the live index disagreed with the store
// about which regions exist while an edit the store had accepted was being
// applied. No input, accepted or refused, can cause that; a non-nil value
// means index and document no longer reflect the store, every later edit
// is turned away, and the world must be rebuilt with a fresh Track.
func (tr *Tracked) Err() error {
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	return tr.err
}

// Close is a no-op, kept for the callers that pair it with Track: a
// Tracked holds nothing to release, and the store and index stay readable.
func (tr *Tracked) Close() {}

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

// Apply applies one edit spelled as log records — the form the HTTP layer
// decodes, the WAL stores and the replication stream ships. One record calls
// the matching edit method; several must all be OpAdd and go in through
// BulkAddRegions as one generation bump; any other batch is refused and
// changes nothing. An empty slice is no edit.
func (tr *Tracked) Apply(recs []wal.Record) error {
	if len(recs) == 1 {
		r := recs[0]
		switch r.Op {
		case wal.OpAdd:
			return tr.AddRegion(r.ID, r.Name, r.Color, r.Geometry)
		case wal.OpRemove:
			return tr.RemoveRegion(r.ID)
		case wal.OpRename:
			return tr.RenameRegion(r.ID, r.NewID)
		case wal.OpSetGeometry:
			return tr.SetRegionGeometry(r.ID, r.Geometry)
		}
		return fmt.Errorf("config: unknown edit %v", r.Op)
	}
	bulk := make([]BulkRegion, len(recs))
	for i, r := range recs {
		if r.Op != wal.OpAdd {
			return fmt.Errorf("config: edit %d of a batch of %d is %v; only adds batch", i, len(recs), r.Op)
		}
		bulk[i] = BulkRegion{ID: r.ID, Name: r.Name, Color: r.Color, Geometry: r.Geometry}
	}
	return tr.BulkAddRegions(bulk)
}

// AddRegion appends a new region: the id must be unique and non-empty
// (ErrDuplicateRegion otherwise) and the geometry must validate. Store,
// live index and document all advance under the write lock, before any
// reader observes the new region.
func (tr *Tracked) AddRegion(id, name, color string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if err := tr.admissible(id, g); err != nil {
		return err
	}
	if err := tr.store.Add(id, g); err != nil {
		return err
	}
	tr.install(BulkRegion{ID: id, Name: name, Color: color, Geometry: g})
	return tr.err
}

// RemoveRegion deletes the region with the given id; a missing region
// yields a wrapped ErrUnknownRegion.
func (tr *Tracked) RemoveRegion(id string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	i, err := tr.find(id)
	if err != nil {
		return err
	}
	if err := tr.store.Remove(id); err != nil {
		return err
	}
	tr.fail(tr.idx.Remove(id))
	tr.img.Regions = append(tr.img.Regions[:i], tr.img.Regions[i+1:]...)
	return tr.err
}

// RenameRegion changes a region's id. The new id must be non-empty and
// unique (ErrDuplicateRegion otherwise); a missing region yields a wrapped
// ErrUnknownRegion, and renaming a region to its own id is a no-op.
func (tr *Tracked) RenameRegion(oldID, newID string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	if newID == "" {
		return fmt.Errorf("config: empty new region id")
	}
	i, err := tr.find(oldID)
	if err != nil {
		return err
	}
	if oldID == newID {
		return nil
	}
	if tr.store.Has(newID) {
		return fmt.Errorf("config: region %q: %w", newID, ErrDuplicateRegion)
	}
	if err := tr.store.Rename(oldID, newID); err != nil {
		return err
	}
	tr.fail(tr.idx.Rename(oldID, newID))
	r := &tr.img.Regions[i]
	r.ID = newID
	for j := range r.Polygons {
		r.Polygons[j].ID = fmt.Sprintf("%s-p%d", newID, j)
	}
	return tr.err
}

// SetRegionGeometry replaces a region's polygons. The geometry must
// validate; a missing region yields a wrapped ErrUnknownRegion.
func (tr *Tracked) SetRegionGeometry(id string, g geom.Region) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.err != nil {
		return tr.err
	}
	i, err := tr.find(id)
	if err != nil {
		return err
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("config: region %q: %w", id, err)
	}
	if err := tr.store.SetGeometry(id, g); err != nil {
		return err
	}
	tr.fail(tr.indexPrepared(id, tr.idx.SetPrepared))
	tr.img.Regions[i].SetGeometry(g)
	return tr.err
}

// BulkRegion is one region of a bulk ingest (Tracked.BulkAddRegions).
type BulkRegion struct {
	ID, Name, Color string
	Geometry        geom.Region
}

// BulkAddRegions ingests many regions as one edit: every region is
// checked first (empty or duplicate id, invalid geometry — the same checks
// as AddRegion — leave everything unchanged), then the relation store
// takes them all in one generation bump (core.RelationStore.AddBulk), and
// the R-tree and the document follow.
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
		if batch[r.ID] {
			return fmt.Errorf("config: region %q: %w", r.ID, ErrDuplicateRegion)
		}
		if err := tr.admissible(r.ID, r.Geometry); err != nil {
			return err
		}
		batch[r.ID] = true
		named[i] = core.NamedRegion{Name: r.ID, Region: r.Geometry}
	}
	if err := tr.store.AddBulk(named); err != nil {
		return err
	}
	for _, r := range regions {
		tr.install(r)
	}
	return tr.err
}

// admissible checks a region about to be added: a non-empty id nobody
// holds and a valid geometry. The store is keyed by region id and in step
// with the document (tr.err is nil): one map lookup where FindRegion scans.
func (tr *Tracked) admissible(id string, g geom.Region) error {
	if id == "" {
		return fmt.Errorf("config: empty region id")
	}
	if tr.store.Has(id) {
		return fmt.Errorf("config: region %q: %w", id, ErrDuplicateRegion)
	}
	if err := g.Validate(); err != nil {
		return fmt.Errorf("config: region %q: %w", id, err)
	}
	return nil
}

// install makes index and document follow the store, which has just
// accepted r (the only step that can refuse an admissible region, e.g. zero
// area under StoreOptions.Pct). The R-tree takes the store's Prepared form,
// so a region is prepared once per edit, not once per owner.
func (tr *Tracked) install(r BulkRegion) {
	tr.fail(tr.indexPrepared(r.ID, tr.idx.AddPrepared))
	reg := Region{ID: r.ID, Name: r.Name, Color: r.Color}
	reg.SetGeometry(r.Geometry)
	tr.img.Regions = append(tr.img.Regions, reg)
}

// find returns the document position of the region with the given id, or a
// wrapped ErrUnknownRegion.
func (tr *Tracked) find(id string) (int, error) {
	for i := range tr.img.Regions {
		if tr.img.Regions[i].ID == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("config: region %q: %w", id, ErrUnknownRegion)
}

// fail latches the first fault (see Err).
func (tr *Tracked) fail(err error) {
	if tr.err == nil && err != nil {
		tr.err = err
	}
}

// indexPrepared hands the store's Prepared form of id to one of the index's
// edit methods.
func (tr *Tracked) indexPrepared(id string, edit func(*core.Prepared) error) error {
	p, ok := tr.store.Prepared(id)
	if !ok {
		return fmt.Errorf("config: region %q: %w", id, core.ErrUnknownRegion)
	}
	return edit(p)
}

// WithMaterialized runs f over the image with every pair's relation
// materialised into it — the export path for the paper's DTD document with
// its <Relation> elements — then strips the relation list again before
// returning: the list is O(n²), and a tracked image holds none outside
// this call, which owns the write lock.
func (tr *Tracked) WithMaterialized(withPct bool, f func(*Image) error) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
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
	tr.img.Relations = make([]Relation, len(pairs))
	for i, pr := range pairs {
		entry := Relation{Type: pr.Relation.String(), Primary: pr.Primary, Reference: pr.Reference}
		if withPct {
			entry.Pct = encodePct(pcts[i].Matrix)
		}
		tr.img.Relations[i] = entry
	}
	err := f(tr.img)
	tr.img.Relations = nil
	return err
}
