package index

import (
	"context"
	"fmt"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// Live is an R-tree kept in sync with an edited region set: where BulkLoad
// answers "index this configuration once", Live tracks the
// add/remove/rename/set-geometry deltas of an interactive session and keeps
// directional selection available between edits without rebuilding. It
// holds the Prepared form of every indexed region — prepared once when the
// region enters or changes, or handed over by an owner that already holds
// it (config.Tracked shares the relation store's) — so a selection refines
// its surviving candidates without preparing anything. It is the
// index-layer twin of core.RelationStore and, unlike it, single-writer.
type Live struct {
	tree *RTree
	ps   map[string]*core.Prepared // by id; each is indexed under its Box
}

// NewLive bulk-loads a maintained index over the given regions. IDs must be
// unique and non-empty; every region must have edges.
func NewLive(regions []core.NamedRegion) (*Live, error) {
	ps, err := core.PrepareAll(regions)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return NewLivePrepared(ps)
}

// NewLivePrepared is NewLive over already-prepared regions, which the index
// shares with the caller instead of preparing its own.
func NewLivePrepared(ps []*core.Prepared) (*Live, error) {
	l := &Live{ps: make(map[string]*core.Prepared, len(ps))}
	items := make([]Item, len(ps))
	for i, p := range ps {
		if p.Name == "" {
			return nil, fmt.Errorf("index: empty region id")
		}
		if _, ok := l.ps[p.Name]; ok {
			return nil, fmt.Errorf("index: duplicate region id %q", p.Name)
		}
		l.ps[p.Name] = p
		items[i] = liveItem(p)
	}
	tree, err := BulkLoad(items)
	if err != nil {
		return nil, err
	}
	l.tree = tree
	return l, nil
}

// liveItem is the tree entry of a held region: indexed under its Box,
// carrying the Prepared form for selections to refine with.
func liveItem(p *core.Prepared) Item { return Item{ID: p.Name, Box: p.Box, Prepared: p} }

// Len returns the number of indexed regions.
func (l *Live) Len() int { return l.tree.Len() }

// Add indexes a new region. The id must be unique and non-empty, the
// region must have edges.
func (l *Live) Add(id string, g geom.Region) error {
	p, err := core.Prepare(id, g)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return l.AddPrepared(p)
}

// AddPrepared is Add for a region the caller has already prepared; its
// Name is the id.
func (l *Live) AddPrepared(p *core.Prepared) error {
	if p.Name == "" {
		return fmt.Errorf("index: empty region id")
	}
	if _, ok := l.ps[p.Name]; ok {
		return fmt.Errorf("index: duplicate region id %q", p.Name)
	}
	if err := l.tree.Insert(liveItem(p)); err != nil {
		return err
	}
	l.ps[p.Name] = p
	return nil
}

// take removes id's entry from the tree and returns its Prepared form; the
// map entry is left for the caller to overwrite or delete.
func (l *Live) take(id string) (*core.Prepared, error) {
	p, ok := l.ps[id]
	if !ok {
		return nil, fmt.Errorf("index: region %q not indexed", id)
	}
	if !l.tree.Delete(Item{ID: id, Box: p.Box}) {
		return nil, fmt.Errorf("index: region %q missing from tree (index corrupted)", id)
	}
	return p, nil
}

// Remove drops a region from the index.
func (l *Live) Remove(id string) error {
	if _, err := l.take(id); err != nil {
		return err
	}
	delete(l.ps, id)
	return nil
}

// Rename relabels a region in place: same geometry, new id.
func (l *Live) Rename(oldID, newID string) error {
	if newID == "" {
		return fmt.Errorf("index: empty region id")
	}
	if oldID == newID {
		return nil
	}
	if _, ok := l.ps[newID]; ok {
		return fmt.Errorf("index: duplicate region id %q", newID)
	}
	p, err := l.take(oldID)
	if err != nil {
		return err
	}
	// Prepared values are immutable; the renamed copy shares the geometry
	// buffers.
	np := *p
	np.Name = newID
	if err := l.tree.Insert(liveItem(&np)); err != nil {
		return err
	}
	l.ps[newID] = &np
	delete(l.ps, oldID)
	return nil
}

// SetGeometry replaces a region's geometry, moving its index entry to the
// new bounding box.
func (l *Live) SetGeometry(id string, g geom.Region) error {
	p, err := core.Prepare(id, g)
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	return l.SetPrepared(p)
}

// SetPrepared is SetGeometry for a replacement the caller has already
// prepared; its Name is the id.
func (l *Live) SetPrepared(p *core.Prepared) error {
	if _, err := l.take(p.Name); err != nil {
		return err
	}
	if err := l.tree.Insert(liveItem(p)); err != nil {
		return err
	}
	l.ps[p.Name] = p
	return nil
}

// Select runs the three-stage directional selection plan over the
// maintained index: window queries per constraint tile, MBB refinement,
// exact Compute-CDR refinement. Results are sorted ids.
func (l *Live) Select(reference geom.Region, allowed core.RelationSet) ([]string, error) {
	out, _, err := l.SelectStatsCtx(context.Background(), reference, allowed)
	return out, err
}

// SelectStats is Select with instrumentation.
func (l *Live) SelectStats(reference geom.Region, allowed core.RelationSet) ([]string, SelectStats, error) {
	return l.SelectStatsCtx(context.Background(), reference, allowed)
}

// SelectStatsCtx is SelectStats honoring a context: cancellation aborts the
// selection at the next candidate refinement.
func (l *Live) SelectStatsCtx(ctx context.Context, reference geom.Region, allowed core.RelationSet) ([]string, SelectStats, error) {
	return directionalSelect(ctx, l.tree, nil, reference, allowed)
}
