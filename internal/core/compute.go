package core

import (
	"fmt"

	"cardirect/internal/geom"
)

// Stats reports instrumentation for one algorithm run; the experiment
// harness uses it to reproduce the paper's edge-count and scan-count
// comparisons against polygon clipping (Fig. 3, Example 3, §3 discussion).
type Stats struct {
	EdgesIn       int // edges of the primary region before splitting
	EdgesOut      int // segments after splitting on the mbb lines
	EdgeVisits    int // number of edge traversals (EdgesIn × passes)
	Passes        int // scans over the primary region's edge list (1 for Compute-CDR)
	PointInPoly   int // center tests run: B still open, polygon box holds the center
	Intersections int // intersection points computed (each costs a division)

	// Batch-engine prune counters: pairs answered by the MBB fast path
	// with zero edge splits (see Prepared.relateFast).
	PruneSingleTile int // mbb(primary) strictly inside one tile → O(1) relation
	PruneBand       int // mbb(primary) strictly inside one row/column → per-polygon boxes

	// Quantitative prune counters: percent matrices answered from areas
	// cached at Prepare time with zero edge splits (see relatePctAreasInto).
	PrunePctTile int // mbb(primary) strictly inside one tile → O(1) matrix
	PrunePctPoly int // every polygon box strictly inside one tile → O(#polygons)

	// DeltaPairs is always zero: the RelationStore computes pairs on demand
	// and an edit recomputes none. The field stays because the benchmark
	// harness reports it (core.delta_pairs_per_edit).
	DeltaPairs int

	// BulkBatches counts RelationStore.AddBulk edits — one per bulk
	// ingest, regardless of how many regions arrive.
	BulkBatches int

	// Huge-world tier counters (see LoDWorld): pairs answered from the
	// coarse cell-span summary in O(1), from the edges near the grid lines,
	// and pairs that fell through to the full kernel.
	CoarseSingleTile int // coarse cell spans decided a single-tile pair
	LoDStrip         int // strip stage decided the pair
	LoDExact         int // strip stage absent or declined: full kernel
	// Always zero: the simplified-geometry tier this counted is gone. The
	// field stays because the benchmark harness sums it into its tier
	// shares (bench/probes.go).
	LoDSimplified int
}

// Merge adds the counters of other into st; the batch engine uses it to
// aggregate per-worker instrumentation.
func (st *Stats) Merge(other Stats) {
	st.EdgesIn += other.EdgesIn
	st.EdgesOut += other.EdgesOut
	st.EdgeVisits += other.EdgeVisits
	st.Passes += other.Passes
	st.PointInPoly += other.PointInPoly
	st.Intersections += other.Intersections
	st.PruneSingleTile += other.PruneSingleTile
	st.PruneBand += other.PruneBand
	st.PrunePctTile += other.PrunePctTile
	st.PrunePctPoly += other.PrunePctPoly
	st.DeltaPairs += other.DeltaPairs
	st.BulkBatches += other.BulkBatches
	st.CoarseSingleTile += other.CoarseSingleTile
	st.LoDSimplified += other.LoDSimplified
	st.LoDStrip += other.LoDStrip
	st.LoDExact += other.LoDExact
}

// ComputeCDR implements Algorithm Compute-CDR (Fig. 5 of the paper): it
// returns the basic cardinal direction relation R such that a R b holds,
// where a is the primary and b the reference region, both in REG* and
// represented as sets of simple polygons.
//
// The algorithm makes a single pass over the edges of a: each edge is split
// at its proper crossings with the four lines of mbb(b) so that every
// sub-segment lies in exactly one tile, and the tile of each sub-segment
// (decided by its extent, with on-line segments resolved to the interior
// side) is tile-unioned into R. Finally, for each polygon of a containing
// the center of mbb(b), tile B is added — this catches polygons that strictly
// enclose the whole bounding box and therefore have no edge inside it.
//
// The running time is O(k_a + k_b), where k_a and k_b are the total edge
// counts of a and b (Theorem 1 of the paper). The pass is the batch
// engine's kernel (relateFull, no MBB pruning) over a preparation of a
// written into pooled scratch storage, so a warm call allocates nothing;
// transcription_test.go keeps the literal Fig. 5 / Fig. 10 loops as the
// reference both are held to bit for bit.
func ComputeCDR(a, b geom.Region) (Relation, error) {
	r, _, err := computeCDR(a, b)
	return r, err
}

// ComputeCDRStats is ComputeCDR with instrumentation.
func ComputeCDRStats(a, b geom.Region) (Relation, Stats, error) {
	return computeCDR(a, b)
}

func computeCDR(a, b geom.Region) (Relation, Stats, error) {
	var st Stats
	grid, err := oneShotGrid(a, b)
	if err != nil {
		return 0, st, err
	}
	sc := getScratch()
	defer putScratch(sc)
	rel := sc.primary(a).relateFull(grid, &st)
	st.Passes = 1
	if !rel.IsValid() {
		return 0, st, fmt.Errorf("core: primary region produced no tiles (degenerate input): %w", ErrDegenerateRegion)
	}
	return rel, st, nil
}

// oneShotGrid checks the one-shot functions' arguments — both regions
// non-empty, the reference's box a usable grid — and returns that grid.
func oneShotGrid(a, b geom.Region) (Grid, error) {
	if len(a) == 0 {
		return Grid{}, fmt.Errorf("core: primary region is empty: %w", ErrDegenerateRegion)
	}
	if len(b) == 0 {
		return Grid{}, fmt.Errorf("core: reference region is empty: %w", ErrDegenerateRegion)
	}
	return NewGrid(b.BoundingBox())
}
