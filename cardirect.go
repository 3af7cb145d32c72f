// Package cardirect is a Go implementation of "Computing and Handling
// Cardinal Direction Information" (Skiadopoulos, Giannoukos, Vassiliadis,
// Sellis, Koubarakis — EDBT 2004): the cardinal direction relation model
// for composite regions (REG*), the paper's two linear-time computation
// algorithms, the reasoning operations built on the model (inverse,
// composition, consistency of constraint networks), the MBB-approximation
// baseline, and the CARDIRECT tool's XML configuration store and query
// language.
//
// # Quick start
//
//	a := cardirect.BoxRegion(12, 2, 14, 10)   // primary region
//	b := cardirect.BoxRegion(0, 0, 10, 6)     // reference region
//	rel, _ := cardirect.ComputeCDR(a, b)      // NE:E
//	m, _, _ := cardirect.ComputeCDRPct(a, b)  // 50% NE, 50% E
//
// # What this package exports
//
// The implementation lives in the internal packages (geom, core, baseline,
// reason, config, query, index, topo, workload, and the service layers
// behind cmd/cardirectd). The comparators only the experiments measure the
// system against, polygon clipping (experiments/clip) and the centroid-cone
// model, live under internal/experiments. This package exports the paper's
// model — the geometry, the tiles, relations, relation sets and percent
// matrices, Compute-CDR and Compute-CDR% — plus NamedRegion, and otherwise
// exactly the names that a program under examples/ or a Go block of
// README.md calls as cardirect.X. A name with no such caller is not
// re-exported; TestFacadeSurface holds the rule in both directions.
package cardirect

import (
	"io"

	"cardirect/internal/baseline"
	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/persist"
	"cardirect/internal/query"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
	"cardirect/internal/workload"
)

// Geometry types (planar substrate).
type (
	// Point is a location in the plane.
	Point = geom.Point
	// Polygon is a simple polygon as a clockwise vertex ring.
	Polygon = geom.Polygon
	// Region is a REG* region: a set of simple polygons, possibly
	// disconnected, possibly encoding holes via shared boundaries.
	Region = geom.Region
)

// Geometry constructors.
var (
	// Pt builds a Point.
	Pt = geom.Pt
	// Poly builds a Polygon from vertices.
	Poly = geom.Poly
	// Rgn builds a Region from polygons.
	Rgn = geom.Rgn
	// Box builds an axis-aligned rectangle polygon.
	Box = workload.Box
	// BoxRegion builds a single-rectangle region.
	BoxRegion = workload.BoxRegion
)

// Relation model types.
type (
	// Tile identifies one of the nine tiles (B, S, SW, W, NW, N, NE, E, SE).
	Tile = core.Tile
	// Relation is a basic cardinal direction relation — a non-empty tile set.
	Relation = core.Relation
	// RelationSet is a set of basic relations (disjunctive information).
	RelationSet = core.RelationSet
	// PercentMatrix is a direction relation matrix with percentages.
	PercentMatrix = core.PercentMatrix
	// TileAreas holds per-tile absolute areas.
	TileAreas = core.TileAreas
)

// Tile constants re-exported in canonical order.
const (
	TileB  = core.TileB
	TileS  = core.TileS
	TileSW = core.TileSW
	TileW  = core.TileW
	TileNW = core.TileNW
	TileN  = core.TileN
	TileNE = core.TileNE
	TileE  = core.TileE
	TileSE = core.TileSE
)

// Single-tile relation constants.
const (
	B  = core.B
	S  = core.S
	SW = core.SW
	W  = core.W
	NW = core.NW
	N  = core.N
	NE = core.NE
	E  = core.E
	SE = core.SE
)

// Relation model functions.
var (
	// Rel builds a relation from tiles.
	Rel = core.Rel
	// ParseRelation parses "B:S:SW"-style notation.
	ParseRelation = core.ParseRelation
	// ParseRelationSet parses "{N, NW:N}"-style notation.
	ParseRelationSet = core.ParseRelationSet
	// NewRelationSet builds a relation set from members.
	NewRelationSet = core.NewRelationSet
)

// The paper's algorithms (§3).
var (
	// ComputeCDR is Algorithm Compute-CDR: the qualitative cardinal
	// direction relation between two REG* regions, in a single pass over
	// the primary region's edges.
	ComputeCDR = core.ComputeCDR
	// ComputeCDRPct is Algorithm Compute-CDR%: the cardinal direction
	// relation with percentages.
	ComputeCDRPct = core.ComputeCDRPct
)

// Prior-art approximation (§1–§2 positioning).
var (
	// MBBRelation is the bounding-box-only relation.
	MBBRelation = baseline.MBB
	// CompareMBB grades an MBB answer against the exact relation.
	CompareMBB = baseline.CompareMBB
)

// SolveOptions bounds the consistency search of a constraint network.
type SolveOptions = reason.SolveOptions

// Reasoning operations ("handling", §2 and the paper's refs [20–22]).
var (
	// Inverse computes inv(R) — the possible relations of b w.r.t. a
	// given a R b.
	Inverse = reason.Inverse
	// Composition computes the sound composition of two relations.
	Composition = reason.Composition
	// NewNetwork creates an empty constraint network.
	NewNetwork = reason.NewNetwork
)

// Image is a CARDIRECT configuration document (§4).
type Image = config.Image

var (
	// Greece is the paper's Fig. 11 Peloponnesian-war configuration.
	Greece = config.Greece
	// ParsePct decodes a pct attribute into a PercentMatrix.
	ParsePct = config.ParsePct
	// NewEvaluator prepares a query evaluator (§4) for a configuration. It
	// reads every relation from a RelationStore over the regions' geometry:
	// the maintained one UseStore attaches, or its own.
	NewEvaluator = query.NewEvaluator
	// NewPlanCache returns an LRU cache of query plans to share across
	// evaluators, invalidated by the store's edit generation.
	NewPlanCache = query.NewPlanCache
	// NewGenerator returns a seeded generator of synthetic regions.
	NewGenerator = workload.New
)

// LoadImage reads a configuration from a reader: a CARDIRECT XML document,
// or a cardirectd binary snapshot (a data directory's snapshot-<n>.bin, or
// the body of GET /v1/replication/snapshot).
func LoadImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return persist.Load(data)
}

// SaveImage writes a configuration as XML.
func SaveImage(img *Image, w io.Writer) error { return img.Save(w) }

// Batch computation (beyond-paper conveniences that preserve the
// algorithms' single-pass structure).
type (
	// NamedRegion pairs a region with an identifier for batch APIs.
	NamedRegion = core.NamedRegion
	// BatchOptions tunes the all-pairs batch engines (worker count,
	// disabling the MBB prune fast path, pre-prepared regions).
	BatchOptions = core.BatchOptions
	// StoreOptions tunes a relation store (worker count, percent answers).
	StoreOptions = core.StoreOptions
	// LoDOptions tunes PrepareLoDWorld (coarse grid resolution, sweep
	// workers).
	LoDOptions = core.LoDOptions
)

var (
	// BatchCDR is the all-pairs batch entry point: every ordered pair's
	// qualitative relation under a context, with options for worker count,
	// pruning and pre-prepared regions.
	BatchCDR = core.BatchCDR
	// BatchPct is the quantitative counterpart of BatchCDR: every ordered
	// pair's percent matrix under a context.
	BatchPct = core.BatchPct
	// PrepareAll preprocesses a named batch for repeated Relate calls,
	// validating names. The batch is built in a few exact-size blocks and
	// reclaimed as a whole.
	PrepareAll = core.PrepareAll
	// Relate computes the relation between two prepared regions; the
	// trailing scratch argument is unused and may be nil.
	Relate = core.Relate
	// RelatePct computes the relation with percentages between two prepared
	// regions, allocation-free; the scratch argument may be nil.
	RelatePct = core.RelatePct
	// NewRelationStore builds a store over named regions that answers any
	// pair on demand: one Prepare per region, no pair computed, and an edit
	// re-prepares only the touched region.
	NewRelationStore = core.NewRelationStore
	// Track binds a configuration to a maintained relation store and live
	// R-tree. The document then changes only through the returned Tracked's
	// edit methods (AddRegion, RemoveRegion, RenameRegion,
	// SetRegionGeometry, BulkAddRegions, Apply), each of which updates
	// store, index and document together or, refused, none of them.
	Track = config.Track
	// PrepareLoDWorld builds the huge-world tier over a named region set:
	// one slab of prepared regions and a coarse-tile summary. It copies
	// what it needs; the caller's rings are not referenced afterwards.
	// Answers through LoDWorld.BatchRows are bit-identical to the exact
	// kernel (fuzzed: FuzzLoDDifferential).
	PrepareLoDWorld = core.PrepareLoDWorld
)

// ParseWKT reads POLYGON/MULTIPOLYGON Well-Known Text into a Region,
// decomposing holes into the paper's REG* representation.
var ParseWKT = geom.ParseWKT

// IndexItem is one box with an identifier in an R-tree (the access method
// of the paper's reference [13]).
type IndexItem = index.Item

var (
	// BulkLoadRTree packs items with sort-tile-recursive loading.
	BulkLoadRTree = index.BulkLoad
	// DirectionalSelect finds regions matching a relation set against a
	// reference, pruning candidates with one R-tree window query per
	// constraint tile before MBB and exact refinement.
	DirectionalSelect = index.DirectionalSelect
)

// Topological and distance relations (the paper's §5 future-work item 2:
// "combining topological [2] and distance relations [3]" with directions).
var (
	// ClassifyRCC8 determines the topological relation of two regions.
	ClassifyRCC8 = topo.Classify
	// ClassifyDistance quantises the minimum distance of two regions
	// against the reference's scale.
	ClassifyDistance = topo.ClassifyDistance
)
