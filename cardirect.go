// Package cardirect is a Go implementation of "Computing and Handling
// Cardinal Direction Information" (Skiadopoulos, Giannoukos, Vassiliadis,
// Sellis, Koubarakis — EDBT 2004): the cardinal direction relation model
// for composite regions (REG*), the paper's two linear-time computation
// algorithms, the reasoning operations built on the model (inverse,
// composition, consistency of constraint networks), polygon-clipping and
// point/MBB-approximation baselines, and the CARDIRECT tool's XML
// configuration store and query language.
//
// # Quick start
//
//	a := cardirect.BoxRegion(12, 2, 14, 10)   // primary region
//	b := cardirect.BoxRegion(0, 0, 10, 6)     // reference region
//	rel, _ := cardirect.ComputeCDR(a, b)      // NE:E
//	m, _, _ := cardirect.ComputeCDRPct(a, b)  // 50% NE, 50% E
//
// The package is a façade: the implementation lives in the internal
// packages (geom, core, clip, baseline, reason, config, query, index,
// topo, workload), re-exported here as a single stable API surface.
package cardirect

import (
	"io"

	"cardirect/internal/baseline"
	"cardirect/internal/clip"
	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/persist"
	"cardirect/internal/query"
	"cardirect/internal/reason"
	"cardirect/internal/topo"
	"cardirect/internal/wal"
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
	// Rect is an axis-aligned rectangle (minimum bounding boxes).
	Rect = geom.Rect
	// Segment is a directed edge.
	Segment = geom.Segment
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
	// Stats instruments one algorithm run (edge counts, passes).
	Stats = core.Stats
	// Grid is the nine-tile partition induced by a reference bounding box.
	Grid = core.Grid
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
	// AllRelations lists the 511 basic relations of D*.
	AllRelations = core.AllRelations
	// UniverseSet is the set of all basic relations.
	UniverseSet = core.Universe
	// NewGrid builds the tile grid of a reference bounding box.
	NewGrid = core.NewGrid
)

// The paper's algorithms (§3).
var (
	// ComputeCDR is Algorithm Compute-CDR: the qualitative cardinal
	// direction relation between two REG* regions, in a single pass over
	// the primary region's edges.
	ComputeCDR = core.ComputeCDR
	// ComputeCDRStats is ComputeCDR with instrumentation.
	ComputeCDRStats = core.ComputeCDRStats
	// ComputeCDRPct is Algorithm Compute-CDR%: the cardinal direction
	// relation with percentages.
	ComputeCDRPct = core.ComputeCDRPct
	// ComputeCDRPctStats is ComputeCDRPct with instrumentation.
	ComputeCDRPctStats = core.ComputeCDRPctStats
)

// Polygon-clipping baselines (§3's comparison method).
var (
	// ClipComputeCDR computes the relation by clipping the primary region
	// against all nine tiles (nine passes).
	ClipComputeCDR = clip.ComputeCDR
	// ClipComputeCDRStats is ClipComputeCDR with instrumentation.
	ClipComputeCDRStats = clip.ComputeCDRStats
	// ClipComputeCDRPct computes percentages by clip-then-measure.
	ClipComputeCDRPct = clip.ComputeCDRPct
	// ClipComputeCDRPctStats is ClipComputeCDRPct with instrumentation.
	ClipComputeCDRPctStats = clip.ComputeCDRPctStats
	// LiangBarsky clips a segment against a rectangle (possibly unbounded).
	LiangBarsky = clip.LiangBarsky
)

// Approximate prior-art models (§1–§2 positioning).
type (
	// Direction is a cone direction of the centroid-based models.
	Direction = baseline.Direction
	// Agreement grades a coarse model against the exact relation.
	Agreement = baseline.Agreement
)

var (
	// CentroidCone is the Frank-style cone direction between centroids.
	CentroidCone = baseline.CentroidCone
	// MBBRelation is the bounding-box-only relation.
	MBBRelation = baseline.MBB
	// PeuquetDirection resolves direction Peuquet & Ci-Xiang-style.
	PeuquetDirection = baseline.PeuquetDirection
	// CompareMBB grades an MBB answer against the exact relation.
	CompareMBB = baseline.CompareMBB
	// CompareCone grades a cone answer against the exact relation.
	CompareCone = baseline.CompareCone
)

// Reasoning operations ("handling", §2 and the paper's refs [20–22]).
type (
	// Network is a cardinal direction constraint network.
	Network = reason.Network
	// Witness realises a consistent network as concrete regions.
	Witness = reason.Witness
	// SolveOptions bounds the consistency search.
	SolveOptions = reason.SolveOptions
	// CheckOptions configures the staged consistency pipeline Check.
	CheckOptions = reason.CheckOptions
	// CheckResult is Check's outcome: satisfiability, witness, stage stats.
	CheckResult = reason.CheckResult
	// CheckStats reports what each stage of the consistency pipeline did.
	CheckStats = reason.CheckStats
	// TopoConstraint is one RCC-8 constraint checked jointly with the
	// directional network.
	TopoConstraint = reason.TopoConstraint
	// RCC8Set is a set of RCC-8 base relations (disjunctive topology).
	RCC8Set = topo.RCC8Set
	// RCC8Net is an RCC-8 constraint network with path-consistency
	// propagation.
	RCC8Net = topo.RCC8Net
)

var (
	// Inverse computes inv(R) — the possible relations of b w.r.t. a
	// given a R b.
	Inverse = reason.Inverse
	// InverseSet lifts Inverse to disjunctive relations.
	InverseSet = reason.InverseSet
	// MutuallyInverse tests joint realisability of (R1, R2).
	MutuallyInverse = reason.MutuallyInverse
	// Composition computes the sound composition of two relations.
	Composition = reason.Composition
	// CompositionSets lifts Composition to disjunctive relations.
	CompositionSets = reason.CompositionSets
	// NewNetwork creates an empty constraint network.
	NewNetwork = reason.NewNetwork
	// ErrSearchLimit reports an exhausted scenario budget; matched with
	// errors.Is.
	ErrSearchLimit = reason.ErrSearchLimit
	// ErrInconsistent reports a certainly-inconsistent network (returned by
	// Entail); matched with errors.Is.
	ErrInconsistent = reason.ErrInconsistent
	// ParseRCC8Set parses "TPP|NTPP"-style RCC-8 set notation ("*" = all).
	ParseRCC8Set = topo.ParseRCC8Set
	// RCC8Of builds an RCC8Set from base relations.
	RCC8Of = topo.RCC8Of
	// ComposeRCC8 is the RCC-8 composition table lookup.
	ComposeRCC8 = topo.ComposeRCC8
	// ComposeRCC8Sets lifts ComposeRCC8 to disjunctive sets.
	ComposeRCC8Sets = topo.ComposeRCC8Sets
	// NewRCC8Net creates an RCC-8 constraint network.
	NewRCC8Net = topo.NewRCC8Net
)

// RCC8All is the universal RCC-8 relation set.
const RCC8All = topo.RCC8All

// CARDIRECT configuration store (§4).
type (
	// Image is a CARDIRECT configuration document.
	Image = config.Image
	// ConfigRegion is a named, coloured region of a configuration.
	ConfigRegion = config.Region
	// ConfigRelation is a materialised relation entry.
	ConfigRelation = config.Relation
)

var (
	// LoadImage parses a CARDIRECT XML document from a reader.
	LoadImage = config.Load
	// ParseImage parses a CARDIRECT XML document from bytes.
	ParseImage = config.Parse
	// Greece is the paper's Fig. 11 Peloponnesian-war configuration.
	Greece = config.Greece
	// ParsePct decodes a pct attribute into a PercentMatrix.
	ParsePct = config.ParsePct
)

// Query language (§4).
type (
	// Query is a parsed conjunctive query.
	Query = query.Query
	// Binding is one query answer (variable → region id).
	Binding = query.Binding
	// Evaluator answers queries over a configuration, reading every relation
	// from a RelationStore over the regions' geometry: the maintained one
	// UseStore attaches, or its own. The document's Relation elements are
	// never consulted.
	Evaluator = query.Evaluator
	// QueryResult is a planned evaluation's full outcome: bindings plus the
	// executed plan, cache outcome and store generation.
	QueryResult = query.Result
	// PlanInfo describes an executed query plan: join order, condition
	// schedule, pushed-down conditions and candidate-set sizes.
	PlanInfo = query.PlanInfo
	// PlanCache is an LRU cache of query plans keyed by query text,
	// invalidated by the store's edit generation.
	PlanCache = query.PlanCache
	// PlanCacheStats counts plan cache hits, misses and replans.
	PlanCacheStats = query.PlanCacheStats
)

var (
	// ParseQuery parses the concrete query syntax.
	ParseQuery = query.Parse
	// NewEvaluator prepares a query evaluator for a configuration.
	NewEvaluator = query.NewEvaluator
	// NewPlanCache returns an LRU plan cache to share across evaluators.
	NewPlanCache = query.NewPlanCache
)

// Workload generation (experiments and examples).
type (
	// Generator produces deterministic synthetic regions.
	Generator = workload.Generator
	// WorkloadPair is a primary/reference region pair.
	WorkloadPair = workload.Pair
)

// NewGenerator returns a seeded workload generator.
var NewGenerator = workload.New

// SaveImage writes a configuration as XML.
func SaveImage(img *Image, w io.Writer) error { return img.Save(w) }

// Batch computation (beyond-paper conveniences that preserve the
// algorithms' single-pass structure).
type (
	// NamedRegion pairs a region with an identifier for batch APIs.
	NamedRegion = core.NamedRegion
	// PairRelation is one batch result entry.
	PairRelation = core.PairRelation
	// PairPercent is one quantitative batch result entry: the percent
	// matrix and per-tile areas of one ordered pair.
	PairPercent = core.PairPercent
	// Prepared is a region preprocessed for repeated relation computation:
	// clockwise-normalised, edges flattened, bounding box and tile grid
	// precomputed. Immutable after Prepare; safe for concurrent use.
	Prepared = core.Prepared
	// Scratch holds reusable per-goroutine buffers for the LoD tier and the
	// one-shot ComputeCDR/ComputeCDRPct (which take theirs from a pool);
	// Relate and RelatePct accept one but need none (pass nil).
	Scratch = core.Scratch
	// BatchOptions tunes the all-pairs batch engines (worker count,
	// disabling the MBB prune fast path, pre-prepared regions).
	BatchOptions = core.BatchOptions
	// BatchResult is the output of BatchCDR: sorted pair relations plus
	// aggregated instrumentation.
	BatchResult = core.BatchResult
	// BatchPctResult is the output of BatchPct: sorted percent matrices
	// plus aggregated instrumentation.
	BatchPctResult = core.BatchPctResult
	// RelationStore holds the prepared form of a set of named regions and
	// answers any pair's relation (and optionally percent matrix) by running
	// the kernels on demand; an edit re-prepares only the touched region.
	RelationStore = core.RelationStore
	// StoreOptions tunes a RelationStore (worker count, percent answers).
	StoreOptions = core.StoreOptions
	// LoDWorld is the huge-world tier over a prepared region set: a
	// coarse-tile relation summary answering clearly-single-tile pairs
	// O(1), a strip index over the edges near the reference's four lines
	// for the big regions, and the exact kernel as the fallback. Every
	// answer is bit-identical to the exact kernel.
	LoDWorld = core.LoDWorld
	// LoDOptions tunes LoDWorld construction (coarse grid resolution,
	// sweep workers).
	LoDOptions = core.LoDOptions
	// CoarseIndex is the standalone coarse-tile summary: bounding boxes
	// quantised to a cell grid, O(1) single-tile pair answers.
	CoarseIndex = core.CoarseIndex
	// BulkRegion is one entry of a streamed bulk ingest into a tracked
	// configuration (Tracked.BulkAddRegions): the whole batch lands as
	// one edit.
	BulkRegion = config.BulkRegion
	// Tracked binds a configuration document to a maintained RelationStore
	// and live R-tree and applies every edit to all three (AddRegion,
	// RemoveRegion, RenameRegion, SetRegionGeometry, BulkAddRegions); a
	// refused edit changes none of them.
	Tracked = config.Tracked
	// LiveIndex is an R-tree kept in sync under region edits
	// (add/remove/rename/geometry change).
	LiveIndex = index.Live
)

var (
	// BatchCDR is the consolidated all-pairs batch entry point: every
	// ordered pair's qualitative relation under a context, with options for
	// worker count, pruning and pre-prepared regions.
	BatchCDR = core.BatchCDR
	// BatchPct is the quantitative counterpart of BatchCDR: every ordered
	// pair's percent matrix under a context.
	BatchPct = core.BatchPct
	// Prepare preprocesses one region for repeated Relate calls.
	Prepare = core.Prepare
	// PrepareAll preprocesses a named batch, validating names. The batch
	// is built in a few exact-size blocks and reclaimed as a whole; use
	// Prepare for regions with independent lifetimes.
	PrepareAll = core.PrepareAll
	// Relate computes the relation between two prepared regions.
	Relate = core.Relate
	// RelatePct computes the relation with percentages between two prepared
	// regions, allocation-free.
	RelatePct = core.RelatePct
	// ErrDegenerateRegion reports a region unusable by the algorithms
	// (empty, or with no edges); matched with errors.Is.
	ErrDegenerateRegion = core.ErrDegenerateRegion
	// NewRelationStore builds a store over named regions: one Prepare per
	// region, no pair computed.
	NewRelationStore = core.NewRelationStore
	// ErrUnknownRegion reports a store operation naming a region the store
	// does not hold; matched with errors.Is.
	ErrUnknownRegion = core.ErrUnknownRegion
	// ErrUnknownConfigRegion is the configuration-layer counterpart for
	// the Tracked edit methods; it wraps ErrUnknownRegion, so one errors.Is
	// check covers both layers.
	ErrUnknownConfigRegion = config.ErrUnknownRegion
	// ErrDuplicateRegion reports a Tracked edit reusing an existing region
	// id; matched with errors.Is.
	ErrDuplicateRegion = config.ErrDuplicateRegion
	// Track binds a configuration to a maintained RelationStore and live
	// index; subsequent Image edits update both incrementally.
	Track = config.Track
	// NewLiveIndex builds a maintained R-tree over named regions.
	NewLiveIndex = index.NewLive
	// PrepareLoDWorld builds the huge-world tier over a named region set:
	// one slab of prepared regions and a coarse-tile summary. It copies
	// what it needs; the caller's rings are not referenced afterwards.
	// Answers through LoDWorld.Relation / BatchRows are bit-identical to
	// the exact kernel (fuzzed: FuzzLoDDifferential).
	PrepareLoDWorld = core.PrepareLoDWorld
	// NewCoarseIndex summarises bounding boxes on a cell grid for O(1)
	// single-tile pair answers.
	NewCoarseIndex = core.NewCoarseIndex
)

// Durable persistence (write-ahead log + snapshots + crash recovery).
type (
	// PersistStore owns a data directory — snapshot XML plus write-ahead
	// log — and the tracked configuration recovered from it; edits routed
	// through it are logged before they are acknowledged.
	PersistStore = persist.Store
	// PersistOptions configures OpenPersist (fsync policy, workers, pct).
	PersistOptions = persist.Options
	// PersistStatus reports the durability counters of a PersistStore.
	PersistStatus = persist.Status
	// SnapshotInfo describes one snapshot rotation.
	SnapshotInfo = persist.SnapshotInfo
	// WALOptions selects the log's fsync discipline.
	WALOptions = wal.Options
	// SyncPolicy is the fsync policy of the write-ahead log.
	SyncPolicy = wal.SyncPolicy
)

// Write-ahead log fsync policies.
const (
	// SyncAlways fsyncs after every record: an acknowledged edit is on
	// stable storage.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a timer: bounded data loss, higher throughput.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves flushing to the OS.
	SyncNever = wal.SyncNever
)

var (
	// OpenPersist recovers a durable store from a data directory (or
	// initialises it from a seed configuration).
	OpenPersist = persist.Open
	// ParseSyncPolicy parses "always", "interval" or "never".
	ParseSyncPolicy = wal.ParseSyncPolicy
	// ErrEmptyWorld reports a snapshot attempt on a configuration with no
	// regions; matched with errors.Is.
	ErrEmptyWorld = persist.ErrEmptyWorld
)

// Geometry interchange and construction helpers.
var (
	// ParseWKT reads POLYGON/MULTIPOLYGON Well-Known Text into a Region,
	// decomposing holes into the paper's REG* representation.
	ParseWKT = geom.ParseWKT
	// FormatWKT renders a Region as MULTIPOLYGON Well-Known Text.
	FormatWKT = geom.FormatWKT
	// DecomposeWithHoles converts outer-ring-plus-holes into REG*.
	DecomposeWithHoles = geom.DecomposeWithHoles
	// ParseGeoJSON reads a GeoJSON Polygon/MultiPolygon into a Region.
	ParseGeoJSON = geom.ParseGeoJSON
	// FormatGeoJSON renders a Region as a GeoJSON MultiPolygon.
	FormatGeoJSON = geom.FormatGeoJSON
	// ConvexHull computes the convex hull of points.
	ConvexHull = geom.ConvexHull
	// HullOfRegion computes the convex hull of a region's vertices.
	HullOfRegion = geom.HullOfRegion
)

// Spatial indexing (the R-tree substrate of the paper's reference [13]).
type (
	// RTree is an in-memory R-tree over bounding boxes.
	RTree = index.RTree
	// IndexItem is one indexed box with an identifier.
	IndexItem = index.Item
	// SelectStats instruments one directional selection: candidates
	// visited by the window queries versus the index size.
	SelectStats = index.SelectStats
)

var (
	// NewRTree returns an empty R-tree.
	NewRTree = index.New
	// BulkLoadRTree packs items with sort-tile-recursive loading.
	BulkLoadRTree = index.BulkLoad
	// DirectionalSelect finds regions matching a relation set against a
	// reference, pruning candidates with one R-tree window query per
	// constraint tile before MBB and exact refinement.
	DirectionalSelect = index.DirectionalSelect
	// DirectionalSelectStats is DirectionalSelect with instrumentation.
	DirectionalSelectStats = index.DirectionalSelectStats
)

// Topological and distance relations (the paper's §5 future-work item 2:
// "combining topological [2] and distance relations [3]" with directions).
type (
	// RCC8 is a Region Connection Calculus base relation.
	RCC8 = topo.RCC8
	// QualitativeDistance is a Frank-style distance class.
	QualitativeDistance = topo.Distance
)

// RCC8 base relation constants.
const (
	RccDC    = topo.DC
	RccEC    = topo.EC
	RccPO    = topo.PO
	RccEQ    = topo.EQ
	RccTPP   = topo.TPP
	RccNTPP  = topo.NTPP
	RccTPPi  = topo.TPPi
	RccNTPPi = topo.NTPPi
)

var (
	// IntersectionArea computes the exact overlay area of two regions.
	IntersectionArea = topo.IntersectionArea
	// BoundariesTouch tests boundary contact between two regions.
	BoundariesTouch = topo.BoundariesTouch
	// ClassifyRCC8 determines the topological relation of two regions.
	ClassifyRCC8 = topo.Classify
	// MinDistance is the minimum Euclidean distance between two regions.
	MinDistance = topo.MinDistance
	// ClassifyDistance quantises MinDistance against the reference's scale.
	ClassifyDistance = topo.ClassifyDistance
)
