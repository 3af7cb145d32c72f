package core

// Arena is a bump allocator for Prepared construction. Loading a world of n
// regions through Prepare costs O(n) separate slice allocations (coordinate
// blocks, offset tables, polygon metadata), each individually tracked by the
// garbage collector; at the 10^5–10^6-region scale the batch engines target,
// that churn dominates load time and keeps the GC scanning long after. An
// Arena instead carves those slices out of a few large backing chunks — sub-
// slices with capped capacity, so neighbouring regions can never grow into
// each other's storage — turning per-region allocations into amortised slab
// allocations and freeing the whole world at once when the last Prepared is
// dropped.
//
// An Arena never frees individual regions: memory is reclaimed only when
// every Prepared built from it becomes unreachable. A long-lived store
// that replaces regions one by one (RelationStore) therefore prepares each
// region on its own; the one-shot bulk paths (PrepareAll, the batch
// engines' self-prepare, LoD worlds) draw from one.
//
// A nil *Arena is valid and falls back to plain per-call allocations, so
// construction paths take an optional arena without branching at every site.
// An Arena is not safe for concurrent use.
type Arena struct {
	f64   []float64
	i32   []int32
	polys []preparedPoly

	f64Chunk  int // size of the most recent float64 chunk
	i32Chunk  int
	polyChunk int

	chunks int   // total backing chunks allocated
	bytes  int64 // total backing bytes allocated
}

// Chunk sizing: start small enough that a single-region Prepare through an
// arena wastes little, grow geometrically so big worlds settle into a few
// large slabs, and cap the chunk size so the tail waste of the last chunk
// stays bounded.
const (
	arenaMinChunk = 1 << 12 // elements
	arenaMaxChunk = 1 << 20 // elements
)

// NewArena returns an empty arena. Chunks are allocated lazily on first use.
func NewArena() *Arena { return &Arena{} }

// arenaNext computes the size of the next chunk given the previous chunk
// size and the immediate need.
func arenaNext(prev, need int) int {
	n := prev * 2
	if n < arenaMinChunk {
		n = arenaMinChunk
	}
	if n > arenaMaxChunk {
		n = arenaMaxChunk
	}
	if n < need {
		n = need
	}
	return n
}

// float64s returns a zeroed []float64 of length n carved from the arena, or
// a plain allocation when the arena is nil. The result has capacity exactly
// n, so appends by the caller can never clobber a neighbouring block.
func (a *Arena) float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if n > len(a.f64) {
		a.f64Chunk = arenaNext(a.f64Chunk, n)
		a.f64 = make([]float64, a.f64Chunk)
		a.chunks++
		a.bytes += int64(a.f64Chunk) * 8
	}
	out := a.f64[:n:n]
	a.f64 = a.f64[n:]
	return out
}

// int32s is the int32 analogue of float64s.
func (a *Arena) int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if n > len(a.i32) {
		a.i32Chunk = arenaNext(a.i32Chunk, n)
		a.i32 = make([]int32, a.i32Chunk)
		a.chunks++
		a.bytes += int64(a.i32Chunk) * 4
	}
	out := a.i32[:n:n]
	a.i32 = a.i32[n:]
	return out
}

// polySlab returns a zeroed []preparedPoly of length n carved from the
// arena, or a plain allocation when the arena is nil.
func (a *Arena) polySlab(n int) []preparedPoly {
	if a == nil {
		return make([]preparedPoly, n)
	}
	if n > len(a.polys) {
		a.polyChunk = arenaNext(a.polyChunk, n)
		a.polys = make([]preparedPoly, a.polyChunk)
		a.chunks++
		a.bytes += int64(a.polyChunk) * int64(preparedPolySize)
	}
	out := a.polys[:n:n]
	a.polys = a.polys[n:]
	return out
}

// preparedPolySize approximates unsafe.Sizeof(preparedPoly{}) without
// importing unsafe: ring header (24) + box (32) + area (8).
const preparedPolySize = 64

// ArenaStats describes an arena's backing storage, for capacity planning and
// tests.
type ArenaStats struct {
	// Chunks is the number of backing slabs allocated so far.
	Chunks int
	// Bytes is the total size of those slabs.
	Bytes int64
}

// Stats returns the arena's allocation counters.
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Chunks: a.chunks, Bytes: a.bytes}
}
