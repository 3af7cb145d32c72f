// Package workload generates synthetic REG* regions for tests, examples and
// the experiment harness: random star-shaped polygons with exact edge counts
// (for the linear-scaling experiments E4–E7), multi-component regions,
// country-like regions with islands and enclave holes (the motivating shapes
// of the paper's §2: "countries are made up of separations … and holes"), and
// reference/primary region pairs at controlled relative placements.
//
// All generation is driven by an explicit seed, so every experiment is
// reproducible run-to-run.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"cardirect/internal/geom"
)

// Generator produces deterministic random workloads.
type Generator struct {
	rng *rand.Rand
}

// New returns a generator seeded with the given value; equal seeds produce
// identical workloads.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Float in [lo, hi).
func (g *Generator) uniform(lo, hi float64) float64 {
	return lo + g.rng.Float64()*(hi-lo)
}

// StarPolygon returns a simple polygon with exactly n ≥ 3 edges: vertices at
// strictly increasing jittered angles around (cx, cy) with radii drawn from
// [rMin, rMax], normalised clockwise. Star-shapedness about the centre
// guarantees simplicity.
func (g *Generator) StarPolygon(cx, cy, rMin, rMax float64, n int) geom.Polygon {
	if n < 3 {
		panic(fmt.Sprintf("workload: StarPolygon needs n ≥ 3, got %d", n))
	}
	if rMin <= 0 || rMax < rMin {
		panic(fmt.Sprintf("workload: bad radius range [%g, %g]", rMin, rMax))
	}
	p := make(geom.Polygon, n)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * (float64(i) + 0.1 + 0.8*g.rng.Float64()) / float64(n)
		r := g.uniform(rMin, rMax)
		p[i] = geom.Pt(cx+r*math.Cos(th), cy+r*math.Sin(th))
	}
	return p.Clockwise()
}

// smoothStar returns a coastline-like simple polygon with exactly n ≥ 3
// edges: a low-frequency harmonic radius profile around (cx, cy) bounded to
// [0.37r, 0.98r] with only tiny per-vertex jitter. Unlike StarPolygon, whose
// independent per-vertex radii put high-frequency noise on every edge, the
// boundary here is smooth at the vertex scale, the way densely-digitised
// administrative geometry is (thousands of raw vertices, dozens of
// significant ones).
// Star-shapedness about the centre (radius is always positive, angles
// strictly increasing) guarantees simplicity.
func (g *Generator) smoothStar(cx, cy, r float64, n int) geom.Polygon {
	if n < 3 {
		panic(fmt.Sprintf("workload: smoothStar needs n ≥ 3, got %d", n))
	}
	const harmonics = 5
	amp := make([]float64, harmonics)
	phase := make([]float64, harmonics)
	sum := 0.0
	for k := 0; k < harmonics; k++ {
		amp[k] = g.uniform(0, 0.3/float64(k+1))
		phase[k] = g.uniform(0, 2*math.Pi)
		sum += amp[k]
	}
	if sum > 0.3 {
		for k := range amp {
			amp[k] *= 0.3 / sum
		}
	}
	p := make(geom.Polygon, n)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * (float64(i) + 0.1 + 0.8*g.rng.Float64()) / float64(n)
		rad := 0.675
		for k := 0; k < harmonics; k++ {
			rad += amp[k] * math.Cos(float64(k+1)*th+phase[k])
		}
		rad += g.uniform(-0.001, 0.001)
		p[i] = geom.Pt(cx+r*rad*math.Cos(th), cy+r*rad*math.Sin(th))
	}
	return p.Clockwise()
}

// Box returns an axis-aligned rectangle polygon.
func Box(minX, minY, maxX, maxY float64) geom.Polygon {
	return geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	)
}

// BoxRegion returns a single-box region.
func BoxRegion(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(Box(minX, minY, maxX, maxY))
}

// Region returns a REG* region of nComponents disjoint star polygons whose
// centres are spread over the window. Component radii are capped so that
// components drawn in distinct grid cells cannot overlap.
func (g *Generator) Region(window geom.Rect, nComponents, edgesPerComponent int) geom.Region {
	if nComponents < 1 {
		panic("workload: Region needs at least one component")
	}
	cells := int(math.Ceil(math.Sqrt(float64(nComponents))))
	cw := window.Width() / float64(cells)
	ch := window.Height() / float64(cells)
	rMax := 0.45 * math.Min(cw, ch)
	rMin := 0.25 * rMax
	// Choose distinct cells.
	perm := g.rng.Perm(cells * cells)[:nComponents]
	out := make(geom.Region, 0, nComponents)
	for _, cell := range perm {
		cx := window.MinX + (float64(cell%cells)+0.5)*cw
		cy := window.MinY + (float64(cell/cells)+0.5)*ch
		out = append(out, g.StarPolygon(cx, cy, rMin, rMax, edgesPerComponent))
	}
	return out
}

// Country returns a country-like REG* region: a large mainland with a
// rectangular enclave hole (decomposed into two simple polygons sharing
// boundary segments, as in Fig. 2 of the paper), plus the given number of
// small islands placed east of the mainland. The total edge count grows
// with mainlandEdges and islands.
func (g *Generator) Country(cx, cy, size float64, mainlandEdges, islands int) geom.Region {
	if mainlandEdges < 8 {
		mainlandEdges = 8
	}
	// Mainland: ring with hole, as two C-shaped halves around a hole at the
	// centre. Build from an axis-aligned outer box with a jittered boundary
	// replaced by a star ring is complex; instead: outer star ring is
	// approximated by a box with many collinear-jittered vertices.
	hole := 0.25 * size
	outer := 0.5 * size
	// Left half: C-shape opening east.
	left := geom.Polygon{
		geom.Pt(cx-outer, cy+outer),
		geom.Pt(cx, cy+outer),
		geom.Pt(cx, cy+hole),
		geom.Pt(cx-hole, cy+hole),
		geom.Pt(cx-hole, cy-hole),
		geom.Pt(cx, cy-hole),
		geom.Pt(cx, cy-outer),
		geom.Pt(cx-outer, cy-outer),
	}
	right := geom.Polygon{
		geom.Pt(cx, cy+outer),
		geom.Pt(cx+outer, cy+outer),
		geom.Pt(cx+outer, cy-outer),
		geom.Pt(cx, cy-outer),
		geom.Pt(cx, cy-hole),
		geom.Pt(cx+hole, cy-hole),
		geom.Pt(cx+hole, cy+hole),
		geom.Pt(cx, cy+hole),
	}
	// Jagged west coastline: insert extra vertices along the closing edge
	// from the south-west corner back north to the north-west corner, each
	// jutting slightly further west. The polyline is y-monotone and stays
	// strictly west of the rest of the ring, so the ring remains simple and
	// clockwise.
	extra := mainlandEdges - len(left) - len(right)
	if extra > 0 {
		for i := 0; i < extra; i++ {
			frac := (float64(i) + 1) / (float64(extra) + 1)
			y := cy - outer + frac*2*outer
			x := cx - outer - g.uniform(0.01, 0.1)*size
			left = append(left, geom.Pt(x, y))
		}
	}
	out := geom.Region{left.Clockwise(), right.Clockwise()}
	// Islands east of the mainland.
	for i := 0; i < islands; i++ {
		ix := cx + outer + size*0.2 + float64(i%4)*size*0.35
		iy := cy - outer + float64(i/4)*size*0.3 + size*0.05
		r := size * 0.08
		out = append(out, g.StarPolygon(ix, iy, 0.4*r, r, 5+g.rng.Intn(4)))
	}
	return out
}

// Scatter returns n regions spread over a square window whose side grows
// with √n, with a deliberate mix of bounding-box configurations for batch
// (all-pairs) workloads: radii spanning an order of magnitude (many
// strictly-disjoint box pairs — the batch engine's perimeter fast path),
// periodic multi-component regions, and periodic small regions nested
// inside the previous region's bounding box (the contained-MBB fast path).
func (g *Generator) Scatter(n, edgesPerRegion int) []geom.Region {
	if n < 1 {
		panic("workload: Scatter needs at least one region")
	}
	e := maxInt(3, edgesPerRegion)
	side := math.Sqrt(float64(n)) * 10
	out := make([]geom.Region, 0, n)
	for i := 0; i < n; i++ {
		cx := g.uniform(0, side)
		cy := g.uniform(0, side)
		r := g.uniform(0.5, 6)
		switch {
		case i%7 == 3:
			// Two-component region: islands east of the mainland blob.
			half := maxInt(3, e/2)
			out = append(out, geom.Region{
				g.StarPolygon(cx, cy, 0.3*r, r, half),
				g.StarPolygon(cx+2.5*r, cy, 0.3*r, r, half),
			})
		case i%5 == 2 && i > 0:
			// Small region strictly inside the previous region's box.
			prev := out[i-1].BoundingBox()
			pc := prev.Center()
			rr := 0.15 * math.Min(prev.Width(), prev.Height())
			out = append(out, geom.Rgn(g.StarPolygon(pc.X, pc.Y, 0.4*rr, rr, e)))
		default:
			out = append(out, geom.Rgn(g.StarPolygon(cx, cy, 0.3*r, r, e)))
		}
	}
	return out
}

// Cluster returns n regions packed into overlapping groups: group centres
// are scattered over a window whose side grows with √groups, and each
// group's members are drawn within one group radius of its centre, so
// bounding boxes inside a group overlap heavily while distinct groups stay
// mostly far apart. This is the adversarial counterpart of Scatter for the
// batch engines — intra-group pairs defeat the MBB fast paths and exercise
// the full edge-splitting algorithms, while inter-group pairs still prune.
func (g *Generator) Cluster(n, groups, edgesPerRegion int) []geom.Region {
	if n < 1 {
		panic("workload: Cluster needs at least one region")
	}
	if groups < 1 {
		groups = 1
	}
	if groups > n {
		groups = n
	}
	e := maxInt(3, edgesPerRegion)
	side := math.Sqrt(float64(groups)) * 40
	centres := make([]geom.Point, groups)
	for i := range centres {
		centres[i] = geom.Pt(g.uniform(0, side), g.uniform(0, side))
	}
	const groupR = 4.0
	out := make([]geom.Region, 0, n)
	for i := 0; i < n; i++ {
		c := centres[i%groups]
		cx := c.X + g.uniform(-0.3, 0.3)*groupR
		cy := c.Y + g.uniform(-0.3, 0.3)*groupR
		// Radii close to the group radius: members straddle each other's
		// bounding boxes instead of nesting strictly inside single tiles.
		out = append(out, geom.Rgn(g.StarPolygon(cx, cy, 0.6*groupR, groupR, e)))
	}
	return out
}

// Zipf returns n regions inside the window whose sizes AND edge counts
// both follow a zipfian (power-law) rank distribution: a handful of giant,
// densely-digitised regions — three orders of magnitude bigger and more
// detailed than the median — above a long tail of small simple ones. This
// is the huge-world shape (administrative areas, lakes, land cover) the
// level-of-detail tier exists for: all-pairs cost concentrates in the few
// giant primaries, exactly where the strip stage pays. Every region is a
// single star polygon fully contained in the window; equal seeds produce
// identical worlds.
func (g *Generator) Zipf(window geom.Rect, n, maxEdges int) []geom.Region {
	if n < 1 {
		panic("workload: Zipf needs at least one region")
	}
	if maxEdges < 3 {
		maxEdges = 3
	}
	rMax := 0.25 * math.Min(window.Width(), window.Height())
	out := make([]geom.Region, 0, n)
	// Rank ordering IS the size ordering: out[0] is the biggest region.
	for i := 0; i < n; i++ {
		r := rMax / math.Pow(float64(i+1), 0.9)
		if minR := 1e-4 * rMax; r < minR {
			r = minR
		}
		// Steeper decay for detail than for size: edge counts reach the
		// simple tail within a few hundred ranks.
		edges := int(float64(maxEdges) / math.Pow(float64(i+1), 1.3))
		if edges < 3 {
			edges = 3
		}
		cx := g.uniform(window.MinX+r, window.MaxX-r)
		cy := g.uniform(window.MinY+r, window.MaxY-r)
		// Giants carry smooth, over-digitised coastlines; the simple tail
		// keeps the noisy stars.
		if edges >= 64 {
			out = append(out, geom.Rgn(g.smoothStar(cx, cy, r, edges)))
		} else {
			out = append(out, geom.Rgn(g.StarPolygon(cx, cy, 0.5*r, r, edges)))
		}
	}
	return out
}

// UrbanRural returns n regions inside the window in a clustered
// urban/rural pattern: a few dense city clusters hold roughly 80% of the
// regions (small parcels packed around each city centre, bounding boxes
// overlapping heavily), the remaining 20% are scattered rural regions up
// to an order of magnitude larger. Clustered workloads defeat coarse
// single-tile pruning inside a city while inter-city pairs still answer in
// O(1) — the adversarial counterpart of Zipf for the huge-world tier.
// Every region is fully contained in the window; equal seeds produce
// identical worlds.
func (g *Generator) UrbanRural(window geom.Rect, n, cities, edges int) []geom.Region {
	if n < 1 {
		panic("workload: UrbanRural needs at least one region")
	}
	if cities < 1 {
		cities = 1
	}
	e := maxInt(3, edges)
	w, h := window.Width(), window.Height()
	cityR := 0.03 * math.Min(w, h)
	centres := make([]geom.Point, cities)
	for i := range centres {
		centres[i] = geom.Pt(
			g.uniform(window.MinX+2*cityR, window.MaxX-2*cityR),
			g.uniform(window.MinY+2*cityR, window.MaxY-2*cityR),
		)
	}
	out := make([]geom.Region, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			// Rural: uniform placement, up to 10× a parcel's radius.
			r := g.uniform(0.02, 0.2) * cityR * 10
			cx := g.uniform(window.MinX+r, window.MaxX-r)
			cy := g.uniform(window.MinY+r, window.MaxY-r)
			out = append(out, geom.Rgn(g.StarPolygon(cx, cy, 0.5*r, r, e)))
			continue
		}
		// Urban: parcels packed inside one city's radius.
		c := centres[i%cities]
		r := g.uniform(0.05, 0.25) * cityR
		cx := c.X + g.uniform(-1, 1)*(cityR-r)
		cy := c.Y + g.uniform(-1, 1)*(cityR-r)
		out = append(out, geom.Rgn(g.StarPolygon(cx, cy, 0.5*r, r, e)))
	}
	return out
}

// Pair bundles a primary/reference region pair for relation workloads.
type Pair struct {
	A, B geom.Region
}

// Pairs returns n primary/reference pairs of star polygons with the given
// total edge budget per region, placed so the pair exhibits a diverse mix of
// overlapping, containing and disjoint configurations.
func (g *Generator) Pairs(n, edgesPerRegion int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		bx := g.uniform(-5, 5)
		by := g.uniform(-5, 5)
		b := geom.Rgn(g.StarPolygon(bx, by, 2, 5, maxInt(3, edgesPerRegion)))
		// Primary at a random offset spanning the interesting cases.
		ax := bx + g.uniform(-12, 12)
		ay := by + g.uniform(-12, 12)
		a := geom.Rgn(g.StarPolygon(ax, ay, 2, 8, maxInt(3, edgesPerRegion)))
		out[i] = Pair{A: a, B: b}
	}
	return out
}

// ScalingCase is one point of an edge-count sweep: a primary region with
// exactly Edges edges spanning all nine tiles of the fixed reference.
type ScalingCase struct {
	Edges int
	A, B  geom.Region
}

// ScalingSweep builds the workload for the linearity experiments (E4–E7): a
// fixed reference region and primary star polygons with exactly the given
// edge counts, sized to span all nine tiles so every code path is exercised.
func (g *Generator) ScalingSweep(edgeCounts []int) []ScalingCase {
	b := BoxRegion(-1, -1, 1, 1)
	out := make([]ScalingCase, 0, len(edgeCounts))
	for _, k := range edgeCounts {
		if k < 3 {
			panic(fmt.Sprintf("workload: scaling case needs ≥3 edges, got %d", k))
		}
		a := geom.Rgn(g.StarPolygon(0, 0, 2, 6, k))
		out = append(out, ScalingCase{Edges: k, A: a, B: b})
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
