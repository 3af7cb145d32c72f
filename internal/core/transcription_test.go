package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// The paper transcription: Compute-CDR (Fig. 5) and Compute-CDR% (Fig. 10)
// written out literally over geom values — every clockwise-normalised edge
// cut on the four lines of mbb(b) by Grid.SplitEdge, every piece named by
// Grid.ClassifySegment, every area summed through El/Em. It shares no line
// with the SoA kernels (a separate split, a separately written
// classification), which is what makes it the reference: every differential
// test in this package holds the kernels, and the public
// ComputeCDR/ComputeCDRPct that run them, to it bit for bit.

// paperCDR is Compute-CDR: the tile of every split piece is tile-unioned
// into R, then tile B is added for each polygon containing the center of
// mbb(b) — the polygons that enclose the whole box and have no edge in it.
func paperCDR(a, b geom.Region) (Relation, Stats, error) {
	var st Stats
	if len(a) == 0 {
		return 0, st, fmt.Errorf("core: primary region is empty: %w", ErrDegenerateRegion)
	}
	if len(b) == 0 {
		return 0, st, fmt.Errorf("core: reference region is empty: %w", ErrDegenerateRegion)
	}
	grid, err := NewGrid(b.BoundingBox())
	if err != nil {
		return 0, st, err
	}
	center := grid.Box().Center()

	var rel Relation
	var buf []geom.Segment
	for _, p := range a {
		p = p.Clockwise() // interior-side tie-breaking needs the canonical orientation
		for i := 0; i < p.NumEdges(); i++ {
			st.EdgesIn++
			st.EdgeVisits++
			buf = grid.SplitEdge(p.Edge(i), buf[:0])
			st.Intersections += len(buf) - 1
			for _, s := range buf {
				st.EdgesOut++
				rel = rel.With(grid.ClassifySegment(s))
			}
		}
		st.PointInPoly++
		if p.Contains(center) {
			rel = rel.With(TileB)
		}
	}
	st.Passes = 1
	if !rel.IsValid() {
		return 0, st, fmt.Errorf("core: primary region produced no tiles (degenerate input): %w", ErrDegenerateRegion)
	}
	return rel, st, nil
}

// paperCDRPct is Compute-CDR%: per tile, the trapezoid expressions of its
// pieces against the tile's reference line (x = m1 for the west column,
// x = m2 for the east, y = l1 for S, y = l2 for N), and tile B recovered
// as area(B) = |area(B+N)| − |area(N)| from the B∪N slab against y = l1.
func paperCDRPct(a, b geom.Region) (PercentMatrix, TileAreas, Stats, error) {
	var st Stats
	var areas TileAreas
	if len(a) == 0 {
		return PercentMatrix{}, areas, st, fmt.Errorf("core: primary region is empty: %w", ErrDegenerateRegion)
	}
	if len(b) == 0 {
		return PercentMatrix{}, areas, st, fmt.Errorf("core: reference region is empty: %w", ErrDegenerateRegion)
	}
	grid, err := NewGrid(b.BoundingBox())
	if err != nil {
		return PercentMatrix{}, areas, st, err
	}

	var acc [NumTiles]float64 // per-tile trapezoid accumulators
	var accBN float64         // B∪N slab accumulator against y = l1
	var buf []geom.Segment
	for _, p := range a {
		p = p.Clockwise()
		for i := 0; i < p.NumEdges(); i++ {
			st.EdgesIn++
			st.EdgeVisits++
			buf = grid.SplitEdge(p.Edge(i), buf[:0])
			st.Intersections += len(buf) - 1
			for _, s := range buf {
				st.EdgesOut++
				t := grid.ClassifySegment(s)
				switch t {
				case TileNW, TileW, TileSW:
					acc[t] += Em(s.A, s.B, grid.M1)
				case TileNE, TileE, TileSE:
					acc[t] += Em(s.A, s.B, grid.M2)
				case TileS:
					acc[t] += El(s.A, s.B, grid.L1)
				case TileN:
					acc[t] += El(s.A, s.B, grid.L2)
				}
				if t == TileN || t == TileB {
					accBN += El(s.A, s.B, grid.L1)
				}
			}
		}
	}
	st.Passes = 1

	for _, t := range Tiles() {
		if t == TileB {
			continue
		}
		areas[t] = abs(acc[t])
	}
	// area(B) = |area(B+N)| − |area(N)|; clamp tiny negative float residue.
	if bArea := abs(accBN) - areas[TileN]; bArea > 0 {
		areas[TileB] = bArea
	}

	total := areas.Total()
	if total <= 0 {
		return PercentMatrix{}, areas, st, fmt.Errorf("core: primary region has zero area: %w", ErrDegenerateRegion)
	}
	return areas.Percent(), areas, st, nil
}

// El is the paper's trapezoid expression E_l(AB): the signed area between
// the edge AB and the horizontal reference line y = l (Definition 4). Its
// absolute value is the area of the trapezoid (A B L_B L_A); the sign flips
// with the edge direction, and summing E_l along a closed clockwise (y-up)
// ring yields the ring's (positive) area regardless of l.
func El(a, b geom.Point, l float64) float64 {
	return (b.X - a.X) * (a.Y + b.Y - 2*l) / 2
}

// Em is the paper's expression E'_m(AB): the signed area between AB and the
// vertical reference line x = m. Summing E'_m along a closed clockwise
// (y-up) ring yields the negated ring area. (The paper's Definition 4 has a
// typo — "2l" in the E'_m formula stands for 2m.)
func Em(a, b geom.Point, m float64) float64 {
	return (b.Y - a.Y) * (a.X + b.X - 2*m) / 2
}

func TestTrapezoidExpressions(t *testing.T) {
	// E_l over the clockwise unit square against y = 0 sums to +1 (the area)
	// regardless of the line, because the −2l terms telescope.
	sq := geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(0, 0))
	for _, l := range []float64{0, -3, 7} {
		var s float64
		for i := 0; i < sq.NumEdges(); i++ {
			e := sq.Edge(i)
			s += El(e.A, e.B, l)
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("ΣE_%g = %v, want 1", l, s)
		}
	}
	// ΣE'_m over a clockwise ring is −area.
	for _, m := range []float64{0, 5} {
		var s float64
		for i := 0; i < sq.NumEdges(); i++ {
			e := sq.Edge(i)
			s += Em(e.A, e.B, m)
		}
		if math.Abs(s+1) > 1e-12 {
			t.Errorf("ΣE'_%g = %v, want -1", m, s)
		}
	}
	// Antisymmetry: E_l(AB) = −E_l(BA), E'_m(AB) = −E'_m(BA).
	a, b := geom.Pt(1, 2), geom.Pt(4, 7)
	if El(a, b, 1) != -El(b, a, 1) {
		t.Error("E_l not antisymmetric")
	}
	if Em(a, b, 1) != -Em(b, a, 1) {
		t.Error("E'_m not antisymmetric")
	}
	// Definition 4 example value: the trapezoid between AB and the line.
	// A=(0,2), B=(4,4) against y=0: area = (2+4)/2·4 = 12.
	if got := El(geom.Pt(0, 2), geom.Pt(4, 4), 0); got != 12 {
		t.Errorf("E_0 = %v, want 12", got)
	}
	// E'_m: A=(2,0), B=(4,4) against x=0: (4−0)(2+4−0)/2 = 12.
	if got := Em(geom.Pt(2, 0), geom.Pt(4, 4), 0); got != 12 {
		t.Errorf("E'_0 = %v, want 12", got)
	}
}

// ClassifySegment returns the tile of a segment that is known not to cross
// any grid line (the invariant Compute-CDR establishes by splitting edges at
// line crossings). The segment's extent decides the tile, per axis: reaching
// west of x = m1 puts it in the west column, east of x = m2 in the east
// column, else the middle — the extent, not the midpoint, because the
// midpoint of a piece 1 ulp long rounds onto the line while the piece,
// however small, still belongs to the far side. When the segment lies
// exactly on a grid line — where the closed tiles overlap — the tile on the
// side of the polygon's interior is chosen: with the canonical clockwise
// (y-up) orientation, to the right of the directed segment, (dy, −dx). That
// keeps the algorithm exact for regions that touch mbb(b) lines: a region
// lying entirely west of b and sharing the line x = m1 is W of b, not B:W.
func (g Grid) ClassifySegment(s geom.Segment) Tile {
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y

	west, east := s.A.X, s.B.X
	if west > east {
		west, east = east, west
	}
	col := 1
	if west < g.M1 {
		col = 0
	} else if east > g.M2 {
		col = 2
	}
	if west == east && dy != 0 {
		if west == g.M1 {
			// Segment lies on the west line. Interior x-direction is
			// sign(dy): dy > 0 (northbound) puts the interior east of it.
			col = 0
			if dy > 0 {
				col = 1
			}
		} else if west == g.M2 {
			col = 1
			if dy > 0 {
				col = 2
			}
		}
	}

	south, north := s.A.Y, s.B.Y
	if south > north {
		south, north = north, south
	}
	row := 1
	if south < g.L1 {
		row = 0
	} else if north > g.L2 {
		row = 2
	}
	if south == north && dx != 0 {
		if south == g.L1 {
			// Segment lies on the south line. Interior y-direction is
			// sign(−dx): dx > 0 (eastbound) puts the interior south of it.
			row = 1
			if dx > 0 {
				row = 0
			}
		} else if south == g.L2 {
			row = 2
			if dx > 0 {
				row = 1
			}
		}
	}

	return TileAt(col, row)
}

// SplitEdge cuts the edge AB at its proper crossings with the four grid
// lines (Definition 3 of the paper: touching at an endpoint or lying on a
// line is not a crossing) and appends the resulting sub-segments to dst,
// returning the extended slice. Every appended segment lies in exactly one
// tile; their union is AB; crossing coordinates are snapped exactly onto the
// crossed line. At most four cuts can occur, so at most five segments are
// appended.
func (g Grid) SplitEdge(e geom.Segment, dst []geom.Segment) []geom.Segment {
	type cut struct {
		t    float64
		vert bool    // crossed line is vertical
		c    float64 // line coordinate
	}
	var cuts [4]cut
	n := 0
	add := func(t float64, vert bool, c float64) {
		cuts[n] = cut{t, vert, c}
		n++
	}
	if t, ok := e.CrossVertical(g.M1); ok {
		add(t, true, g.M1)
	}
	if t, ok := e.CrossVertical(g.M2); ok {
		add(t, true, g.M2)
	}
	if t, ok := e.CrossHorizontal(g.L1); ok {
		add(t, false, g.L1)
	}
	if t, ok := e.CrossHorizontal(g.L2); ok {
		add(t, false, g.L2)
	}
	if n == 0 {
		return append(dst, e)
	}
	// Insertion sort of up to four cuts by parameter.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && cuts[j].t < cuts[j-1].t; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	// Materialise cut points, coalescing a vertical/horizontal cut pair with
	// (nearly) equal parameters: that is an edge passing exactly through a
	// grid corner, whose two float parameters can disagree in the last ulp.
	// Without coalescing the sliver between the two snap points would be
	// classified into a diagonal tile the edge only touches at a point.
	const cornerEps = 1e-12
	pts := make([]geom.Point, 0, 4)
	for i := 0; i < n; i++ {
		if i+1 < n && cuts[i].vert != cuts[i+1].vert && cuts[i+1].t-cuts[i].t <= cornerEps {
			// Exact grid corner: both coordinates snap to their lines.
			x, y := cuts[i].c, cuts[i+1].c
			if !cuts[i].vert {
				x, y = y, x
			}
			pts = append(pts, geom.Point{X: x, Y: y})
			i++
			continue
		}
		if cuts[i].vert {
			pts = append(pts, e.AtOnVertical(cuts[i].t, cuts[i].c))
		} else {
			pts = append(pts, e.AtOnHorizontal(cuts[i].t, cuts[i].c))
		}
	}
	prev := e.A
	for _, p := range pts {
		if !p.Eq(prev) {
			dst = append(dst, geom.Segment{A: prev, B: p})
			prev = p
		}
	}
	if !prev.Eq(e.B) {
		dst = append(dst, geom.Segment{A: prev, B: e.B})
	}
	return dst
}

// sliverPrimary and sliverReference are the pinned 1-ulp reproducer: the
// triangle's south vertex lies 1 ulp below y = l1 of a reference whose box
// is [-0.1, 0.3] × [0.2, 0.6], so a piece of it — however small — is in SE.
// Classifying that piece by its rounded midpoint (which lands on the line)
// dropped SE in every full kernel while the MBB band path kept it.
func sliverPrimary() geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(0.5, 0.4),
		geom.Pt(0.30000000000000004, 0.4),
		geom.Pt(0.30000000000000004, 0.19999999999999998),
	))
}

func sliverReference() geom.Region { return box(-0.1, 0.2, 0.3, 0.6) }

// TestSliverStagesAgree pins the reproducer through the transcription and
// every stage that can answer the pair.
func TestSliverStagesAgree(t *testing.T) {
	a, b := sliverPrimary(), sliverReference()
	want := Rel(TileE, TileSE)
	if ref, _, err := paperCDR(a, b); err != nil || ref != want {
		t.Fatalf("transcription = %v, %v; want %v", ref, err, want)
	}
	got, err := ComputeCDR(a, b)
	if err != nil || got != want {
		t.Fatalf("ComputeCDR = %v, %v; want %v", got, err, want)
	}
	pa, err := Prepare("a", a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Prepare("b", b)
	if err != nil {
		t.Fatal(err)
	}
	if band, ok := pa.relateFast(pb.grid(), nil); !ok || band != want {
		t.Errorf("band path = %v, %v; want %v", band, ok, want)
	}
	if full := pa.relateFull(pb.grid(), nil); full != want {
		t.Errorf("full kernel = %v, want %v", full, want)
	}
	wantM, wantAreas, _, err := paperCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m, areas, err := ComputeCDRPct(a, b); err != nil || m != wantM || areas != wantAreas {
		t.Errorf("ComputeCDRPct = %v, %v, %v; transcription %v, %v", m, areas, err, wantM, wantAreas)
	}
	var areas TileAreas
	if _, err := pa.relatePctFullInto(&areas, pb.grid(), nil); err != nil {
		t.Fatal(err)
	}
	if areas != wantAreas {
		t.Errorf("percent kernel %v != transcription %v", areas, wantAreas)
	}
}

// latticeWorld draws one world of the transcription differential: regions
// whose vertices sit on a half-integer lattice, scaled and offset so that
// on-line contact, corner-threading diagonals, sub-nanometre features and
// 1e15 magnitudes all occur constantly. A vertex is placed as
// (off + scale·c) + scale·d — ring center first, ring offset second — while
// a region elsewhere reaches the nominally same coordinate through another
// center, so coordinates that are equal on the lattice differ by an ulp in
// floating point: the slivers the stages must agree on.
func latticeWorld(rng *rand.Rand, n int) []NamedRegion {
	scales := [...]float64{1e-9, 0.1, 1, 3, 1e15}
	offsets := [...]float64{0, 0.3, -1e9, 1e15}
	scale := scales[rng.Intn(len(scales))]
	// An offset is drawn only where the lattice step stays at least four of
	// its ulps: below that the rings collapse into 1-ulp-tall boxes whose
	// rounded center lands on their own boundary — outside REG*, and outside
	// what the center test of Fig. 5 can decide.
	offset := func() float64 {
		for {
			off := offsets[rng.Intn(len(offsets))]
			if mag := math.Abs(off); scale/2 >= 4*(math.Nextafter(mag, math.Inf(1))-mag) {
				return off
			}
		}
	}
	offX, offY := offset(), offset()
	half := func(lo, hi int) float64 { return float64(lo+rng.Intn(hi-lo+1)) / 2 }

	// ring returns a polygon of 3–6 vertices picked in clockwise order from
	// the lattice points on the square ring of radius r around (cx, cy) —
	// weakly convex, hence simple (or flat, when every pick shares a side:
	// the degenerate inputs the error legs compare).
	ring := func() geom.Polygon {
		cx, cy, r := half(-6, 6), half(-6, 6), half(1, 4)
		side := int(4 * r) // lattice points per side, the far corner excluded
		picks := rng.Perm(4 * side)[:3+rng.Intn(4)]
		sort.Ints(picks)
		poly := make(geom.Polygon, len(picks))
		bx, by := offX+scale*cx, offY+scale*cy
		for k, p := range picks {
			i := float64(p%side) / 2
			var dx, dy float64
			switch p / side {
			case 0: // north side, eastbound
				dx, dy = -r+i, r
			case 1: // east side, southbound
				dx, dy = r, r-i
			case 2: // south side, westbound
				dx, dy = r-i, -r
			default: // west side, northbound
				dx, dy = -r, -r+i
			}
			poly[k] = geom.Pt(bx+scale*dx, by+scale*dy)
		}
		return poly
	}
	out := make([]NamedRegion, n)
	for i := range out {
		r := geom.Region{ring()}
		if rng.Intn(2) == 0 {
			r = append(r, ring())
		}
		out[i] = NamedRegion{Name: string(rune('a' + i)), Region: r}
	}
	return out
}

// TestKernelsMatchPaperTranscription is the one differential against the one
// reference: on ≥ 10^5 seeded lattice pairs every stage that can answer a
// pair — the kernel with pruning on and off, Relate, the store's pair and
// row reads — returns exactly the transcription's relation, and with
// pruning off the percent kernel returns its areas and matrix bit for bit,
// failing exactly where it fails.
func TestKernelsMatchPaperTranscription(t *testing.T) {
	const worldSize, worlds = 6, 3400 // 30 ordered pairs each: 102 000 pairs
	rng := rand.New(rand.NewSource(20040314))
	ctx := context.Background()
	pairs, stored := 0, 0
	for w := 0; w < worlds; w++ {
		regions := latticeWorld(rng, worldSize)
		ps := make([]*Prepared, worldSize)
		names := make([]string, worldSize)
		for i, r := range regions {
			p, err := Prepare(r.Name, r.Region)
			if err != nil {
				t.Fatalf("world %d: %v", w, err)
			}
			ps[i], names[i] = p, r.Name
		}
		// want[i][j] is region i against reference j by the transcription.
		var want [worldSize][worldSize]Relation
		for i, a := range regions {
			for j, b := range regions {
				if i == j {
					continue
				}
				pairs++
				rel, _, err := paperCDR(a.Region, b.Region)
				got, gotErr := Relate(ps[i], ps[j], nil)
				if (err != nil) != (gotErr != nil) {
					t.Fatalf("world %d %s/%s: transcription err %v, Relate err %v\na %v\nb %v", w, a.Name, b.Name, err, gotErr, a.Region, b.Region)
				}
				if err != nil {
					continue
				}
				want[i][j] = rel
				g := ps[j].grid()
				if pruned, full := ps[i].relate(g, false, nil), ps[i].relate(g, true, nil); got != rel || pruned != rel || full != rel {
					t.Fatalf("world %d %s/%s: transcription %v, Relate %v, pruned %v, unpruned %v\na %v\nb %v",
						w, a.Name, b.Name, rel, got, pruned, full, a.Region, b.Region)
				}

				wantM, wantAreas, _, pctErr := paperCDRPct(a.Region, b.Region)
				var areas TileAreas
				total, gotPctErr := ps[i].relatePctAreasInto(&areas, g, true, nil)
				if (pctErr != nil) != (gotPctErr != nil) {
					t.Fatalf("world %d %s/%s: transcription err %v, kernel err %v\na %v\nb %v", w, a.Name, b.Name, pctErr, gotPctErr, a.Region, b.Region)
				}
				if pctErr != nil {
					continue
				}
				var m PercentMatrix
				percentInto(&m, &areas, total)
				if areas != wantAreas || m != wantM {
					t.Fatalf("world %d %s/%s: percent kernel not bit-identical\nkernel %v\ntranscription %v\na %v\nb %v",
						w, a.Name, b.Name, areas, wantAreas, a.Region, b.Region)
				}
			}
		}

		// The store's reads, where the world is one a store admits (every
		// box usable as a reference).
		s, err := NewRelationStore(regions, StoreOptions{Workers: 1})
		if err != nil {
			continue
		}
		stored++
		held, err := s.PreparedAll(names)
		if err != nil {
			t.Fatal(err)
		}
		var row [worldSize]Relation
		for i := range regions {
			for j := range regions {
				if i == j {
					continue
				}
				if got, err := s.Relation(names[i], names[j]); err != nil || got != want[i][j] {
					t.Fatalf("world %d: store %s/%s = %v, %v; want %v", w, names[i], names[j], got, err, want[i][j])
				}
			}
			for _, pinnedIsRef := range []bool{true, false} {
				if err := s.RelateRow(ctx, held[i], pinnedIsRef, held, row[:]); err != nil {
					t.Fatal(err)
				}
				for k := range regions {
					wantRow := B // a region is only B of itself
					switch {
					case k == i:
					case pinnedIsRef:
						wantRow = want[k][i]
					default:
						wantRow = want[i][k]
					}
					if row[k] != wantRow {
						t.Fatalf("world %d: RelateRow(pin %s, ref %v)[%s] = %v, want %v", w, names[i], pinnedIsRef, names[k], row[k], wantRow)
					}
				}
			}
		}
	}
	if pairs < 100000 {
		t.Errorf("only %d pairs", pairs)
	}
	if stored < worlds/2 {
		t.Errorf("only %d of %d worlds were admitted by a store", stored, worlds)
	}
}

// TestOneShotMatchesTranscription holds the public one-shot functions — the
// SoA kernels over a pooled preparation — to the transcription bit for bit:
// relation, tile areas, percent matrix, error text and every Stats counter
// but PointInPoly (the transcription tests each polygon's center, the
// kernel only where B is still open and the polygon's box holds it). Three
// inputs: the Theorems 1–2 sweep primaries of 10²…10⁴ edges, clockwise and
// reversed; lattice worlds; the fast-path fuzzers' seeds.
func TestOneShotMatchesTranscription(t *testing.T) {
	sameErr := func(a, b error) bool {
		return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
	}
	check := func(t *testing.T, label string, a, b geom.Region) {
		t.Helper()
		want, wantSt, wantErr := paperCDR(a, b)
		got, gotSt, err := ComputeCDRStats(a, b)
		wantSt.PointInPoly, gotSt.PointInPoly = 0, 0
		if got != want || gotSt != wantSt || !sameErr(err, wantErr) {
			t.Fatalf("%s: ComputeCDR = %v, %+v, %v; transcription %v, %+v, %v\na %v\nb %v",
				label, got, gotSt, err, want, wantSt, wantErr, a, b)
		}
		wantM, wantAreas, wantSt, wantErr := paperCDRPct(a, b)
		m, areas, gotSt, err := ComputeCDRPctStats(a, b)
		if m != wantM || areas != wantAreas || gotSt != wantSt || !sameErr(err, wantErr) {
			t.Fatalf("%s: ComputeCDRPct = %v, %v, %+v, %v; transcription %v, %v, %+v, %v\na %v\nb %v",
				label, m, areas, gotSt, err, wantM, wantAreas, wantSt, wantErr, a, b)
		}
	}

	for _, c := range workload.New(20040314).ScalingSweep([]int{100, 316, 1000, 3162, 10000}) {
		check(t, fmt.Sprintf("sweep %d", c.Edges), c.A, c.B)
		check(t, fmt.Sprintf("sweep %d reversed", c.Edges), reversed(c.A), c.B)
	}

	rng := rand.New(rand.NewSource(31))
	for w := 0; w < 1700; w++ { // 51 000 ordered pairs
		regions := latticeWorld(rng, 6)
		for _, a := range regions {
			for _, b := range regions {
				if a.Name != b.Name {
					check(t, fmt.Sprintf("lattice world %d %s/%s", w, a.Name, b.Name), a.Region, b.Region)
				}
			}
		}
	}

	for i, s := range mbbSeeds {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			a, b := fuzzPair(t, s.ax0, s.ay0, s.ax1, s.ay1, s.bx0, s.by0, s.bx1, s.by1, s.shape)
			check(t, fmt.Sprintf("fuzz seed %d", i), a, b)
			check(t, fmt.Sprintf("fuzz seed %d reversed", i), reversed(a), b)
		})
	}
}

// reversed returns r with every ring's vertex order reversed — a
// counter-clockwise copy of a clockwise region.
func reversed(r geom.Region) geom.Region {
	out := r.Clone()
	for _, ring := range out {
		slices.Reverse(ring)
	}
	return out
}
