package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"cardirect/internal/geom"
)

func preparedBox(t *testing.T, name string, minX, minY, maxX, maxY float64) *Prepared {
	t.Helper()
	p, err := Prepare(name, geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	)))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPrepareValidates(t *testing.T) {
	if _, err := Prepare("x", geom.Region{}); !errors.Is(err, ErrDegenerateRegion) {
		t.Errorf("empty region: err = %v, want ErrDegenerateRegion", err)
	}
	if _, err := Prepare("x", geom.Region{geom.Polygon{}}); !errors.Is(err, ErrDegenerateRegion) {
		t.Errorf("edgeless region: err = %v, want ErrDegenerateRegion", err)
	}
	// A line region prepares fine (usable as primary) but has no grid.
	line, err := Prepare("line", geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0))))
	if err != nil {
		t.Fatalf("line region should prepare: %v", err)
	}
	if !line.noGrid || line.gridErr() == nil {
		t.Error("line region should have no reference grid")
	}
	ref := preparedBox(t, "ref", 0, 0, 10, 6)
	if err := ref.gridErr(); ref.noGrid || err != nil {
		t.Errorf("box region grid: %v", err)
	}
	if _, err := Relate(line, ref, nil); err != nil {
		t.Errorf("line as primary should relate: %v", err)
	}
	if _, err := Relate(ref, line, nil); err == nil {
		t.Error("line as reference should fail")
	}
}

func TestPreparedFlattensEdges(t *testing.T) {
	r := geom.Rgn(
		geom.Poly(geom.Pt(0, 1), geom.Pt(1, 1), geom.Pt(1, 0), geom.Pt(0, 0)),
		geom.Poly(geom.Pt(3, 1), geom.Pt(4, 1), geom.Pt(4, 0), geom.Pt(3, 0)),
	)
	p, err := Prepare("r", r)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 8 {
		t.Errorf("edges = %d, want 8", p.NumEdges())
	}
	if p.Box != r.BoundingBox() {
		t.Errorf("Box = %v, want %v", p.Box, r.BoundingBox())
	}
	// Counter-clockwise input must be normalised.
	ccw := geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	q, err := Prepare("q", geom.Rgn(ccw))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Region()[0].IsClockwise() {
		t.Error("prepared region not clockwise-normalised")
	}
}

// TestRelateMatchesComputeCDR checks Relate against the reference
// implementation on the package's canonical fixtures, including
// boundary-touching inputs where the tie-break rule matters.
func TestRelateMatchesComputeCDR(t *testing.T) {
	ref := geom.Rgn(geom.Poly(geom.Pt(0, 6), geom.Pt(10, 6), geom.Pt(10, 0), geom.Pt(0, 0)))
	cases := []geom.Region{
		geom.Rgn(geom.Poly(geom.Pt(12, 10), geom.Pt(14, 10), geom.Pt(14, 2), geom.Pt(12, 2))),   // NE:E
		geom.Rgn(geom.Poly(geom.Pt(2, -1), geom.Pt(8, -1), geom.Pt(8, -5), geom.Pt(2, -5))),     // S
		geom.Rgn(geom.Poly(geom.Pt(-3, 5), geom.Pt(0, 5), geom.Pt(0, 1), geom.Pt(-3, 1))),       // W (shares x = 0)
		geom.Rgn(geom.Poly(geom.Pt(2, 5), geom.Pt(8, 5), geom.Pt(8, 1), geom.Pt(2, 1))),         // B
		geom.Rgn(geom.Poly(geom.Pt(-2, 8), geom.Pt(12, 8), geom.Pt(12, -2), geom.Pt(-2, -2))),   // all nine
		geom.Rgn(geom.Poly(geom.Pt(-4, 12), geom.Pt(-1, 12), geom.Pt(-1, -4), geom.Pt(-4, -4))), // SW:W:NW column
		geom.Rgn( // disconnected: one component S, one NE
			geom.Poly(geom.Pt(2, -2), geom.Pt(4, -2), geom.Pt(4, -4), geom.Pt(2, -4)),
			geom.Poly(geom.Pt(12, 8), geom.Pt(14, 8), geom.Pt(14, 7), geom.Pt(12, 7)),
		),
	}
	refP, err := Prepare("ref", ref)
	if err != nil {
		t.Fatal(err)
	}
	sc := &Scratch{}
	for i, a := range cases {
		want, err := ComputeCDR(a, ref)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Prepare("a", a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Relate(p, refP, sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("case %d: Relate = %v, ComputeCDR = %v", i, got, want)
		}
		if gg := p.RelateGrid(refP.grid(), sc); gg != want {
			t.Errorf("case %d: RelateGrid = %v, want %v", i, gg, want)
		}
	}
}

// TestFastPathHits pins down which inputs the two prune tiers answer and
// that their answers match the full algorithm.
func TestFastPathHits(t *testing.T) {
	ref := preparedBox(t, "ref", 0, 0, 10, 6)
	cases := []struct {
		name       string
		a          *Prepared
		wantRel    string
		singleTile bool
		band       bool
	}{
		{"strictly NE", preparedBox(t, "a", 12, 8, 14, 10), "NE", true, false},
		{"strictly inside B", preparedBox(t, "a", 2, 2, 8, 4), "B", true, false},
		{"west column spanning rows", preparedBox(t, "a", -4, -2, -1, 8), "SW:W:NW", false, true},
		{"middle column through B", preparedBox(t, "a", 2, -4, 8, 10), "B:S:N", false, true},
		{"south row spanning cols", preparedBox(t, "a", -4, -5, 14, -1), "S:SW:SE", false, true},
		// Touches x = 0 but sits strictly inside the middle row: the band
		// path's strict per-polygon inequalities resolve the on-line contact
		// to W exactly, agreeing with the interior-side tie-break.
		{"touching x = 0 (band)", preparedBox(t, "a", -3, 1, 0, 5), "W", false, true},
		{"overlapping corner (no fast path)", preparedBox(t, "a", 8, 4, 12, 8), "B:N:NE:E", false, false},
	}
	for _, c := range cases {
		var st Stats
		rel, ok := c.a.relateFast(ref.grid(), &st)
		if c.singleTile || c.band {
			if !ok {
				t.Errorf("%s: fast path did not fire", c.name)
				continue
			}
			if (st.PruneSingleTile == 1) != c.singleTile || (st.PruneBand == 1) != c.band {
				t.Errorf("%s: prune counters single=%d band=%d", c.name, st.PruneSingleTile, st.PruneBand)
			}
			if rel.String() != c.wantRel {
				t.Errorf("%s: fast = %v, want %s", c.name, rel, c.wantRel)
			}
		} else if ok {
			t.Errorf("%s: fast path fired unexpectedly with %v", c.name, rel)
		}
		// Whatever the path, the public answer must match ComputeCDR.
		want, err := ComputeCDR(c.a.Region(), ref.Region())
		if err != nil {
			t.Fatal(err)
		}
		got, err := Relate(c.a, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Relate = %v, ComputeCDR = %v", c.name, got, want)
		}
		if want.String() != c.wantRel {
			t.Errorf("%s: fixture relation = %v, expected %s", c.name, want, c.wantRel)
		}
	}
}

// TestFastPathDegenerateGuard: regions with zero-area rings or zero-length
// edges must skip the band path (the orientation argument breaks) but may
// still use the single-tile path.
func TestFastPathDegenerateGuard(t *testing.T) {
	ref := preparedBox(t, "ref", 0, 0, 10, 6)
	// A region whose second component is a horizontal line exactly on y = 0,
	// strictly west of the box: box spans only column 0.
	r := geom.Region{
		geom.Poly(geom.Pt(-4, 5), geom.Pt(-2, 5), geom.Pt(-2, 3), geom.Pt(-4, 3)),
		geom.Poly(geom.Pt(-4, 0), geom.Pt(-2, 0), geom.Pt(-3, 0)),
	}
	p, err := Prepare("r", r)
	if err != nil {
		t.Fatal(err)
	}
	if p.fastOK {
		t.Error("degenerate ring should clear fastOK")
	}
	if _, ok := p.relateFast(ref.grid(), nil); ok {
		t.Error("band path must not fire for degenerate rings")
	}
	want, err := ComputeCDR(r, ref.Region())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Relate(p, ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("Relate = %v, ComputeCDR = %v", got, want)
	}
	// Strictly inside a single tile the O(1) path is still safe.
	far := geom.Region{
		geom.Poly(geom.Pt(20, 20), geom.Pt(22, 20), geom.Pt(21, 20)), // zero-area ring
		geom.Poly(geom.Pt(20, 22), geom.Pt(22, 22), geom.Pt(22, 21), geom.Pt(20, 21)),
	}
	fp, err := Prepare("far", far)
	if err != nil {
		t.Fatal(err)
	}
	rel, ok := fp.relateFast(ref.grid(), nil)
	if !ok || rel != NE {
		t.Errorf("single-tile path = %v (fired %v), want NE", rel, ok)
	}
}

// TestPreparedSize pins the Prepared header: 10^5 of them are the largest
// single block of a huge world, so a new field is a decision, not an
// accident. Name, Box, one coordinate header, one polygon header, the
// total area and two flags make 112 bytes.
func TestPreparedSize(t *testing.T) {
	if got := unsafe.Sizeof(Prepared{}); got > 112 {
		t.Errorf("unsafe.Sizeof(Prepared{}) = %d, want ≤ 112", got)
	}
}

// TestPrepareAllAllocs pins how many blocks a preparation costs: Prepare
// makes the header, the coordinate block and the polygon metadata; a
// PrepareAll batch makes the name table, the result slice and three exact
// blocks, whatever its length.
func TestPrepareAllAllocs(t *testing.T) {
	regions := clusterWorkload(7, 50)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := Prepare(regions[0].Name, regions[0].Region); err != nil {
			t.Fatal(err)
		}
	}); allocs != 3 {
		t.Errorf("Prepare: %v allocations, want 3", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := PrepareAll(regions); err != nil {
			t.Fatal(err)
		}
	}); allocs != 5 {
		t.Errorf("PrepareAll over %d regions: %v allocations, want 5", len(regions), allocs)
	}
}

// TestPolyContainsDifferential checks the center-in-polygon test that reads
// the coordinate streams against geom.Polygon.Contains on the normalised
// ring, over convex, star and rectilinear rings of both orientations at
// three magnitudes, with the query points where the two could part ways: on
// vertices, on edges, collinear with horizontal edges beyond their ends,
// and around the box.
func TestPolyContainsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ring := func(kind int, scale float64) geom.Polygon {
		n := 3 + rng.Intn(20)
		out := make(geom.Polygon, 0, 2*n)
		cx, cy := float64(rng.Intn(200)-100), float64(rng.Intn(200)-100)
		for i := 0; i < n; i++ {
			ang := -2 * math.Pi * float64(i) / float64(n)
			rad := 40.0
			if kind > 0 {
				rad = float64(10 + rng.Intn(40))
			}
			v := geom.Pt(cx+math.Round(rad*math.Cos(ang)), cy+math.Round(rad*math.Sin(ang)))
			if kind == 2 && len(out) > 0 { // rectilinear: step in x, then in y
				out = append(out, geom.Pt(v.X, out[len(out)-1].Y))
			}
			out = append(out, v)
		}
		if rng.Intn(2) == 0 {
			for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
				out[i], out[j] = out[j], out[i]
			}
		}
		for i := range out {
			out[i] = out[i].Scale(scale)
		}
		return out
	}
	checked, inside := 0, 0
	for trial := 0; trial < 300; trial++ {
		scale := []float64{1, 1e15, 1e-15}[trial%3]
		var r geom.Region
		for k := 1 + rng.Intn(3); k > 0; k-- {
			r = append(r, ring(trial/3%3, scale))
		}
		p, err := Prepare("r", r)
		if err != nil {
			t.Fatal(err)
		}
		for k, poly := range r.Clockwise() {
			box := poly.BoundingBox()
			qs := []geom.Point{box.Center(), {X: box.MinX, Y: box.MinY}, {X: box.MaxX + scale, Y: box.Center().Y}}
			for i := range poly {
				e := poly.Edge(i)
				qs = append(qs, e.A, e.A.Mid(e.B), geom.Pt(e.A.X, e.B.Y))
				if e.A.Y == e.B.Y { // beyond both ends of a horizontal edge
					qs = append(qs, geom.Pt(math.Min(e.A.X, e.B.X)-scale, e.A.Y), geom.Pt(math.Max(e.A.X, e.B.X)+scale, e.A.Y))
				}
			}
			for i := 0; i < 8; i++ {
				qs = append(qs, geom.Pt(box.MinX+rng.Float64()*box.Width(), box.MinY+rng.Float64()*box.Height()))
			}
			for _, q := range qs {
				want := poly.Contains(q)
				if got := p.polyContains(k, q); got != want {
					t.Fatalf("trial %d polygon %d: polyContains(%v) = %v, Polygon.Contains = %v\nring %v", trial, k, q, got, want, poly)
				}
				checked++
				if want {
					inside++
				}
			}
		}
	}
	if inside == 0 || inside == checked {
		t.Fatalf("degenerate sample: %d of %d points inside", inside, checked)
	}
}

// Region materialises the region in the canonical clockwise orientation
// from the coordinate streams, as fresh slices.
func (p *Prepared) Region() geom.Region {
	ax, ay, _, _ := p.streams()
	out := make(geom.Region, len(p.polys))
	for k := range out {
		lo, hi := p.polyEdges(k)
		ring := make(geom.Polygon, hi-lo)
		for i := range ring {
			ring[i] = geom.Point{X: ax[int(lo)+i], Y: ay[int(lo)+i]}
		}
		out[k] = ring
	}
	return out
}

// NumEdges returns the region's total edge count (k in the paper's bounds).
func (p *Prepared) NumEdges() int { return len(p.c) / 4 }
