package workload

import (
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a := New(42).StarPolygon(0, 0, 1, 3, 12)
	b := New(42).StarPolygon(0, 0, 1, 3, 12)
	if len(a) != len(b) {
		t.Fatal("different lengths from equal seeds")
	}
	for i := range a {
		if !a[i].Eq(b[i]) {
			t.Fatalf("vertex %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := New(43).StarPolygon(0, 0, 1, 3, 12)
	same := true
	for i := range a {
		if !a[i].Eq(c[i]) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical polygons")
	}
}

func TestStarPolygonValid(t *testing.T) {
	g := New(1)
	for _, n := range []int{3, 4, 7, 16, 64, 256} {
		p := g.StarPolygon(5, -3, 1, 4, n)
		if p.NumEdges() != n {
			t.Errorf("n=%d: got %d edges", n, p.NumEdges())
		}
		if !p.IsClockwise() {
			t.Errorf("n=%d: not clockwise", n)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestStarPolygonManySeedsValid(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		g := New(seed)
		p := g.StarPolygon(0, 0, 0.5, 3, 3+int(seed%20))
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestStarPolygonPanics(t *testing.T) {
	g := New(1)
	for _, fn := range []func(){
		func() { g.StarPolygon(0, 0, 1, 2, 2) },
		func() { g.StarPolygon(0, 0, 0, 2, 5) },
		func() { g.StarPolygon(0, 0, 3, 2, 5) },
		func() { g.Region(geom.Rect{MaxX: 1, MaxY: 1}, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for invalid parameters")
				}
			}()
			fn()
		}()
	}
}

func TestRegionComponentsDisjoint(t *testing.T) {
	g := New(5)
	window := geom.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	r := g.Region(window, 9, 8)
	if len(r) != 9 {
		t.Fatalf("components = %d", len(r))
	}
	if err := r.ValidateStrict(); err != nil {
		t.Fatalf("region not strictly valid: %v", err)
	}
	if got := r.NumEdges(); got != 9*8 {
		t.Errorf("edges = %d, want 72", got)
	}
	for _, p := range r {
		bb := p.BoundingBox()
		if !window.ContainsRect(bb) {
			t.Errorf("component %v escapes the window", bb)
		}
	}
}

func TestCountry(t *testing.T) {
	g := New(11)
	c := g.Country(0, 0, 10, 24, 6)
	if err := c.Validate(); err != nil {
		t.Fatalf("country invalid: %v", err)
	}
	if len(c) != 2+6 {
		t.Errorf("polygons = %d, want mainland halves + 6 islands", len(c))
	}
	// The enclave hole at the centre is not part of the region.
	if c.Contains(geom.Pt(0, 0)) {
		t.Error("hole centre should not be contained")
	}
	// Mainland material around the hole is.
	if !c.Contains(geom.Pt(0, 4)) || !c.Contains(geom.Pt(-4, 0)) {
		t.Error("mainland material missing")
	}
	// Edge budget reached.
	mainEdges := c[0].NumEdges() + c[1].NumEdges()
	if mainEdges != 24 {
		t.Errorf("mainland edges = %d, want 24", mainEdges)
	}
	// A country can serve as primary region against a reference box.
	b := BoxRegion(20, -2, 24, 2)
	if _, err := core.ComputeCDR(c, b); err != nil {
		t.Errorf("ComputeCDR on country: %v", err)
	}
}

func TestCountryMinimumEdges(t *testing.T) {
	g := New(3)
	c := g.Country(0, 0, 10, 0, 0) // below-minimum budget clamps to 16
	if err := c.Validate(); err != nil {
		t.Fatalf("minimal country invalid: %v", err)
	}
	if len(c) != 2 {
		t.Errorf("polygons = %d, want 2", len(c))
	}
}

func TestPairs(t *testing.T) {
	g := New(77)
	ps := g.Pairs(50, 10)
	if len(ps) != 50 {
		t.Fatalf("pairs = %d", len(ps))
	}
	rels := map[core.Relation]int{}
	for i, p := range ps {
		if err := p.A.Validate(); err != nil {
			t.Fatalf("pair %d primary: %v", i, err)
		}
		if err := p.B.Validate(); err != nil {
			t.Fatalf("pair %d reference: %v", i, err)
		}
		r, err := core.ComputeCDR(p.A, p.B)
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		rels[r]++
	}
	if len(rels) < 5 {
		t.Errorf("only %d distinct relations across pairs — placement not diverse", len(rels))
	}
}

func TestScalingSweep(t *testing.T) {
	g := New(123)
	counts := []int{8, 32, 128, 512}
	cases := g.ScalingSweep(counts)
	if len(cases) != len(counts) {
		t.Fatalf("cases = %d", len(cases))
	}
	for i, c := range cases {
		if c.Edges != counts[i] || c.A.NumEdges() != counts[i] {
			t.Errorf("case %d: edges = %d/%d, want %d", i, c.Edges, c.A.NumEdges(), counts[i])
		}
		rel, err := core.ComputeCDR(c.A, c.B)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// The primary spans all nine tiles (rMin 2 > box half-diagonal √2,
		// so the box is strictly inside the star's inner radius).
		if rel.NumTiles() != 9 {
			t.Errorf("case %d: relation %v spans %d tiles, want 9", i, rel, rel.NumTiles())
		}
	}
}

func TestBoxHelpers(t *testing.T) {
	b := Box(0, 0, 4, 2)
	if !b.IsClockwise() || b.Area() != 8 {
		t.Errorf("Box: cw=%v area=%v", b.IsClockwise(), b.Area())
	}
	r := BoxRegion(0, 0, 4, 2)
	if len(r) != 1 || r.Area() != 8 {
		t.Errorf("BoxRegion wrong: %v", r)
	}
}

func TestScatter(t *testing.T) {
	g := New(7)
	regions := g.Scatter(50, 8)
	if len(regions) != 50 {
		t.Fatalf("regions = %d, want 50", len(regions))
	}
	multi, nested := 0, 0
	for i, r := range regions {
		if err := r.Validate(); err != nil {
			t.Fatalf("region %d invalid: %v", i, err)
		}
		if len(r) > 1 {
			multi++
		}
		if i > 0 && regions[i-1].BoundingBox().ContainsRect(r.BoundingBox()) {
			nested++
		}
	}
	if multi == 0 {
		t.Error("Scatter produced no multi-component regions")
	}
	if nested == 0 {
		t.Error("Scatter produced no contained-MBB pairs")
	}
	// Determinism: equal seeds, equal workloads.
	again := New(7).Scatter(50, 8)
	for i := range regions {
		if regions[i].BoundingBox() != again[i].BoundingBox() {
			t.Fatalf("region %d differs across equal-seed runs", i)
		}
	}
}

func TestCluster(t *testing.T) {
	g := New(11)
	regions := g.Cluster(60, 6, 8)
	if len(regions) != 60 {
		t.Fatalf("regions = %d, want 60", len(regions))
	}
	for i, r := range regions {
		if err := r.Validate(); err != nil {
			t.Fatalf("region %d invalid: %v", i, err)
		}
	}
	// Round-robin group assignment: members of one group overlap heavily.
	// Require at least 90% of same-group box pairs to intersect — jitter can
	// push the odd pair apart, but the groups must stay dense.
	const groups = 6
	sameTotal, sameOverlap := 0, 0
	for i := range regions {
		for j := i + 1; j < len(regions); j++ {
			if i%groups != j%groups {
				continue
			}
			sameTotal++
			if regions[i].BoundingBox().Intersects(regions[j].BoundingBox()) {
				sameOverlap++
			}
		}
	}
	if sameTotal == 0 {
		t.Fatal("no same-group pairs")
	}
	if float64(sameOverlap) < 0.9*float64(sameTotal) {
		t.Errorf("only %d of %d same-group box pairs overlap", sameOverlap, sameTotal)
	}
	// Determinism: equal seeds, equal workloads.
	again := New(11).Cluster(60, 6, 8)
	for i := range regions {
		if regions[i].BoundingBox() != again[i].BoundingBox() {
			t.Fatalf("region %d differs across equal-seed runs", i)
		}
	}
}
