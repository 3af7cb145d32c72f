package cardirect

import (
	"math"
	"strings"
	"testing"

	"cardirect/internal/baseline"
	"cardirect/internal/clip"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/query"
	"cardirect/internal/topo"
	"cardirect/internal/workload"
)

// TestFacadeQuickstart exercises the README's quick-start snippet.
func TestFacadeQuickstart(t *testing.T) {
	a := BoxRegion(12, 2, 14, 10)
	b := BoxRegion(0, 0, 10, 6)
	rel, err := ComputeCDR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rel != Rel(TileNE, TileE) {
		t.Errorf("relation = %v, want NE:E", rel)
	}
	m, areas, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Get(TileNE)-50) > 1e-9 || math.Abs(m.Get(TileE)-50) > 1e-9 {
		t.Errorf("matrix = %v", m)
	}
	if math.Abs(areas.Total()-a.Area()) > 1e-9 {
		t.Errorf("total area = %v", areas.Total())
	}
}

func TestFacadeClippingAgrees(t *testing.T) {
	g := workload.New(7)
	for _, p := range g.Pairs(25, 9) {
		want, err := ComputeCDR(p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		got, err := clip.ComputeCDR(p.A, p.B)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("clip %v != core %v", got, want)
		}
	}
}

func TestFacadeReasoning(t *testing.T) {
	if !Inverse(S).Contains(N) {
		t.Error("inv(S) misses N")
	}
	if !Composition(SW, SW).Contains(SW) {
		t.Error("SW∘SW misses SW")
	}
	n := NewNetwork()
	n.ConstrainRel("a", "b", N)
	n.ConstrainRel("b", "a", S)
	w, err := n.Solve(SolveOptions{})
	if err != nil || w == nil {
		t.Fatalf("consistent network rejected: %v, %v", w, err)
	}
}

func TestFacadeConfigAndQuery(t *testing.T) {
	img := Greece()
	var sb strings.Builder
	if err := SaveImage(img, &sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadImage(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(back)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.EvalString("q(a, b) :- color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["b"] != "pylos" {
		t.Errorf("paper query = %v", got)
	}
}

func TestFacadeBaselines(t *testing.T) {
	a := BoxRegion(20, 3, 22, 5)
	b := BoxRegion(0, 0, 10, 6)
	if d := baseline.CentroidCone(a, b, 0); d.Tile() != TileE {
		t.Errorf("cone = %v", d)
	}
	r, err := MBBRelation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := ComputeCDR(a, b)
	if CompareMBB(r, exact).String() != "exact" {
		t.Errorf("MBB on boxes should be exact: %v vs %v", r, exact)
	}
}

func TestFacadeParsers(t *testing.T) {
	r, err := ParseRelation("B:S:SW")
	if err != nil || r.NumTiles() != 3 {
		t.Fatalf("ParseRelation: %v, %v", r, err)
	}
	s, err := ParseRelationSet("{N, NW:N}")
	if err != nil || s.Len() != 2 {
		t.Fatalf("ParseRelationSet: %v, %v", s, err)
	}
	q, err := query.Parse("q(x) :- color(x) = blue")
	if err != nil || len(q.Vars) != 1 {
		t.Fatalf("ParseQuery: %v, %v", q, err)
	}
	if len(core.AllRelations()) != 511 || core.Universe().Len() != 511 {
		t.Error("D* cardinality wrong")
	}
}

func TestFacadeWKTAndDecompose(t *testing.T) {
	r, err := ParseWKT("POLYGON ((0 0, 0 4, 4 4, 4 0), (1 1, 1 3, 3 3, 3 1))")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Area()-12) > 1e-9 {
		t.Errorf("area = %v", r.Area())
	}
	back, err := ParseWKT(geom.FormatWKT(r))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back.Area()-r.Area()) > 1e-9 {
		t.Error("WKT roundtrip changed area")
	}
	// A decomposed region works as a primary region.
	ref := BoxRegion(10, 0, 14, 4)
	if _, err := ComputeCDR(r, ref); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBatchAndIndex(t *testing.T) {
	regions := []NamedRegion{
		{Name: "ref", Region: BoxRegion(0, 0, 10, 6)},
		{Name: "sw", Region: BoxRegion(-5, -5, -1, -1)},
		{Name: "ne", Region: BoxRegion(12, 8, 14, 10)},
	}
	res, err := BatchCDR(nil, regions, &BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 6 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	items := make([]IndexItem, 0, len(regions))
	geoms := map[string]Region{}
	for _, r := range regions {
		items = append(items, IndexItem{Box: r.Region.BoundingBox(), ID: r.Name})
		geoms[r.Name] = r.Region
	}
	tree, err := BulkLoadRTree(items)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DirectionalSelect(tree, geoms, geoms["ref"], NewRelationSet(SW))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "sw" {
		t.Errorf("DirectionalSelect = %v", got)
	}
}

func TestFacadeEntail(t *testing.T) {
	n := NewNetwork()
	n.ConstrainRel("a", "b", SW)
	n.ConstrainRel("b", "c", SW)
	got, err := n.Entail("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || !got.Contains(SW) {
		t.Errorf("Entail = %v", got)
	}
}

func TestFacadeTopo(t *testing.T) {
	a := BoxRegion(0, 0, 4, 4)
	b := BoxRegion(2, 2, 6, 6)
	if got := ClassifyRCC8(a, b, 0); got != topo.PO {
		t.Errorf("RCC8 = %v, want PO", got)
	}
	if got := topo.IntersectionArea(a, b); math.Abs(got-4) > 1e-9 {
		t.Errorf("overlay area = %v, want 4", got)
	}
	far := BoxRegion(100, 0, 102, 2)
	if got := ClassifyRCC8(a, far, 0); got != topo.DC {
		t.Errorf("RCC8 = %v, want DC", got)
	}
	if got := ClassifyDistance(far, a); got != 4 { // DistFar
		t.Errorf("distance class = %v, want far", got)
	}
	if !topo.BoundariesTouch(a, BoxRegion(4, 0, 6, 4)) {
		t.Error("edge-sharing boxes should touch")
	}
	if got := topo.MinDistance(a, far); math.Abs(got-96) > 1e-9 {
		t.Errorf("MinDistance = %v, want 96", got)
	}
}
