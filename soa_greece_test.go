package cardirect

import "testing"

// TestFacadeSoAGreeceDifferential runs the paper's Fig. 11 Greece fixture
// through both batch engines and asserts output bit-identical to the paper
// transcription (ComputeCDR, ComputeCDRPct) — relations, absolute tile areas
// and percent matrices compared with exact float equality. With pruning on
// the quantitative fast path may answer from cached polygon areas, a
// different float sum, so the percent leg runs with pruning off. The core
// package cannot import the fixture (internal/config imports core), so the
// Greece leg of the SoA differential lives here at the facade.
func TestFacadeSoAGreeceDifferential(t *testing.T) {
	img := Greece()
	regions := make([]NamedRegion, len(img.Regions))
	byName := make(map[string]Region, len(img.Regions))
	for i := range img.Regions {
		regions[i] = NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
		byName[regions[i].Name] = regions[i].Region
	}
	for _, noPrune := range []bool{false, true} {
		qual, err := BatchCDR(nil, regions, &BatchOptions{Workers: 1, NoPrune: noPrune})
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range qual.Pairs {
			want, err := ComputeCDR(byName[g.Primary], byName[g.Reference])
			if err != nil {
				t.Fatal(err)
			}
			if g.Relation != want {
				t.Errorf("noPrune=%v: %s vs %s = %v, ComputeCDR %v", noPrune, g.Primary, g.Reference, g.Relation, want)
			}
		}
	}
	pct, err := BatchPct(nil, regions, &BatchOptions{Workers: 1, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(pct.Pairs) != len(regions)*(len(regions)-1) {
		t.Fatalf("%d pct pairs", len(pct.Pairs))
	}
	for _, g := range pct.Pairs {
		m, areas, err := ComputeCDRPct(byName[g.Primary], byName[g.Reference])
		if err != nil {
			t.Fatal(err)
		}
		if g.Areas != areas || g.Matrix != m {
			t.Errorf("%s vs %s not bit-identical to ComputeCDRPct", g.Primary, g.Reference)
		}
	}
}
