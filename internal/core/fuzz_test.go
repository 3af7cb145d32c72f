package core

import (
	"math"
	"testing"

	"cardirect/internal/geom"
)

// FuzzParseRelation checks the relation parser never panics and that every
// successfully parsed relation roundtrips through its canonical String form.
func FuzzParseRelation(f *testing.F) {
	for _, seed := range []string{
		"B", "B:S:SW", "b:s:sw", "NE:E", "B:S:SW:W:NW:N:NE:E:SE",
		"", ":", "B::S", "B:S:B", "X", "B S", "B,S", "b:S:w",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRelation(s)
		if err != nil {
			return
		}
		if !r.IsValid() {
			t.Fatalf("ParseRelation(%q) returned invalid relation %v without error", s, r)
		}
		back, err := ParseRelation(r.String())
		if err != nil || back != r {
			t.Fatalf("roundtrip failed for %q: %v → %v (%v)", s, r, back, err)
		}
	})
}

// FuzzParseRelationSet does the same for disjunctive notation.
func FuzzParseRelationSet(f *testing.F) {
	for _, seed := range []string{
		"{}", "{N}", "{N, NW:N}", "B:S", "{N,}", "{,}", "{N NW}", "{",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := ParseRelationSet(s)
		if err != nil {
			return
		}
		back, err := ParseRelationSet(set.String())
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", set.String(), err)
		}
		if !back.Equal(set) {
			t.Fatalf("roundtrip changed the set: %v vs %v", set, back)
		}
	})
}

// mbbSeed is one input of the fast-path fuzzers: fuzzPair's arguments.
type mbbSeed struct {
	ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64
	shape                                  uint8
}

// mbbSeeds are the shared seeds of FuzzMBBFastPath and FuzzMBBFastPathPct
// (and one input of TestOneShotMatchesTranscription).
var mbbSeeds = []mbbSeed{
	{0, 0, 2, 2, 4, 0, 6, 2, 1},
	{-3, 1, 0, 5, 0, 0, 10, 6, 1},   // touching x = m1
	{2, 2, 8, 4, 0, 0, 10, 6, 3},    // contained
	{-4, -2, -1, 8, 0, 0, 10, 6, 7}, // west column
	{1, -9, 3, -1, 0, 0, 4, 4, 5},   // touching y = l1
	// The 1-ulp sliver of TestSliverStagesAgree: raw coordinates, triangle.
	{0.30000000000000004, 0.19999999999999998, 0.5, 0.4, -0.1, 0.2, 0.3, 0.6, 24},
}

func fuzzSeeds(f *testing.F) {
	for _, s := range mbbSeeds {
		f.Add(s.ax0, s.ay0, s.ax1, s.ay1, s.bx0, s.by0, s.bx1, s.by1, s.shape)
	}
}

// fuzzPair builds the fast-path fuzzers' pair from raw fuzz input: a
// rectangular reference b, and a primary a of up to two rectangles and a
// triangle. Coordinates are quantized to a 1/4 lattice so exact on-line
// contact — the tie-break territory — occurs constantly; shape bit 8 takes
// them raw instead, which is where vertices 1 ulp across a line come from,
// and bit 16 cuts the base rectangle to its north-west triangle. Inputs
// that form no pair skip the run.
func fuzzPair(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64, shape uint8) (a, b geom.Region) {
	for _, c := range []*float64{&ax0, &ay0, &ax1, &ay1, &bx0, &by0, &bx1, &by1} {
		if v := *c; v != v || v > 64 || v < -64 {
			t.Skip("out of range")
		}
		if shape&8 == 0 {
			*c = mathRound4(*c)
		}
	}
	if bx1 <= bx0 || by1 <= by0 {
		t.Skip("degenerate reference")
	}
	if ax1 <= ax0 || ay1 <= ay0 {
		t.Skip("degenerate primary")
	}
	b = geom.Rgn(geom.Poly(
		geom.Pt(bx0, by1), geom.Pt(bx1, by1), geom.Pt(bx1, by0), geom.Pt(bx0, by0),
	))
	a = geom.Region{geom.Poly(
		geom.Pt(ax0, ay1), geom.Pt(ax1, ay1), geom.Pt(ax1, ay0), geom.Pt(ax0, ay0),
	)}
	if shape&16 != 0 {
		a = geom.Region{geom.Poly(geom.Pt(ax1, ay1), geom.Pt(ax0, ay1), geom.Pt(ax0, ay0)).Clockwise()}
	}
	if shape&1 != 0 { // second rectangle, offset east
		w, h := ax1-ax0, ay1-ay0
		a = append(a, geom.Poly(
			geom.Pt(ax0+2*w, ay1+h), geom.Pt(ax1+2*w, ay1+h), geom.Pt(ax1+2*w, ay0+h), geom.Pt(ax0+2*w, ay0+h),
		))
	}
	if shape&2 != 0 { // triangle hanging south-west
		tri := geom.Poly(geom.Pt(ax0, ay0), geom.Pt(ax1, ay0), geom.Pt(ax0, ay0-(ay1-ay0)))
		if tri.SignedArea() != 0 {
			a = append(a, tri.Clockwise())
		}
	}
	return a, b
}

// FuzzMBBFastPath cross-checks the batch engine's MBB tile-pruning fast
// path against full edge-splitting on the fuzzPair workload, and Relate and
// ComputeCDR against the transcription.
func FuzzMBBFastPath(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64, shape uint8) {
		a, b := fuzzPair(t, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1, shape)
		prep, err := Prepare("a", a)
		if err != nil {
			t.Skip("unpreparable primary")
		}
		grid, err := NewGrid(b.BoundingBox())
		if err != nil {
			t.Skip("no grid")
		}
		fast, ok := prep.relateFast(grid, nil)
		full := prep.relateFull(grid, nil)
		if ok && fast != full {
			t.Fatalf("fast path %v != full path %v\nprimary %v\nreference grid %+v", fast, full, a, grid)
		}
		// End-to-end: Relate and ComputeCDR must equal the transcription
		// exactly.
		want, _, err := paperCDR(a, b)
		if err != nil {
			t.Fatalf("transcription: %v", err)
		}
		refP, err := Prepare("b", b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Relate(prep, refP, nil)
		if err != nil {
			t.Fatal(err)
		}
		oneShot, err := ComputeCDR(a, b)
		if err != nil || got != want || oneShot != want {
			t.Fatalf("Relate %v, ComputeCDR %v (%v); transcription %v\nprimary %v reference %v", got, oneShot, err, want, a, b)
		}
	})
}

// FuzzMBBFastPathPct is the quantitative sibling of FuzzMBBFastPath: on the
// same workload it cross-checks the cached-area percent fast path against
// the full Compute-CDR% accumulation, and ComputeCDRPct and the whole
// RelatePct pipeline against the transcription.
func FuzzMBBFastPathPct(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64, shape uint8) {
		a, b := fuzzPair(t, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1, shape)
		prep, err := Prepare("a", a)
		if err != nil {
			t.Skip("unpreparable primary")
		}
		grid, err := NewGrid(b.BoundingBox())
		if err != nil {
			t.Skip("no grid")
		}
		// The pruned entry point production runs; a fast stage fired when
		// it moved a prune counter.
		var st Stats
		var fastAreas, fullAreas TileAreas
		prep.relatePctAreasInto(&fastAreas, grid, false, &st)
		_, err = prep.relatePctFullInto(&fullAreas, grid, nil)
		if err != nil {
			t.Skip("zero-area primary")
		}
		if st.PrunePctTile+st.PrunePctPoly > 0 {
			for _, tile := range Tiles() {
				if !areaClose(fastAreas[tile], fullAreas[tile]) {
					t.Fatalf("fast areas %v != full areas %v at %v\nprimary %v\nreference grid %+v",
						fastAreas, fullAreas, tile, a, grid)
				}
			}
		}
		// End-to-end: ComputeCDRPct must equal the transcription bit for
		// bit, and RelatePct (pruning on) match it within tolerance.
		wantM, wantAreas, _, err := paperCDRPct(a, b)
		if err != nil {
			t.Skip("transcription rejects the pair")
		}
		if m, areas, err := ComputeCDRPct(a, b); err != nil || m != wantM || areas != wantAreas {
			t.Fatalf("ComputeCDRPct = %v, %v, %v; transcription %v, %v\nprimary %v reference %v", m, areas, err, wantM, wantAreas, a, b)
		}
		refP, err := Prepare("b", b)
		if err != nil {
			t.Fatal(err)
		}
		gotM, gotAreas, err := RelatePct(prep, refP, nil)
		if err != nil {
			t.Fatalf("RelatePct: %v", err)
		}
		for _, tile := range Tiles() {
			if !areaClose(gotAreas[tile], wantAreas[tile]) || !pctClose(gotM.Get(tile), wantM.Get(tile)) {
				t.Fatalf("RelatePct diverges from the transcription at %v:\nareas %v vs %v\npcts %v vs %v\nprimary %v reference %v",
					tile, gotAreas, wantAreas, gotM, wantM, a, b)
			}
		}
	})
}

// areaClose compares absolute tile areas with a relative-and-absolute
// floating-point tolerance.
func areaClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// pctClose compares percentage entries with an absolute tolerance.
func pctClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-7
}

// mathRound4 rounds to the nearest quarter (exact in binary floating point).
func mathRound4(v float64) float64 {
	return math.Round(v*4) / 4
}
