package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// lodNoisyRegion builds a random region for differential testing: one to
// three star-shaped polygons with many radially-noisy vertices (dense,
// overlapping boxes, a good share of strip-sized regions) placed at random
// centers and scales. Rings are simple by construction (strictly increasing
// angle, positive radius).
func lodNoisyRegion(rng *rand.Rand) geom.Region {
	polys := 1 + rng.Intn(3)
	var r geom.Region
	for p := 0; p < polys; p++ {
		cx := rng.Float64()*200 - 100
		cy := rng.Float64()*200 - 100
		base := 2 + rng.Float64()*20
		n := 24 + rng.Intn(120)
		ring := make(geom.Polygon, 0, n)
		for i := 0; i < n; i++ {
			ang := 2 * math.Pi * float64(i) / float64(n)
			rad := base * (0.6 + 0.4*rng.Float64())
			ring = append(ring, geom.Pt(cx+rad*math.Cos(ang), cy+rad*math.Sin(ang)))
		}
		r = append(r, ring)
	}
	return r
}

func lodTestWorld(t testing.TB, seed int64, n int, opt LoDOptions) (*LoDWorld, []*Prepared) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	regions := make([]NamedRegion, n)
	for i := range regions {
		regions[i] = NamedRegion{Name: "r" + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260)), Region: lodNoisyRegion(rng)}
	}
	w, err := PrepareLoDWorld(regions, opt)
	if err != nil {
		t.Fatalf("PrepareLoDWorld: %v", err)
	}
	exact, err := PrepareAll(regions)
	if err != nil {
		t.Fatalf("PrepareAll: %v", err)
	}
	return w, exact
}

// TestLoDDifferential is the tier's core guarantee: every pair answered by
// the LoD world — whether by the coarse summary, the strip stage, or the
// full kernel — is bit-identical to the exact engine.
func TestLoDDifferential(t *testing.T) {
	w, exact := lodTestWorld(t, 1, 40, LoDOptions{})
	sc := getScratch()
	defer putScratch(sc)
	var st Stats
	for i := 0; i < w.Len(); i++ {
		for j := 0; j < w.Len(); j++ {
			if i == j {
				continue
			}
			want, err := Relate(exact[i], exact[j], sc)
			if err != nil {
				t.Fatalf("exact Relate(%d,%d): %v", i, j, err)
			}
			got, err := w.Relation(i, j, sc, &st)
			if err != nil {
				t.Fatalf("LoD Relation(%d,%d): %v", i, j, err)
			}
			if got != want {
				t.Fatalf("pair (%d,%d): LoD %v != exact %v", i, j, got, want)
			}
		}
	}
	// The world must actually exercise all three tiers; a silent all-exact
	// degrade would vacuously pass the identity check.
	if st.CoarseSingleTile == 0 {
		t.Error("coarse tier never fired")
	}
	if st.LoDStrip == 0 {
		t.Error("strip tier never fired")
	}
	if st.LoDExact == 0 {
		t.Error("full kernel never ran")
	}
	t.Logf("stats: coarse=%d strip=%d exact=%d fastPath=%d",
		st.CoarseSingleTile, st.LoDStrip, st.LoDExact, st.PruneSingleTile+st.PruneBand)
}

// TestLoDBatchRows checks the row sweep against the per-pair path in both
// LoD and exact modes, and the context-cancellation contract.
func TestLoDBatchRows(t *testing.T) {
	w, exact := lodTestWorld(t, 3, 30, LoDOptions{Workers: 4})
	rows := []int{0, 7, 29}
	got, st, err := w.BatchRows(context.Background(), rows, false)
	if err != nil {
		t.Fatalf("BatchRows: %v", err)
	}
	gotExact, _, err := w.BatchRows(context.Background(), rows, true)
	if err != nil {
		t.Fatalf("BatchRows(exact): %v", err)
	}
	sc := getScratch()
	defer putScratch(sc)
	for r, pi := range rows {
		for j := 0; j < w.Len(); j++ {
			if j == pi {
				if got[r][j] != 0 || gotExact[r][j] != 0 {
					t.Fatalf("row %d: self entry not zero", pi)
				}
				continue
			}
			want, err := Relate(exact[pi], exact[j], sc)
			if err != nil {
				t.Fatalf("exact Relate: %v", err)
			}
			if got[r][j] != want {
				t.Fatalf("row %d vs %d: LoD sweep %v != exact %v", pi, j, got[r][j], want)
			}
			if gotExact[r][j] != want {
				t.Fatalf("row %d vs %d: exact sweep %v != exact %v", pi, j, gotExact[r][j], want)
			}
		}
	}
	if st.CoarseSingleTile+st.LoDStrip+st.LoDExact+st.PruneSingleTile+st.PruneBand == 0 {
		t.Error("sweep recorded no tier stats")
	}

	if _, _, err := w.BatchRows(context.Background(), []int{-1}, false); err == nil {
		t.Error("negative row index accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := w.BatchRows(ctx, rows, false); err == nil {
		t.Error("cancelled context not reported")
	}
}

// TestCoarsePairSingleTile differentially checks the O(1) coarse answers
// against the exact kernel on dense random box layouts.
func TestCoarsePairSingleTile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 30
		regions := make([]NamedRegion, n)
		boxes := make([]geom.Rect, n)
		for i := range regions {
			x := rng.Float64() * 100
			y := rng.Float64() * 100
			w := 0.5 + rng.Float64()*10
			h := 0.5 + rng.Float64()*10
			regions[i] = NamedRegion{
				Name:   string(rune('a'+i%26)) + string(rune('0'+i/26)),
				Region: geom.Rgn(geom.Poly(geom.Pt(x, y), geom.Pt(x, y+h), geom.Pt(x+w, y+h), geom.Pt(x+w, y))),
			}
			boxes[i] = regions[i].Region.BoundingBox()
		}
		ci := NewCoarseIndex(boxes, 64)
		exact, err := PrepareAll(regions)
		if err != nil {
			t.Fatal(err)
		}
		sc := getScratch()
		fired := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rel, ok := ci.PairSingleTile(i, j)
				if !ok {
					continue
				}
				fired++
				want, err := Relate(exact[i], exact[j], sc)
				if err != nil {
					t.Fatal(err)
				}
				if rel != want {
					t.Fatalf("trial %d pair (%d,%d): coarse %v != exact %v", trial, i, j, rel, want)
				}
			}
		}
		putScratch(sc)
		if trial == 0 && fired == 0 {
			t.Error("coarse rules never fired")
		}
	}
}

// TestLoDZeroEpsDegrade checks tiny regions get no strip side and still
// answer correctly, that a strip-sized region gets exactly one and it answers
// for the world's own preparation, and the name and index lookups.
func TestLoDZeroEpsDegrade(t *testing.T) {
	ring := make(geom.Polygon, stripMinEdges)
	for i := range ring {
		ang := -2 * math.Pi * float64(i) / float64(len(ring))
		ring[i] = geom.Pt(10+math.Cos(ang), 10+math.Sin(ang))
	}
	w, err := PrepareLoDWorld([]NamedRegion{
		{Name: "tri", Region: geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0)))},
		{Name: "ref", Region: geom.Rgn(geom.Poly(geom.Pt(2, 2), geom.Pt(2, 3), geom.Pt(3, 3), geom.Pt(3, 2)))},
		{Name: "disc", Region: geom.Rgn(ring)},
	}, LoDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.strips) != 1 || w.strips[2] == nil {
		t.Fatalf("strip sides = %v, want exactly one, for the disc", w.strips)
	}
	if w.strips[2].p != w.preps[2] {
		t.Error("the strip side should answer for the world's own preparation")
	}
	rel, err := w.Relation(0, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := Rel(TileSW); rel != want {
		t.Fatalf("Relation(tri, ref) = %v, want %v", rel, want)
	}
	if got, want := w.Index("disc"), 2; got != want {
		t.Errorf("Index(disc) = %d, want %d", got, want)
	}
	if got := w.Index("nope"); got != -1 {
		t.Errorf("Index(nope) = %d, want -1", got)
	}
	for _, ij := range [][2]int{{w.Index("nope"), 0}, {0, w.Index("nope")}, {3, 0}, {0, 3}} {
		if _, err := w.Relation(ij[0], ij[1], nil, nil); err == nil {
			t.Errorf("Relation(%d, %d): out-of-range index accepted", ij[0], ij[1])
		}
	}
}

// TestLoDWorldFootprint pins what a huge world retains beyond its input:
// the live-heap delta of PrepareLoDWorld over a 2·10^4-region zipfian world
// (≈3 edges per region in the tail, so the fixed per-region cost dominates)
// must stay within 500 bytes per region.
func TestLoDWorldFootprint(t *testing.T) {
	const n = 20000
	rs := workload.New(1).Zipf(geom.Rect{MinX: 0, MinY: 0, MaxX: 10000, MaxY: 10000}, n, 4096)
	regions := make([]NamedRegion, n)
	for i, r := range rs {
		regions[i] = NamedRegion{Name: fmt.Sprintf("z%06d", i), Region: r}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w, err := PrepareLoDWorld(regions, LoDOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRegion := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("%.0f B/region retained beyond the input", perRegion)
	if perRegion > 500 {
		t.Errorf("LoD world retains %.0f B/region beyond its input, want ≤ 500", perRegion)
	}
	runtime.KeepAlive(w)
	runtime.KeepAlive(regions)
}

// FuzzLoDDifferential drives the bit-identity guarantee from fuzzed seeds:
// random worlds of noisy multi-polygon regions, every pair cross-checked
// against the exact kernel. The top two bits of nn add the cases random
// worlds almost never hit: bit 6 appends a reference whose box center lies
// exactly on a vertex of region 0 (the boundary rule of the center test,
// through every stage that replays it), bit 7 overwrites every coordinate of
// the caller's regions once the world is built, so an answer read back from
// the caller's rings instead of the world's own copy cannot match.
func FuzzLoDDifferential(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s, uint8(10))
	}
	f.Add(int64(1), uint8(10|1<<6))
	f.Add(int64(2), uint8(10|1<<7))
	f.Add(int64(3), uint8(10|1<<6|1<<7))
	f.Fuzz(func(t *testing.T, seed int64, nn uint8) {
		n := 3 + int(nn&63%14)
		rng := rand.New(rand.NewSource(seed))
		regions := make([]NamedRegion, n)
		for i := range regions {
			regions[i] = NamedRegion{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), Region: lodNoisyRegion(rng)}
		}
		if nn&(1<<6) != 0 {
			// Snap one vertex to a 2^-10 lattice (far below the stars'
			// vertex spacing, so the ring stays simple): v±1 and their mean
			// are then exact, and the square's box center IS the vertex.
			v := &regions[0].Region[0][0]
			v.X, v.Y = math.Round(v.X*1024)/1024, math.Round(v.Y*1024)/1024
			sq := geom.Poly(geom.Pt(v.X-1, v.Y+1), geom.Pt(v.X+1, v.Y+1), geom.Pt(v.X+1, v.Y-1), geom.Pt(v.X-1, v.Y-1))
			if sq.BoundingBox().Center() != *v {
				t.Fatalf("box center %v is not the vertex %v", sq.BoundingBox().Center(), *v)
			}
			regions = append(regions, NamedRegion{Name: "onvertex", Region: geom.Rgn(sq)})
			n++
		}
		w, err := PrepareLoDWorld(regions, LoDOptions{})
		if err != nil {
			t.Fatalf("PrepareLoDWorld: %v", err)
		}
		exact, err := PrepareAll(regions)
		if err != nil {
			t.Fatalf("PrepareAll: %v", err)
		}
		if nn&(1<<7) != 0 {
			for _, r := range regions {
				for _, ring := range r.Region {
					for k := range ring {
						ring[k] = geom.Pt(math.NaN(), math.NaN())
					}
				}
			}
		}
		sc := getScratch()
		defer putScratch(sc)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				want, err := Relate(exact[i], exact[j], sc)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Relation(i, j, sc, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("seed %d pair (%d,%d): LoD %v != exact %v", seed, i, j, got, want)
				}
			}
		}
	})
}
