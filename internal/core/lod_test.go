package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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

// allRows returns the row indexes 0..n-1: a BatchRows request for every pair.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// checkRowsExact holds BatchRows output against the exact kernel: out[r][j]
// must be Relate(exact[rows[r]], exact[j]) bit for bit, and the self entry
// zero.
func checkRowsExact(t *testing.T, label string, out [][]Relation, rows []int, exact []*Prepared) {
	t.Helper()
	for r, pi := range rows {
		for j := range exact {
			want := Relation(0)
			if j != pi {
				var err error
				if want, err = Relate(exact[pi], exact[j], nil); err != nil {
					t.Fatalf("%s: exact Relate(%d,%d): %v", label, pi, j, err)
				}
			}
			if out[r][j] != want {
				t.Fatalf("%s: pair (%d,%d): BatchRows %v != exact %v", label, pi, j, out[r][j], want)
			}
		}
	}
}

// TestLoDDifferential is the tier's core guarantee: every pair answered by
// the LoD world — whether by the coarse summary, the strip stage, or the
// full kernel — is bit-identical to the exact engine.
func TestLoDDifferential(t *testing.T) {
	w, exact := lodTestWorld(t, 1, 40, LoDOptions{})
	rows := allRows(w.Len())
	out, st, err := w.BatchRows(context.Background(), rows, false)
	if err != nil {
		t.Fatal(err)
	}
	checkRowsExact(t, "LoD", out, rows, exact)
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

// TestLoDBatchRows checks the row sweep against the exact kernel in both
// LoD and exact modes, at every worker count — rows and merged Stats alike
// must not depend on it — and the context-cancellation contract.
func TestLoDBatchRows(t *testing.T) {
	rows := []int{0, 7, 29}
	var want [2][][]Relation
	var wantSt [2]Stats
	for _, workers := range []int{1, 2, 4, 16} {
		w, exact := lodTestWorld(t, 3, 30, LoDOptions{Workers: workers})
		for m, exactMode := range []bool{false, true} {
			got, st, err := w.BatchRows(context.Background(), rows, exactMode)
			if err != nil {
				t.Fatalf("workers=%d exact=%v: BatchRows: %v", workers, exactMode, err)
			}
			if workers == 1 {
				want[m], wantSt[m] = got, st
			} else if !reflect.DeepEqual(got, want[m]) || !reflect.DeepEqual(st, wantSt[m]) {
				t.Fatalf("workers=%d exact=%v: rows or Stats %+v differ from one worker's %+v", workers, exactMode, st, wantSt[m])
			}
			checkRowsExact(t, fmt.Sprintf("workers=%d exact=%v", workers, exactMode), got, rows, exact)
		}
		if st := wantSt[0]; st.CoarseSingleTile+st.LoDStrip+st.LoDExact+st.PruneSingleTile+st.PruneBand == 0 {
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
}

// TestCoarsePairSingleTile differentially checks the O(1) coarse answers —
// the coarsePairLut entry of a pair's packed cell-span comparisons, as the
// BatchRows sweep reads it — against the exact kernel on dense random box
// layouts.
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
				as, bs := ci.spans[i], ci.spans[j]
				xb := b2i(as.x1 < bs.x0) | b2i(as.x0 > bs.x1)<<1 |
					b2i(as.x0 > bs.x0)<<2 | b2i(as.x1 < bs.x1)<<3
				yb := b2i(as.y1 < bs.y0) | b2i(as.y0 > bs.y1)<<1 |
					b2i(as.y0 > bs.y0)<<2 | b2i(as.y1 < bs.y1)<<3
				rel := coarsePairLut[xb|yb<<4]
				if rel == 0 {
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
// for the world's own preparation, and the error paths of BatchRows: a row
// index outside the world, and a world holding a region too flat to serve
// as a reference.
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
	if w.strips[2].p != &w.preps[2] {
		t.Error("the strip side should answer for the world's own preparation")
	}
	out, _, err := w.BatchRows(context.Background(), []int{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := Rel(TileSW); out[0][1] != want {
		t.Fatalf("BatchRows: tri vs ref = %v, want %v", out[0][1], want)
	}
	for _, row := range []int{-1, 3} {
		if _, _, err := w.BatchRows(context.Background(), []int{0, row}, false); err == nil {
			t.Errorf("BatchRows: out-of-range row %d accepted", row)
		}
	}
	flat, err := PrepareLoDWorld([]NamedRegion{
		{Name: "tri", Region: geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0)))},
		{Name: "flat", Region: geom.Rgn(geom.Poly(geom.Pt(2, 2), geom.Pt(3, 2), geom.Pt(4, 2)))},
	}, LoDOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := flat.BatchRows(context.Background(), []int{0}, false); err == nil || !strings.Contains(err.Error(), `"flat"`) {
		t.Errorf("BatchRows over a flat reference: err = %v, want one naming the region", err)
	}
}

// TestLoDWorldFootprint pins what a huge world retains beyond its input:
// the live-heap delta of PrepareLoDWorld over a 2·10^4-region zipfian world
// (≈3 edges per region in the tail, so the fixed per-region cost dominates)
// must stay within 360 bytes per region (318 with the 112-byte header).
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
	if perRegion > 360 {
		t.Errorf("LoD world retains %.0f B/region beyond its input, want ≤ 360", perRegion)
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
		rows := allRows(n)
		out, _, err := w.BatchRows(context.Background(), rows, false)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsExact(t, fmt.Sprintf("seed %d", seed), out, rows, exact)
	})
}
