package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cardirect/internal/geom"
)

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

// TestSliverStagesAgree pins the reproducer through every stage that can
// answer the pair.
func TestSliverStagesAgree(t *testing.T) {
	a, b := sliverPrimary(), sliverReference()
	want := Rel(TileE, TileSE)
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
	m, _, err := ComputeCDRPct(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var areas TileAreas
	if _, err := pa.relatePctFullInto(&areas, pb.grid(), nil); err != nil {
		t.Fatal(err)
	}
	if areas.Percent() != m {
		t.Errorf("percent kernel %v != ComputeCDRPct %v", areas.Percent(), m)
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
// row reads — returns exactly ComputeCDR's relation, and with pruning off
// the percent kernel returns ComputeCDRPct's areas and matrix bit for bit,
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
				rel, err := ComputeCDR(a.Region, b.Region)
				got, gotErr := Relate(ps[i], ps[j], nil)
				if (err != nil) != (gotErr != nil) {
					t.Fatalf("world %d %s/%s: ComputeCDR err %v, Relate err %v\na %v\nb %v", w, a.Name, b.Name, err, gotErr, a.Region, b.Region)
				}
				if err != nil {
					continue
				}
				want[i][j] = rel
				g := ps[j].grid()
				if pruned, full := ps[i].relate(g, false, nil), ps[i].relate(g, true, nil); got != rel || pruned != rel || full != rel {
					t.Fatalf("world %d %s/%s: ComputeCDR %v, Relate %v, pruned %v, unpruned %v\na %v\nb %v",
						w, a.Name, b.Name, rel, got, pruned, full, a.Region, b.Region)
				}

				wantM, wantAreas, pctErr := ComputeCDRPct(a.Region, b.Region)
				var areas TileAreas
				total, gotPctErr := ps[i].relatePctAreasInto(&areas, g, true, nil)
				if (pctErr != nil) != (gotPctErr != nil) {
					t.Fatalf("world %d %s/%s: ComputeCDRPct err %v, kernel err %v\na %v\nb %v", w, a.Name, b.Name, pctErr, gotPctErr, a.Region, b.Region)
				}
				if pctErr != nil {
					continue
				}
				var m PercentMatrix
				percentInto(&m, &areas, total)
				if areas != wantAreas || m != wantM {
					t.Fatalf("world %d %s/%s: percent kernel not bit-identical\nkernel %v\noneshot %v\na %v\nb %v",
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
