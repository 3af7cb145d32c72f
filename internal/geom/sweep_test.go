package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestHasProperIntersectionBasics(t *testing.T) {
	cross := []Segment{
		Seg(Pt(0, 0), Pt(4, 4)),
		Seg(Pt(0, 4), Pt(4, 0)),
	}
	if !HasProperIntersection(cross, nil) {
		t.Error("X crossing missed")
	}
	disjoint := []Segment{
		Seg(Pt(0, 0), Pt(1, 1)),
		Seg(Pt(2, 2), Pt(3, 3)),
		Seg(Pt(5, 0), Pt(6, 1)),
	}
	if HasProperIntersection(disjoint, nil) {
		t.Error("disjoint segments reported intersecting")
	}
	// Endpoint touch counts without an adjacency exemption…
	touch := []Segment{
		Seg(Pt(0, 0), Pt(2, 2)),
		Seg(Pt(2, 2), Pt(4, 0)),
	}
	if !HasProperIntersection(touch, nil) {
		t.Error("endpoint touch missed (no adjacency)")
	}
	// …but is exempted for declared-adjacent pairs.
	adj := func(i, j int) bool { return true }
	if HasProperIntersection(touch, adj) {
		t.Error("adjacent endpoint touch should be allowed")
	}
	// Adjacent pairs still must not overlap collinearly.
	fold := []Segment{
		Seg(Pt(0, 0), Pt(4, 0)),
		Seg(Pt(4, 0), Pt(1, 0)),
	}
	if !HasProperIntersection(fold, adj) {
		t.Error("collinear fold-back of adjacent segments missed")
	}
	if HasProperIntersection(nil, nil) || HasProperIntersection(cross[:1], nil) {
		t.Error("fewer than two segments cannot intersect")
	}
}

func TestIsSimpleFastMatchesNaive(t *testing.T) {
	cases := []Polygon{
		unitSquareCW(),
		Poly(Pt(0, 0), Pt(2, 2), Pt(2, 0), Pt(0, 2)),                     // bowtie
		Poly(Pt(0, 3), Pt(1, 3), Pt(1, 1), Pt(3, 1), Pt(3, 0), Pt(0, 0)), // L
		Poly(Pt(0, 0), Pt(2, 0), Pt(1, 0), Pt(1, 2)),                     // spike
		Poly(Pt(0, 0), Pt(2, 2), Pt(4, 0), Pt(4, 4), Pt(2, 2), Pt(0, 4)), // pinch
		Poly(Pt(0, 0), Pt(1, 1)),                                         // 2-gon
		Poly(Pt(0, 0), Pt(0, 0), Pt(1, 1), Pt(1, 0)),                     // dup vertex
	}
	for i, p := range cases {
		if got, want := p.IsSimpleFast(), p.IsSimple(); got != want {
			t.Errorf("case %d: fast=%v naive=%v", i, got, want)
		}
	}
}

// Property: on random star polygons (always simple) and random vertex soups
// (often not), the sweep agrees with the naive check.
func TestIsSimpleFastAgreesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(12)
		var p Polygon
		if trial%2 == 0 {
			// Star polygon: simple by construction.
			p = make(Polygon, n)
			for i := 0; i < n; i++ {
				th := 2 * math.Pi * (float64(i) + 0.1 + 0.8*rng.Float64()) / float64(n)
				r := 1 + rng.Float64()*3
				p[i] = Pt(r*math.Cos(th), r*math.Sin(th))
			}
		} else {
			// Vertex soup on a small grid: frequently self-intersecting.
			p = make(Polygon, n)
			for i := range p {
				p[i] = Pt(float64(rng.Intn(7)), float64(rng.Intn(7)))
			}
		}
		if got, want := p.IsSimpleFast(), p.IsSimple(); got != want {
			t.Fatalf("trial %d: fast=%v naive=%v for %v", trial, got, want, p)
		}
	}
}

func BenchmarkIsSimple(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 512
	p := make(Polygon, n)
	for i := 0; i < n; i++ {
		th := 2 * math.Pi * (float64(i) + 0.1 + 0.8*rng.Float64()) / float64(n)
		r := 1 + rng.Float64()*3
		p[i] = Pt(r*math.Cos(th), r*math.Sin(th))
	}
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !p.IsSimple() {
				b.Fatal("simple polygon rejected")
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !p.IsSimpleFast() {
				b.Fatal("simple polygon rejected")
			}
		}
	})
}
