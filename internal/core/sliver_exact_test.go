package core

import (
	"math/big"
	"testing"
)

// TestSliverReproducerExact decides the open FuzzMBBFastPathPct input
// exactly. The primary is a rectangle 1 ulp tall at y = 2 plus a zero-area
// ring, over a reference box at y ∈ [0.2, 0.6]. Every ring of this input is
// an axis-aligned rectangle, so its area in a tile is the product of two
// interval overlaps, which big.Rat computes with no rounding. The exact
// support is {N}: the primary lies wholly above mbb(b). RelatePct, the
// pruned path, agrees. ComputeCDRPct and the float transcription put the
// area in B instead (area(B) = |area(B+N)| − |area(N)| leaves the residue
// there); that is the open defect, logged here and failed by the fuzzer.
func TestSliverReproducerExact(t *testing.T) {
	a, b := fuzzPair(t, 0.030000000000000006, 1.9999999999999998, 0.5, 2,
		-0.6000000000000001, 0.2, 2.1, 0.6, 'M')
	grid, err := NewGrid(b.BoundingBox())
	if err != nil {
		t.Fatal(err)
	}
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	// Column c spans [lines[c], lines[c+1]] of the x lines, row r the same
	// of the y lines; nil is the unbounded end.
	xs := [4]*big.Rat{nil, rat(grid.M1), rat(grid.M2), nil}
	ys := [4]*big.Rat{nil, rat(grid.L1), rat(grid.L2), nil}
	overlap := func(lo, hi, tileLo, tileHi *big.Rat) *big.Rat {
		if tileLo != nil && tileLo.Cmp(lo) > 0 {
			lo = tileLo
		}
		if tileHi != nil && tileHi.Cmp(hi) < 0 {
			hi = tileHi
		}
		if hi.Cmp(lo) <= 0 {
			return new(big.Rat)
		}
		return new(big.Rat).Sub(hi, lo)
	}

	var exact [NumTiles]*big.Rat
	for i := range exact {
		exact[i] = new(big.Rat)
	}
	for _, p := range a {
		box := p.BoundingBox()
		for i := range p {
			if e := p.Edge(i); e.A.X != e.B.X && e.A.Y != e.B.Y {
				t.Fatalf("ring %v is not an axis-aligned rectangle: the exact areas below hold for rectangles only", p)
			}
		}
		if len(p) != 4 {
			t.Fatalf("ring %v has %d vertices, want a rectangle's 4", p, len(p))
		}
		for c := 0; c < 3; c++ {
			w := overlap(rat(box.MinX), rat(box.MaxX), xs[c], xs[c+1])
			for r := 0; r < 3; r++ {
				h := overlap(rat(box.MinY), rat(box.MaxY), ys[r], ys[r+1])
				tile := TileAt(c, r)
				exact[tile].Add(exact[tile], new(big.Rat).Mul(w, h))
			}
		}
	}
	var support Relation
	for _, tile := range Tiles() {
		if exact[tile].Sign() != 0 {
			support = support.With(tile)
		}
	}
	if support != N {
		t.Fatalf("exact support %v, want N", support)
	}

	prepA, err := Prepare("a", a)
	if err != nil {
		t.Fatal(err)
	}
	prepB, err := Prepare("b", b)
	if err != nil {
		t.Fatal(err)
	}
	m, areas, err := RelatePct(prepA, prepB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Relation(0); got != support {
		t.Errorf("RelatePct support %v (areas %v), exact %v", got, areas, support)
	}
	if _, areas, err := ComputeCDRPct(a, b); err == nil && areas.Relation(0) != support {
		t.Logf("open defect: ComputeCDRPct puts the area in %v (areas %v), exact %v", areas.Relation(0), areas, support)
	}
}
