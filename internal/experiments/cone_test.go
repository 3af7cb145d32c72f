package experiments

import (
	"math"
	"testing"

	"cardirect/internal/baseline"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

func TestCentroidConeEightWays(t *testing.T) {
	b := workload.BoxRegion(-1, -1, 1, 1)
	cases := []struct {
		dx, dy float64
		want   Direction
	}{
		{10, 0, DirE}, {10, 10, DirNE}, {0, 10, DirN}, {-10, 10, DirNW},
		{-10, 0, DirW}, {-10, -10, DirSW}, {0, -10, DirS}, {10, -10, DirSE},
	}
	for _, c := range cases {
		a := workload.BoxRegion(c.dx-1, c.dy-1, c.dx+1, c.dy+1)
		if got := CentroidCone(a, b, 0); got != c.want {
			t.Errorf("offset (%g,%g): got %v, want %v", c.dx, c.dy, got, c.want)
		}
	}
	if got := CentroidCone(b, b, 1e-9); got != DirSame {
		t.Errorf("self: got %v, want same", got)
	}
}

func TestCentroidConeSectorBoundaries(t *testing.T) {
	b := workload.BoxRegion(-1, -1, 1, 1)
	// 22.5° is the E/NE boundary; the NE sector is [22.5°, 67.5°).
	th := 22.5 * math.Pi / 180
	a := workload.BoxRegion(10*math.Cos(th)-0.0, 10*math.Sin(th)-0.0, 10*math.Cos(th)+2, 10*math.Sin(th)+2)
	// Slightly above the boundary lands in NE.
	got := CentroidCone(a.Translate(geom.Pt(0, 0.5)), b, 0)
	if got != DirNE {
		t.Errorf("above 22.5°: got %v, want NE", got)
	}
	// Slightly below lands in E.
	got = CentroidCone(a.Translate(geom.Pt(0, -2.5)), b, 0)
	if got != DirE {
		t.Errorf("below 22.5°: got %v, want E", got)
	}
}

func TestDirectionTileMapping(t *testing.T) {
	want := map[Direction]core.Tile{
		DirSame: core.TileB, DirN: core.TileN, DirNE: core.TileNE, DirE: core.TileE,
		DirSE: core.TileSE, DirS: core.TileS, DirSW: core.TileSW, DirW: core.TileW, DirNW: core.TileNW,
	}
	for d, tile := range want {
		if got := d.Tile(); got != tile {
			t.Errorf("%v.Tile() = %v, want %v", d, got, tile)
		}
	}
	if DirNE.String() != "NE" || DirSame.String() != "same" {
		t.Error("direction names wrong")
	}
}

func TestCompareCone(t *testing.T) {
	exact, _ := core.ParseRelation("NE:E")
	if got := CompareCone(DirNE, exact); got != baseline.AgreeSubsumed {
		t.Errorf("cone NE vs NE:E: %v", got)
	}
	if got := CompareCone(DirNE, core.NE); got != baseline.AgreeExact {
		t.Errorf("cone NE vs NE: %v", got)
	}
	if got := CompareCone(DirW, exact); got != baseline.AgreeContradict {
		t.Errorf("cone W vs NE:E: %v", got)
	}
}
