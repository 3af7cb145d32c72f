package core

import (
	"testing"
	"testing/quick"
)

func TestTileNamesAndGrid(t *testing.T) {
	if TileB.String() != "B" || TileSW.String() != "SW" || TileSE.String() != "SE" {
		t.Error("tile names wrong")
	}
	if Tile(200).String() != "Tile(200)" {
		t.Error("out-of-range tile String")
	}
	for _, tl := range Tiles() {
		if TileAt(tl.Col(), tl.Row()) != tl {
			t.Errorf("grid roundtrip failed for %v", tl)
		}
	}
	if TileAt(1, 1) != TileB || TileAt(0, 2) != TileNW || TileAt(2, 0) != TileSE {
		t.Error("TileAt mapping wrong")
	}
}

func TestRelationConstruction(t *testing.T) {
	r := Rel(TileS, TileSW)
	if !r.Has(TileS) || !r.Has(TileSW) || r.Has(TileB) {
		t.Error("Rel membership wrong")
	}
	if r.NumTiles() != 2 {
		t.Errorf("NumTiles = %d", r.NumTiles())
	}
	if !r.MultiTile() || r.SingleTile() {
		t.Error("multi-tile classification wrong")
	}
	if !S.SingleTile() || S.MultiTile() {
		t.Error("single-tile classification wrong")
	}
	if Rel().IsValid() {
		t.Error("empty relation should be invalid")
	}
	if !Rel().IsEmpty() {
		t.Error("Rel() should be empty")
	}
}

func TestTileUnion(t *testing.T) {
	// The paper's Definition 2 example: R1 = S:SW, R2 = S:E:SE, R3 = W.
	r1 := Rel(TileS, TileSW)
	r2 := Rel(TileS, TileE, TileSE)
	r3 := Rel(TileW)
	if got := r1.Union(r2); got.String() != "S:SW:E:SE" {
		t.Errorf("tile-union(R1,R2) = %v", got)
	}
	if got := r1.Union(r2, r3); got.String() != "S:SW:W:E:SE" {
		t.Errorf("tile-union(R1,R2,R3) = %v", got)
	}
}

func TestRelationStringCanonicalOrder(t *testing.T) {
	// B:S:W must render in canonical order regardless of construction order.
	r := Rel(TileW, TileB, TileS)
	if got := r.String(); got != "B:S:W" {
		t.Errorf("String = %q, want B:S:W", got)
	}
	if got := Rel().String(); got != "∅" {
		t.Errorf("empty String = %q", got)
	}
	full := Rel(TileB, TileS, TileSW, TileW, TileNW, TileN, TileNE, TileE, TileSE)
	if got := full.String(); got != "B:S:SW:W:NW:N:NE:E:SE" {
		t.Errorf("full String = %q", got)
	}
}

func TestParseRelation(t *testing.T) {
	r, err := ParseRelation("B:S:W")
	if err != nil || r != Rel(TileB, TileS, TileW) {
		t.Errorf("ParseRelation = %v, %v", r, err)
	}
	// Any order and case parse to the same relation.
	r2, err := ParseRelation("w:b:s")
	if err != nil || r2 != r {
		t.Errorf("order/case-insensitive parse = %v, %v", r2, err)
	}
	if _, err := ParseRelation("B:S:B"); err == nil {
		t.Error("duplicate tile should be rejected")
	}
	if _, err := ParseRelation("B:X"); err == nil {
		t.Error("unknown tile should be rejected")
	}
	if _, err := ParseRelation(""); err == nil {
		t.Error("empty string should be rejected")
	}
	if _, err := ParseRelation("NE:E"); err != nil {
		t.Errorf("NE:E should parse: %v", err)
	}
}

func TestParseStringRoundtripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		r := Relation(raw%uint16(RelationMask)) + 1 // 1..511
		got, err := ParseRelation(r.String())
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelationMatrix(t *testing.T) {
	// The paper's example: S has only the bottom-middle cell set.
	m := S.Matrix()
	want := [3][3]bool{{false, false, false}, {false, false, false}, {false, true, false}}
	if m != want {
		t.Errorf("S matrix = %v", m)
	}
	// NE:E sets top-right and middle-right.
	m2 := Rel(TileNE, TileE).Matrix()
	if !m2[0][2] || !m2[1][2] || m2[2][2] || m2[0][0] || m2[1][1] {
		t.Errorf("NE:E matrix = %v", m2)
	}
	// The paper's third example: B:S:SW:W:NW:N:E:SE is everything but NE.
	r, _ := ParseRelation("B:S:SW:W:NW:N:E:SE")
	m3 := r.Matrix()
	if m3[0][2] {
		t.Error("NE cell should be unset")
	}
	count := 0
	for i := range m3 {
		for j := range m3[i] {
			if m3[i][j] {
				count++
			}
		}
	}
	if count != 8 {
		t.Errorf("cells set = %d, want 8", count)
	}
}

func TestMatrixString(t *testing.T) {
	got := S.MatrixString()
	want := "□□□\n□□□\n□■□"
	if got != want {
		t.Errorf("MatrixString = %q, want %q", got, want)
	}
}

func TestAllRelations(t *testing.T) {
	all := AllRelations()
	if len(all) != 511 {
		t.Fatalf("|D*| = %d, want 511", len(all))
	}
	seen := map[Relation]bool{}
	for _, r := range all {
		if !r.IsValid() {
			t.Errorf("invalid relation %v in AllRelations", r)
		}
		if seen[r] {
			t.Errorf("duplicate relation %v", r)
		}
		seen[r] = true
	}
}

func TestIntersectWith(t *testing.T) {
	a := Rel(TileB, TileS, TileW)
	b := Rel(TileS, TileW, TileE)
	if got := a.Intersect(b); got != Rel(TileS, TileW) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.With(TileE); !got.Has(TileE) || got.NumTiles() != 4 {
		t.Errorf("With = %v", got)
	}
}
