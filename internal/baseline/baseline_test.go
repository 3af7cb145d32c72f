package baseline

import (
	"testing"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

func boxRegion(minX, minY, maxX, maxY float64) geom.Region {
	return geom.Rgn(geom.Poly(
		geom.Pt(minX, maxY), geom.Pt(maxX, maxY), geom.Pt(maxX, minY), geom.Pt(minX, minY),
	))
}

func TestMBBModel(t *testing.T) {
	b := boxRegion(0, 0, 10, 6)
	// Bounding boxes coincide with the regions for boxes, so MBB matches
	// the exact model on box inputs.
	for _, tc := range []struct {
		a    geom.Region
		want string
	}{
		{boxRegion(2, 2, 8, 4), "B"},
		{boxRegion(-4, 7, -1, 9), "NW"},
		{boxRegion(-5, 1, 15, 5), "B:W:E"},
		{boxRegion(-10, -10, 20, 16), "B:S:SW:W:NW:N:NE:E:SE"},
	} {
		want, err := core.ParseRelation(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MBB(tc.a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("MBB(%v) = %v, want %v", tc.a.BoundingBox(), got, want)
		}
	}
}

func TestMBBUpperApproximation(t *testing.T) {
	// An L-shaped region whose bounding box covers B but whose material
	// does not: the MBB model over-approximates.
	b := boxRegion(4, 4, 6, 6)
	l := geom.Rgn(geom.Poly(
		geom.Pt(0, 10), geom.Pt(1, 10), geom.Pt(1, 1), geom.Pt(10, 1),
		geom.Pt(10, 0), geom.Pt(0, 0),
	))
	exact, err := core.ComputeCDR(l, b)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := MBB(l, b)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Intersect(approx) != exact {
		t.Errorf("exact %v not subset of MBB %v", exact, approx)
	}
	if approx == exact {
		t.Error("expected a strict over-approximation for the L-shape")
	}
	if CompareMBB(approx, exact) != AgreeSubsumed {
		t.Errorf("agreement = %v, want subsumed", CompareMBB(approx, exact))
	}
}

func TestAgreementClassification(t *testing.T) {
	exact, _ := core.ParseRelation("NE:E")
	if got := CompareMBB(exact, exact); got != AgreeExact {
		t.Errorf("identical: %v", got)
	}
	bigger, _ := core.ParseRelation("B:NE:E")
	if got := CompareMBB(bigger, exact); got != AgreeSubsumed {
		t.Errorf("superset: %v", got)
	}
	other, _ := core.ParseRelation("W")
	if got := CompareMBB(other, exact); got != AgreeContradict {
		t.Errorf("disjoint: %v", got)
	}
	if AgreeExact.String() != "exact" || AgreeSubsumed.String() != "subsumed" || AgreeContradict.String() != "contradict" {
		t.Error("agreement names wrong")
	}
}

func TestMBBErrors(t *testing.T) {
	b := boxRegion(0, 0, 10, 6)
	if _, err := MBB(geom.Region{}, b); err == nil {
		t.Error("empty primary should error")
	}
	line := geom.Rgn(geom.Poly(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)))
	if _, err := MBB(b, line); err == nil {
		t.Error("degenerate reference should error")
	}
}
