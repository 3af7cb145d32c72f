package index

import (
	"fmt"
	"math/rand"
	"testing"

	"cardirect/internal/geom"
)

func boxAt(x, y, w, h float64) geom.Rect {
	return geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

// newTree returns an empty tree, built the way Live starts over no regions.
func newTree(t testing.TB) *RTree {
	t.Helper()
	tr, err := BulkLoad(nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// search appends to dst the items under n whose boxes intersect window: a
// plain descent, so tests read what a tree holds without the selection plan.
func search(n *node, window geom.Rect, dst []Item) []Item {
	if !n.box.Intersects(window) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(window) {
				dst = append(dst, it)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = search(c, window, dst)
	}
	return dst
}

// depth returns the height of the subtree at n (1 for a leaf).
func depth(n *node) int {
	d := 1
	for ; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants walks the tree validating structural invariants; it
// returns an error describing the first violation.
func (t *RTree) checkInvariants() error {
	return checkNode(t.root, true)
}

func checkNode(n *node, isRoot bool) error {
	if n.leaf {
		box := geom.EmptyRect()
		for _, it := range n.items {
			box = box.Union(it.Box)
		}
		if len(n.items) > 0 && box != n.box {
			return fmt.Errorf("index: leaf box %v != union of items %v", n.box, box)
		}
		if !isRoot && len(n.items) == 0 {
			return fmt.Errorf("index: empty non-root leaf")
		}
		return nil
	}
	if len(n.children) == 0 {
		return fmt.Errorf("index: internal node with no children")
	}
	box := geom.EmptyRect()
	depths := map[int]bool{}
	for _, c := range n.children {
		box = box.Union(c.box)
		if err := checkNode(c, false); err != nil {
			return err
		}
		depths[depth(c)] = true
	}
	if box != n.box {
		return fmt.Errorf("index: internal box %v != union of children %v", n.box, box)
	}
	if len(depths) != 1 {
		return fmt.Errorf("index: unbalanced subtree depths")
	}
	return nil
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t)
	if tr.Len() != 0 {
		t.Errorf("Len = %d", tr.Len())
	}
	if got := search(tr.root, boxAt(0, 0, 100, 100), nil); len(got) != 0 {
		t.Errorf("search on empty tree = %v", got)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndSearch(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < 100; i++ {
		x := float64(i%10) * 10
		y := float64(i/10) * 10
		if err := tr.Insert(Item{Box: boxAt(x, y, 5, 5), ID: fmt.Sprintf("r%03d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// A window covering exactly one cell.
	got := search(tr.root, boxAt(21, 21, 2, 2), nil)
	if len(got) != 1 || got[0].ID != "r022" {
		t.Errorf("point-ish search = %v", got)
	}
	// A window covering a 2×2 block of cells (touching counts: closed
	// rectangles).
	got = search(tr.root, boxAt(0, 0, 15, 15), nil)
	if len(got) != 4 {
		t.Errorf("block search returned %d items", len(got))
	}
	// A window outside everything.
	if got := search(tr.root, boxAt(500, 500, 10, 10), nil); len(got) != 0 {
		t.Errorf("far search = %v", got)
	}
	if err := tr.Insert(Item{Box: geom.EmptyRect(), ID: "bad"}); err == nil {
		t.Error("empty box insert should fail")
	}
}

func TestBulkLoadMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{
			Box: boxAt(rng.Float64()*1000, rng.Float64()*1000, 1+rng.Float64()*20, 1+rng.Float64()*20),
			ID:  fmt.Sprintf("it%04d", i),
		}
	}
	bulk, err := BulkLoad(items)
	if err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != len(items) {
		t.Fatalf("bulk Len = %d", bulk.Len())
	}
	if err := bulk.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	incr := newTree(t)
	for _, it := range items {
		if err := incr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := incr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Both must agree with the linear scan on random windows.
	for trial := 0; trial < 200; trial++ {
		w := boxAt(rng.Float64()*900, rng.Float64()*900, rng.Float64()*150, rng.Float64()*150)
		want := map[string]bool{}
		for _, it := range items {
			if it.Box.Intersects(w) {
				want[it.ID] = true
			}
		}
		for name, tree := range map[string]*RTree{"bulk": bulk, "incr": incr} {
			got := search(tree.root, w, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d hits, want %d", trial, name, len(got), len(want))
			}
			for _, it := range got {
				if !want[it.ID] {
					t.Fatalf("trial %d %s: spurious hit %s", trial, name, it.ID)
				}
			}
		}
	}
}

func TestBulkLoadEdgeCases(t *testing.T) {
	tr, err := BulkLoad(nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load: %v, %d", err, tr.Len())
	}
	one, err := BulkLoad([]Item{{Box: boxAt(0, 0, 1, 1), ID: "x"}})
	if err != nil || depth(one.root) != 1 {
		t.Fatalf("single-item bulk load: %v depth=%d", err, depth(one.root))
	}
	if _, err := BulkLoad([]Item{{Box: geom.EmptyRect(), ID: "bad"}}); err == nil {
		t.Error("empty box should fail bulk load")
	}
}

func TestTreeGrowsInDepth(t *testing.T) {
	tr := newTree(t)
	for i := 0; i < maxEntries+1; i++ {
		tr.Insert(Item{Box: boxAt(float64(i)*10, 0, 5, 5), ID: fmt.Sprintf("%d", i)})
	}
	if depth(tr.root) != 2 {
		t.Errorf("depth after first split = %d, want 2", depth(tr.root))
	}
	for i := 0; i < 500; i++ {
		tr.Insert(Item{Box: boxAt(float64(i%50)*7, float64(i/50)*7, 3, 3), ID: fmt.Sprintf("g%d", i)})
	}
	if depth(tr.root) < 3 {
		t.Errorf("depth after 500 inserts = %d", depth(tr.root))
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
