// Package index provides an in-memory R-tree over region bounding boxes —
// the access method of the paper's reference [13] (Papadias, Theodoridis,
// Sellis & Egenhofer, "Topological Relations in the World of Minimum
// Bounding Rectangles") — and a directional selection operator built on it:
// MBB-level pruning for "find regions whose cardinal direction relation to
// a reference can match R", with the exact Compute-CDR algorithm refining
// the survivors. This is how a spatial database would execute the
// CARDIRECT query engine's relation conditions over large configurations.
package index

import (
	"fmt"
	"sort"

	"cardirect/internal/core"
	"cardirect/internal/geom"
)

// maxEntries is the node fan-out; minEntries the fill guarantee after
// splits.
const (
	maxEntries = 8
	minEntries = maxEntries * 2 / 5
)

// Item is one indexed object: a bounding box and an opaque identifier.
type Item struct {
	Box geom.Rect
	ID  string
	// Prepared optionally carries the object's prepared form, so a
	// directional selection refines a surviving candidate without looking
	// it up or preparing it. Live sets it; the tree itself never reads it.
	Prepared *core.Prepared
}

// RTree is an in-memory R-tree with quadratic-split insertion and
// sort-tile-recursive (STR) bulk loading.
type RTree struct {
	root *node
	size int
}

type node struct {
	leaf     bool
	box      geom.Rect
	items    []Item  // leaf payload
	children []*node // internal children
}

// New returns an empty tree.
func New() *RTree {
	return &RTree{root: &node{leaf: true, box: geom.EmptyRect()}}
}

// Len returns the number of indexed items.
func (t *RTree) Len() int { return t.size }

// Bounds returns the bounding box of everything indexed.
func (t *RTree) Bounds() geom.Rect { return t.root.box }

// Insert adds an item.
func (t *RTree) Insert(it Item) error {
	if it.Box.IsEmpty() {
		return fmt.Errorf("index: cannot insert an empty box")
	}
	t.insertRoot(it)
	t.size++
	return nil
}

// insertRoot runs the insertion descent from the root, growing the tree on
// a root split. Shared by Insert and Delete's orphan reinsertion (which must
// not touch size).
func (t *RTree) insertRoot(it Item) {
	n1, n2 := t.insert(t.root, it)
	if n2 != nil {
		// Root split: grow the tree.
		t.root = &node{
			leaf:     false,
			box:      n1.box.Union(n2.box),
			children: []*node{n1, n2},
		}
	}
}

// Delete removes the item matching it by ID and box, reporting whether it
// was found. It condenses the tree on the way back up: nodes falling below
// the minimum fill are dissolved and their surviving items reinserted, so
// the fill and balance invariants hold after arbitrary delete sequences —
// the property the maintained Live index relies on under edit traffic.
func (t *RTree) Delete(it Item) bool {
	if it.Box.IsEmpty() {
		return false
	}
	var orphans []Item
	if !deleteFromNode(t.root, it, &orphans) {
		return false
	}
	t.size--
	// Shrink the root: an internal root left with one child (or none, after
	// its last underfull child dissolved) loses a level.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	if !t.root.leaf && len(t.root.children) == 0 {
		t.root = &node{leaf: true, box: geom.EmptyRect()}
	}
	if t.root.leaf && len(t.root.items) == 0 {
		t.root.box = geom.EmptyRect()
	}
	for _, o := range orphans {
		t.insertRoot(o)
	}
	return true
}

// deleteFromNode descends into subtrees whose box covers the item, removes
// it from its leaf, and condenses on the way back: an underfull child is cut
// out with its remaining items appended to orphans for reinsertion. Boxes
// along the path are recomputed exactly.
func deleteFromNode(n *node, it Item, orphans *[]Item) bool {
	if !n.box.Intersects(it.Box) {
		return false
	}
	if n.leaf {
		for i, x := range n.items {
			if x.ID == it.ID && x.Box == it.Box {
				n.items = append(n.items[:i], n.items[i+1:]...)
				n.box = geom.EmptyRect()
				for _, y := range n.items {
					n.box = n.box.Union(y.Box)
				}
				return true
			}
		}
		return false
	}
	for ci, c := range n.children {
		if !deleteFromNode(c, it, orphans) {
			continue
		}
		underfull := len(c.items) < minEntries
		if !c.leaf {
			underfull = len(c.children) < minEntries
		}
		if underfull {
			collectItems(c, orphans)
			n.children = append(n.children[:ci], n.children[ci+1:]...)
		}
		n.box = geom.EmptyRect()
		for _, cc := range n.children {
			n.box = n.box.Union(cc.box)
		}
		return true
	}
	return false
}

// collectItems gathers every item of a dissolved subtree.
func collectItems(n *node, dst *[]Item) {
	if n.leaf {
		*dst = append(*dst, n.items...)
		return
	}
	for _, c := range n.children {
		collectItems(c, dst)
	}
}

// insert descends to a leaf, splitting on overflow; it returns the
// (possibly new) node pair replacing n.
func (t *RTree) insert(n *node, it Item) (*node, *node) {
	n.box = n.box.Union(it.Box)
	if n.leaf {
		n.items = append(n.items, it)
		if len(n.items) > maxEntries {
			return splitLeaf(n)
		}
		return n, nil
	}
	best := chooseSubtree(n.children, it.Box)
	c1, c2 := t.insert(n.children[best], it)
	n.children[best] = c1
	if c2 != nil {
		n.children = append(n.children, c2)
		if len(n.children) > maxEntries {
			return splitInternal(n)
		}
	}
	return n, nil
}

// chooseSubtree picks the child needing the least area enlargement
// (ties: smaller area).
func chooseSubtree(children []*node, box geom.Rect) int {
	best := 0
	bestEnlarge := enlargement(children[0].box, box)
	bestArea := children[0].box.Area()
	for i := 1; i < len(children); i++ {
		e := enlargement(children[i].box, box)
		a := children[i].box.Area()
		if e < bestEnlarge || (e == bestEnlarge && a < bestArea) {
			best, bestEnlarge, bestArea = i, e, a
		}
	}
	return best
}

func enlargement(have, add geom.Rect) float64 {
	return have.Union(add).Area() - have.Area()
}

// splitLeaf performs a quadratic split of an overflowing leaf.
func splitLeaf(n *node) (*node, *node) {
	seedA, seedB := quadraticSeeds(len(n.items), func(i int) geom.Rect { return n.items[i].Box })
	a := &node{leaf: true, box: n.items[seedA].Box, items: []Item{n.items[seedA]}}
	b := &node{leaf: true, box: n.items[seedB].Box, items: []Item{n.items[seedB]}}
	rest := make([]Item, 0, len(n.items)-2)
	for i, it := range n.items {
		if i != seedA && i != seedB {
			rest = append(rest, it)
		}
	}
	for _, it := range rest {
		target := pickGroup(a.box, b.box, it.Box, len(a.items), len(b.items), len(rest))
		if target == 0 {
			a.items = append(a.items, it)
			a.box = a.box.Union(it.Box)
		} else {
			b.items = append(b.items, it)
			b.box = b.box.Union(it.Box)
		}
	}
	return a, b
}

// splitInternal performs a quadratic split of an overflowing internal node.
func splitInternal(n *node) (*node, *node) {
	seedA, seedB := quadraticSeeds(len(n.children), func(i int) geom.Rect { return n.children[i].box })
	a := &node{box: n.children[seedA].box, children: []*node{n.children[seedA]}}
	b := &node{box: n.children[seedB].box, children: []*node{n.children[seedB]}}
	rest := make([]*node, 0, len(n.children)-2)
	for i, c := range n.children {
		if i != seedA && i != seedB {
			rest = append(rest, c)
		}
	}
	for _, c := range rest {
		target := pickGroup(a.box, b.box, c.box, len(a.children), len(b.children), len(rest))
		if target == 0 {
			a.children = append(a.children, c)
			a.box = a.box.Union(c.box)
		} else {
			b.children = append(b.children, c)
			b.box = b.box.Union(c.box)
		}
	}
	return a, b
}

// quadraticSeeds picks the pair wasting the most area when grouped.
func quadraticSeeds(n int, boxOf func(int) geom.Rect) (int, int) {
	sa, sb := 0, 1
	worst := -1.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := boxOf(i).Union(boxOf(j)).Area() - boxOf(i).Area() - boxOf(j).Area()
			if d > worst {
				worst, sa, sb = d, i, j
			}
		}
	}
	return sa, sb
}

// pickGroup assigns an entry during a quadratic split: prefer the group
// needing less enlargement, but honour the minimum fill guarantee.
func pickGroup(boxA, boxB, box geom.Rect, lenA, lenB, remaining int) int {
	if lenA+remaining <= minEntries {
		return 0
	}
	if lenB+remaining <= minEntries {
		return 1
	}
	ea := enlargement(boxA, box)
	eb := enlargement(boxB, box)
	switch {
	case ea < eb:
		return 0
	case eb < ea:
		return 1
	case boxA.Area() <= boxB.Area():
		return 0
	default:
		return 1
	}
}

// Search appends to dst the items whose boxes intersect the query window
// and returns the extended slice.
func (t *RTree) Search(window geom.Rect, dst []Item) []Item {
	return searchNode(t.root, window, dst)
}

func searchNode(n *node, window geom.Rect, dst []Item) []Item {
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
		dst = searchNode(c, window, dst)
	}
	return dst
}

// BulkLoad builds a tree from scratch with sort-tile-recursive packing —
// the right way to index a whole configuration at once.
func BulkLoad(items []Item) (*RTree, error) {
	for _, it := range items {
		if it.Box.IsEmpty() {
			return nil, fmt.Errorf("index: cannot bulk-load an empty box (id %q)", it.ID)
		}
	}
	t := &RTree{size: len(items)}
	if len(items) == 0 {
		t.root = &node{leaf: true, box: geom.EmptyRect()}
		return t, nil
	}
	// Leaf level: sort by x, tile into runs of size maxEntries*sliceCount,
	// sort each run by y, pack.
	leaves := packLeaves(items)
	level := leaves
	for len(level) > 1 {
		level = packInternal(level)
	}
	t.root = level[0]
	return t, nil
}

func packLeaves(items []Item) []*node {
	its := make([]Item, len(items))
	copy(its, items)
	sort.Slice(its, func(i, j int) bool { return center(its[i].Box).X < center(its[j].Box).X })
	sliceSize := stripSize(len(its))
	var leaves []*node
	for s := 0; s < len(its); s += sliceSize {
		e := s + sliceSize
		if e > len(its) {
			e = len(its)
		}
		strip := its[s:e]
		sort.Slice(strip, func(i, j int) bool { return center(strip[i].Box).Y < center(strip[j].Box).Y })
		for k := 0; k < len(strip); k += maxEntries {
			ke := k + maxEntries
			if ke > len(strip) {
				ke = len(strip)
			}
			n := &node{leaf: true, box: geom.EmptyRect()}
			n.items = append(n.items, strip[k:ke]...)
			for _, it := range n.items {
				n.box = n.box.Union(it.Box)
			}
			leaves = append(leaves, n)
		}
	}
	return leaves
}

func packInternal(level []*node) []*node {
	ns := make([]*node, len(level))
	copy(ns, level)
	sort.Slice(ns, func(i, j int) bool { return center(ns[i].box).X < center(ns[j].box).X })
	sliceSize := stripSize(len(ns))
	var out []*node
	for s := 0; s < len(ns); s += sliceSize {
		e := s + sliceSize
		if e > len(ns) {
			e = len(ns)
		}
		strip := ns[s:e]
		sort.Slice(strip, func(i, j int) bool { return center(strip[i].box).Y < center(strip[j].box).Y })
		for k := 0; k < len(strip); k += maxEntries {
			ke := k + maxEntries
			if ke > len(strip) {
				ke = len(strip)
			}
			n := &node{box: geom.EmptyRect()}
			n.children = append(n.children, strip[k:ke]...)
			for _, c := range n.children {
				n.box = n.box.Union(c.box)
			}
			out = append(out, n)
		}
	}
	return out
}

// stripSize is the STR vertical strip width: ceil(sqrt(ceil(n/M))) * M.
func stripSize(n int) int {
	pages := (n + maxEntries - 1) / maxEntries
	s := 1
	for s*s < pages {
		s++
	}
	return s * maxEntries
}

func center(r geom.Rect) geom.Point { return r.Center() }

// Depth returns the height of the tree (1 for a single leaf); useful for
// structural assertions in tests.
func (t *RTree) Depth() int {
	d := 1
	for n := t.root; !n.leaf; n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants walks the tree validating structural invariants; it
// returns an error describing the first violation. Exposed for tests.
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
		depths[subDepth(c)] = true
	}
	if box != n.box {
		return fmt.Errorf("index: internal box %v != union of children %v", n.box, box)
	}
	if len(depths) != 1 {
		return fmt.Errorf("index: unbalanced subtree depths")
	}
	return nil
}

func subDepth(n *node) int {
	d := 1
	for !n.leaf {
		n = n.children[0]
		d++
	}
	return d
}
