package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/workload"
)

// colors cycle over the generated regions so attribute conditions in the
// query texts select a stable quarter of the world.
var colors = []string{"red", "green", "blue", "grey"}

func coreID(i int) string    { return fmt.Sprintf("c%04d", i) }
func colorOf(i int) string   { return colors[i%len(colors)] }
func churnID(seq int) string { return fmt.Sprintf("x%06d", seq) }

// regionState is the generator's view of one served region.
type regionState struct {
	geom  geom.Region
	color string
	// centre and radius the generator drew the region around; edits redraw
	// it there, so the world's density (and with it the cost of one delta
	// recompute) stays what the generator made it.
	cx, cy, r float64
	// changed is when the last acknowledged edit of this region landed;
	// busy counts edits of it that are on the wire right now; safeGen is a
	// store generation by which that edit is certainly applied (see view).
	changed time.Time
	busy    int
	safeGen uint64
}

// view is what is known about when a read was served: the time it went on
// the wire and, when the answer carried a generation ETag, the store
// generation it was served at. A replica may serve a read sent long after
// an edit was acknowledged from a generation before that edit; the
// generation tells the two cases apart.
type view struct {
	sent   time.Time
	gen    uint64
	hasGen bool
}

// world is the oracle's copy of the served configuration: the current
// geometry of every region, kept in step with acknowledged edits. Core
// regions (c0000…) always exist and only ever change geometry, so reads
// aimed at them are never 4xx by construction; churn regions (x000001…)
// are the ones added, renamed and deleted.
type world struct {
	mu      sync.Mutex
	regions map[string]*regionState
	nCore   int
	churn   []string // live churn ids, in creation order
	nextSeq int
	edges   int
	// gone keeps the last state of every id that was deleted or renamed
	// away, so a read that raced with its departure can be excused.
	gone map[string]*regionState
	// genBase is the store generation before the first edit; started counts
	// edits sent so far. Every edit moves the generation by exactly one, so
	// once an edit is acknowledged, generation genBase+started — every edit
	// sent before the acknowledgement applied — certainly includes it.
	genBase, started uint64
}

// newWorld generates the Cluster world the daemon workloads serve.
func newWorld(seed int64, n, groups, edges int) *world {
	w := &world{regions: make(map[string]*regionState, n), gone: map[string]*regionState{}, nCore: n, edges: edges}
	for i, g := range workload.New(seed).Cluster(n, groups, edges) {
		box := g.BoundingBox()
		c := box.Center()
		w.regions[coreID(i)] = &regionState{geom: g, color: colorOf(i),
			cx: c.X, cy: c.Y, r: 0.5 * math.Max(box.Width(), box.Height())}
	}
	return w
}

// image renders the current world as a configuration document.
func (w *world) image() *config.Image {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.regions))
	for id := range w.regions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	img := &config.Image{Name: "bench"}
	for _, id := range ids {
		st := w.regions[id]
		r := config.Region{ID: id, Name: id, Color: st.color}
		r.SetGeometry(st.geom)
		img.Regions = append(img.Regions, r)
	}
	return img
}

// writeXML saves the world where cardirectd -config can load it.
func (w *world) writeXML(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w.image().Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// snapshot copies the live regions and the departed ones. Geometries are
// never mutated in place, so sharing the slices is safe.
func (w *world) snapshot() (live, gone map[string]*regionState) {
	w.mu.Lock()
	defer w.mu.Unlock()
	cp := func(m map[string]*regionState) map[string]*regionState {
		out := make(map[string]*regionState, len(m))
		for id, st := range m {
			c := *st
			out[id] = &c
		}
		return out
	}
	return cp(w.regions), cp(w.gone)
}

// unstable reports whether a read could have observed either side of an
// edit of st: one is on the wire, one was acknowledged after the read was
// sent, or the read was served from a generation that may predate one.
func (st *regionState) unstable(v view) bool {
	return st.busy > 0 || !st.changed.Before(v.sent) || (v.hasGen && v.gen < st.safeGen)
}

// redraw returns a fresh geometry for a region: a new star polygon of the
// same edge count around the same centre.
func (st *regionState) redraw(seed int64, edges int) geom.Region {
	return geom.Rgn(workload.New(seed).StarPolygon(st.cx, st.cy, 0.6*st.r, st.r, edges))
}

// edit is one region edit resolved against the world: which ids it touches
// and what it does to the oracle once the daemon acknowledges it.
type edit struct {
	kind  opKind
	id    string
	newID string      // rename target
	geom  geom.Region // add, put
	color string      // add
}

// beginEdit resolves a write op against the live world, picking only
// regions with no other edit in flight so two connections never race on
// one id, and marks its targets busy. ok is false when nothing eligible
// exists (every churn region is busy): the caller falls back to an add.
func (w *world) beginEdit(kind opKind, r1, r2, r3 uint64) (e edit, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer func() {
		if ok {
			w.started++
		}
	}()
	switch kind {
	case opPut:
		for k := 0; k < w.nCore; k++ {
			id := coreID(int((r1 + uint64(k)) % uint64(w.nCore)))
			st := w.regions[id]
			if st.busy == 0 {
				st.busy++
				return edit{kind: opPut, id: id, geom: st.redraw(int64(r3), w.edges)}, true
			}
		}
		return edit{}, false
	case opDelete, opRename:
		for k := range w.churn {
			id := w.churn[(int(r1%uint64(len(w.churn)))+k)%len(w.churn)]
			st := w.regions[id]
			if st.busy == 0 {
				st.busy++
				e := edit{kind: kind, id: id}
				if kind == opRename {
					w.nextSeq++
					e.newID = churnID(w.nextSeq)
					// The daemon may serve the new id before the rename is
					// acknowledged: until then it is known, and busy.
					w.gone[e.newID] = &regionState{busy: 1}
				}
				return e, true
			}
		}
		return edit{}, false
	default: // opAdd: a new region shaped like a jittered core region
		src := w.regions[coreID(int(r2%uint64(w.nCore)))]
		w.nextSeq++
		id := churnID(w.nextSeq)
		g := src.redraw(int64(r3), w.edges)
		// The new id is reserved as busy so selections racing with the add
		// treat it as unstable.
		w.regions[id] = &regionState{geom: g, color: colorOf(w.nextSeq), cx: src.cx, cy: src.cy, r: src.r, busy: 1}
		return edit{kind: opAdd, id: id, geom: g, color: colorOf(w.nextSeq)}, true
	}
}

// endEdit applies an acknowledged edit to the oracle (or rolls the
// reservation back when the daemon refused it).
func (w *world) endEdit(e edit, acked bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	st := w.regions[e.id]
	st.busy--
	st.changed = now
	st.safeGen = w.genBase + w.started
	if e.kind == opRename {
		delete(w.gone, e.newID)
	}
	if !acked {
		if e.kind == opAdd {
			delete(w.regions, e.id)
		}
		return
	}
	switch e.kind {
	case opPut:
		st.geom = e.geom
	case opAdd:
		w.churn = append(w.churn, e.id)
	case opDelete:
		delete(w.regions, e.id)
		w.gone[e.id] = st
		w.dropChurn(e.id)
	case opRename:
		delete(w.regions, e.id)
		left := *st
		w.gone[e.id] = &left
		w.regions[e.newID] = st
		for i, id := range w.churn {
			if id == e.id {
				w.churn[i] = e.newID
			}
		}
	}
}

func (w *world) dropChurn(id string) {
	for i, c := range w.churn {
		if c == id {
			w.churn = append(w.churn[:i], w.churn[i+1:]...)
			return
		}
	}
}

// oracleRelation is the from-scratch answer for one ordered pair.
func oracleRelation(a, b geom.Region) (string, error) {
	rel, err := core.ComputeCDR(a, b)
	if err != nil {
		return "", err
	}
	return rel.String(), nil
}
