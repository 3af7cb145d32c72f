package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/index"
	"cardirect/internal/persist"
	"cardirect/internal/query"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
)

// node is cardirectd in-process: the composition cmd/cardirectd builds for
// the primary role (config.Track or persist.Open → replica.NewPrimary →
// serve.New), with the same options the binary's flags set.
type node struct {
	tr      *config.Tracked
	ps      *persist.Store // nil when the node is in memory
	prim    *replica.Primary
	handler http.Handler
}

var alwaysSync = persist.Options{Sync: wal.Options{Policy: wal.SyncAlways}, Pct: true}

// newNode builds a node over img; with a data directory it is durable
// (-data -fsync always), without one it is in memory. Both track percent
// matrices (-pct on).
func newNode(img *config.Image, dataDir string, logger *slog.Logger) (*node, error) {
	n := &node{}
	var under replica.Editor
	if dataDir != "" {
		opt := alwaysSync
		opt.Logger = logger
		ps, err := persist.Open(dataDir, img, opt)
		if err != nil {
			return nil, err
		}
		n.ps, n.tr, under = ps, ps.Tracked(), ps
	} else {
		tr, err := config.Track(img, core.StoreOptions{Pct: true})
		if err != nil {
			return nil, err
		}
		n.tr, under = tr, tr
	}
	n.prim = replica.NewPrimary(n.tr, under, replica.PrimaryOptions{Pct: true})
	n.handler = serve.New(n.tr, serve.Options{
		RequestTimeout: 30 * time.Second, // the binary's -request-timeout default
		Logger:         logger, Persist: n.ps, Repl: n.prim, Editor: n.prim,
	}).Handler()
	return n, nil
}

func (n *node) close() {
	if n.ps != nil {
		n.ps.Close()
	}
	n.tr.Close()
}

// shadows are the instances the traced pass issues each operation at
// directly, one per layer boundary: a whole second node (the replication
// primary over everything below it), then a bare persist store, a bare
// tracked configuration, a bare relation store, a bare live index and a bare
// log writer. All start from the same world and receive the same edits, so
// the same call costs on them what it costs inside the handler.
type shadows struct {
	node    *node
	persist *persist.Store // nil when the replayed node is in memory
	tracked *config.Tracked
	store   *core.RelationStore
	index   *index.Live
	wal     *wal.Writer // nil when the replayed node is in memory
	plans   *query.PlanCache
}

func namedRegions(img *config.Image) []core.NamedRegion {
	out := make([]core.NamedRegion, len(img.Regions))
	for i := range img.Regions {
		out[i] = core.NamedRegion{Name: img.Regions[i].ID, Region: img.Regions[i].Geometry()}
	}
	return out
}

func newShadows(w *world, dir string, durable bool, logger *slog.Logger) (*shadows, error) {
	s := &shadows{plans: query.NewPlanCache(256)} // the server's capacity
	var err error
	nodeDir, persistDir := "", ""
	if durable {
		nodeDir, persistDir = filepath.Join(dir, "shadow-node"), filepath.Join(dir, "shadow-persist")
	}
	if s.node, err = newNode(w.image(), nodeDir, logger); err != nil {
		return nil, err
	}
	if durable {
		opt := alwaysSync
		opt.Logger = logger
		if s.persist, err = persist.Open(persistDir, w.image(), opt); err != nil {
			return nil, err
		}
		if s.wal, err = wal.Create(filepath.Join(dir, "shadow-wal.log"), wal.Options{Policy: wal.SyncAlways}); err != nil {
			return nil, err
		}
	}
	if s.tracked, err = config.Track(w.image(), core.StoreOptions{Pct: true}); err != nil {
		return nil, err
	}
	regions := namedRegions(w.image())
	if s.store, err = core.NewRelationStore(regions, core.StoreOptions{Pct: true}); err != nil {
		return nil, err
	}
	s.index, err = index.NewLive(regions)
	return s, err
}

func (s *shadows) close() {
	s.node.close()
	if s.persist != nil {
		s.persist.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
	s.tracked.Close()
}

// timed runs f and returns how long it took.
func timed(f func()) int64 {
	start := time.Now()
	f()
	return time.Since(start).Nanoseconds()
}

// timedRep times a call too short for one clock reading by repeating it.
func timedRep(f func()) int64 {
	const reps = 32
	start := time.Now()
	for i := 0; i < reps; i++ {
		f()
	}
	return time.Since(start).Nanoseconds() / reps
}

// editor is the four region edits as every layer from the tracked
// configuration upwards spells them.
type editor interface {
	AddRegion(id, name, color string, g geom.Region) error
	RemoveRegion(id string) error
	RenameRegion(oldID, newID string) error
	SetRegionGeometry(id string, g geom.Region) error
}

// applyEdit issues e at an editor and returns the method it called.
func applyEdit(ed editor, e edit) (string, error) {
	switch e.kind {
	case opPut:
		return "SetRegionGeometry", ed.SetRegionGeometry(e.id, e.geom)
	case opAdd:
		return "AddRegion", ed.AddRegion(e.id, e.id, e.color, e.geom)
	case opDelete:
		return "RemoveRegion", ed.RemoveRegion(e.id)
	default:
		return "RenameRegion", ed.RenameRegion(e.id, e.newID)
	}
}

// storeEditor and indexEditor spell the same edits the way the relation
// store and the live index do.
type storeEditor struct{ s *core.RelationStore }

func (a storeEditor) AddRegion(id, _, _ string, g geom.Region) error { return a.s.Add(id, g) }
func (a storeEditor) RemoveRegion(id string) error                   { return a.s.Remove(id) }
func (a storeEditor) RenameRegion(o, n string) error                 { return a.s.Rename(o, n) }
func (a storeEditor) SetRegionGeometry(id string, g geom.Region) error {
	return a.s.SetGeometry(id, g)
}

type indexEditor struct{ l *index.Live }

func (a indexEditor) AddRegion(id, _, _ string, g geom.Region) error { return a.l.Add(id, g) }
func (a indexEditor) RemoveRegion(id string) error                   { return a.l.Remove(id) }
func (a indexEditor) RenameRegion(o, n string) error                 { return a.l.Rename(o, n) }
func (a indexEditor) SetRegionGeometry(id string, g geom.Region) error {
	return a.l.SetGeometry(id, g)
}

// storeMethod names the relation store's and the index's method for an edit.
var storeMethod = map[string]string{
	"SetRegionGeometry": "SetGeometry", "AddRegion": "Add", "RemoveRegion": "Remove", "RenameRegion": "Rename",
}

func walRecord(e edit) wal.Record {
	switch e.kind {
	case opPut:
		return wal.Record{Op: wal.OpSetGeometry, ID: e.id, Geometry: e.geom}
	case opAdd:
		return wal.Record{Op: wal.OpAdd, ID: e.id, Name: e.id, Color: e.color, Geometry: e.geom}
	case opDelete:
		return wal.Record{Op: wal.OpRemove, ID: e.id}
	default:
		return wal.Record{Op: wal.OpRename, ID: e.id, NewID: e.newID}
	}
}

// editCalls applies an edit at every shadow and returns the calls nested the
// way the layers nest inside the handler: the replication primary wraps the
// durable store, which appends to the log and edits the tracked
// configuration, which edits the relation store and the index.
func (s *shadows) editCalls(e edit, wkt string) ([]call, error) {
	var calls []call
	if wkt != "" {
		calls = append(calls, call{name: "geom.ParseWKT", ns: timed(func() { _, _ = geom.ParseWKT(wkt) })})
	}
	var method string
	var firstErr error
	at := func(ed editor) int64 {
		return timed(func() {
			m, err := applyEdit(ed, e)
			method = m
			if err != nil && firstErr == nil {
				firstErr = err
			}
		})
	}
	storeNs := at(storeEditor{s.store})
	indexNs := at(indexEditor{s.index})
	trackedNs := at(s.tracked)
	tracked := call{name: "config.Tracked." + method, ns: trackedNs, children: []call{
		{name: "core.RelationStore." + storeMethod[method], ns: storeNs},
		{name: "index.Live." + storeMethod[method], ns: indexNs},
	}}
	under := tracked
	if s.persist != nil {
		walNs := timed(func() {
			if err := s.wal.Append(walRecord(e)); err != nil && firstErr == nil {
				firstErr = err
			}
		})
		under = call{name: "persist.Store." + method, ns: at(s.persist), children: []call{
			{name: "wal.Writer.Append", ns: walNs}, tracked,
		}}
	}
	primary := call{name: "replica.Primary." + method, ns: at(s.node.prim), children: []call{under}}
	return append(calls, primary), firstErr
}

// readCalls issues a read's work directly at the layers below the handler.
// Reads change nothing, so they run against the shadow node's own state.
func (s *shadows) readCalls(g *generator, r *request, stats *replayStats) ([]call, error) {
	tr := s.node.tr
	store := tr.Store()
	switch r.kind {
	case opRelation:
		return []call{{name: "core.RelationStore.Relation", ns: timedRep(func() { _, _ = store.Relation(r.a, r.b) })}}, nil
	case opRelationPct:
		return []call{
			{name: "core.RelationStore.Relation", ns: timedRep(func() { _, _ = store.Relation(r.a, r.b) })},
			{name: "core.RelationStore.Percent", ns: timedRep(func() { _, _ = store.Percent(r.a, r.b) })},
		}, nil
	case opSelect:
		var ns int64
		err := tr.View(func(img *config.Image) error {
			reg := img.FindRegion(r.a)
			if reg == nil {
				return fmt.Errorf("shadow select: no region %s", r.a)
			}
			var st index.SelectStats
			var err error
			ns = timed(func() { _, st, err = tr.Index().SelectStatsCtx(context.Background(), reg.Geometry(), g.relSets[r.set]) })
			stats.selects++
			stats.candidates += st.Candidates
			stats.exact += st.Exact
			stats.matched += st.Matched
			return err
		})
		return []call{{name: "index.Live.Select", ns: ns}}, err
	case opQueryHit, opQueryMiss:
		var calls []call
		err := tr.View(func(img *config.Image) error {
			var ev *query.Evaluator
			var err error
			newNs := timed(func() { ev, err = query.NewEvaluator(img) })
			if err != nil {
				return err
			}
			ev.UseStore(store)
			ev.UseIndex(tr.Index())
			ev.SetPlanCache(s.plans)
			var res *query.Result
			runNs := timed(func() { res, err = ev.Run(context.Background(), r.query, r.args) })
			if err != nil {
				return err
			}
			stats.queries++
			stats.bindings += len(res.Bindings)
			calls = []call{
				{name: "query.NewEvaluator", ns: newNs},
				{name: "query.Evaluator.Run." + res.Cache, ns: runNs},
			}
			return nil
		})
		return calls, err
	case opRegionGet:
		var calls []call
		err := tr.View(func(img *config.Image) error {
			reg := img.FindRegion(r.a)
			if reg == nil {
				return fmt.Errorf("shadow region read: no region %s", r.a)
			}
			gm := reg.Geometry()
			calls = []call{
				{name: "geom.FormatWKT", ns: timed(func() { _ = geom.FormatWKT(gm) })},
				{name: "geom.FormatGeoJSON", ns: timed(func() { _, _ = geom.FormatGeoJSON(gm) })},
			}
			return nil
		})
		return calls, err
	}
	return nil, nil // a 304 does no work below serve
}

// replayStats are the counters read at the same boundaries as the spans.
type replayStats struct {
	selects, candidates, exact, matched int
	queries, bindings                   int
	edits, recomputes                   int   // all edits; those that recompute a row and column
	handlerNs                           int64 // time inside Handler().ServeHTTP, traced or not
	// Read off the shadows when the traced pass ends.
	deltaPairs int
	plans      query.PlanCacheStats
}

// replay runs ops through a node's handler in-process, one at a time, and
// judges every answer like the wire does. With a tracer that is on, every
// operation gets a root span around Handler().ServeHTTP and, inside it, the
// shadow calls of the layers below.
func (r *run) replay(name string, w *world, ops []op, durable bool, t *tracer) (replayStats, error) {
	var stats replayStats
	dir := filepath.Join(r.workDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, err
	}
	logFile, err := os.Create(filepath.Join(dir, "access.log"))
	if err != nil {
		return stats, err
	}
	defer logFile.Close()
	logger := slog.New(slog.NewTextHandler(logFile, nil))

	dataDir := ""
	if durable {
		dataDir = filepath.Join(dir, "data")
	}
	n, err := newNode(w.image(), dataDir, logger)
	if err != nil {
		return stats, err
	}
	defer n.close()
	var sh *shadows
	if t.on {
		if sh, err = newShadows(w, dir, durable, logger); err != nil {
			return stats, err
		}
		defer sh.close()
	}

	gen := newGenerator(w)
	etag := ""
	for i, o := range ops {
		req := gen.build(o, etag)
		r.tally.attempted.Add(1)
		hreq, err := req.httpRequest("http://bench.invalid")
		if err != nil {
			return stats, err
		}
		rec := httptest.NewRecorder()
		sent := time.Now()
		root := t.begin("serve.handler."+req.kind.class(), -1, i)
		n.handler.ServeHTTP(rec, hreq)
		t.end(root)
		stats.handlerNs += time.Since(sent).Nanoseconds()
		if et := rec.Header().Get("ETag"); et != "" {
			etag = et
		}
		body, _ := io.ReadAll(rec.Body)
		edit := req.edit // judge applies it to the oracle
		gen.judge(r.tally, req, rec.Code, rec.Header().Get("ETag"), body, sent)
		if !t.on {
			continue
		}
		var calls []call
		if edit != nil {
			stats.edits++
			if edit.kind == opPut || edit.kind == opAdd {
				stats.recomputes++
			}
			wkt := ""
			if edit.geom != nil {
				wkt = geom.FormatWKT(edit.geom)
			}
			calls, err = sh.editCalls(*edit, wkt)
		} else {
			calls, err = sh.readCalls(gen, req, &stats)
		}
		if err != nil {
			return stats, fmt.Errorf("shadow of %s %s: %w", req.method, req.path, err)
		}
		t.shadow(root, i, calls)
	}
	if sh != nil {
		stats.deltaPairs = sh.store.Stats().DeltaPairs
		stats.plans = sh.plans.Stats()
	}
	return stats, nil
}
