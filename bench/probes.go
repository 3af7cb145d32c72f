package main

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
	"cardirect/internal/reason"
	"cardirect/internal/replica"
	"cardirect/internal/wal"
)

// The probes time one layer's public functions at a time on fixed,
// seed-generated inputs. They are the same for every workload: what a call
// into a layer costs does not depend on the traffic mix; how often it is
// called does, and that is what the traced replay's shares report.

// probeWorld is the world the probes and the all-classes replay run on: the
// edit-durable world.
func probeWorld(seed int64) *world { return newWorld(seed, editRegions, editGroups, editEdges) }

// medianOf runs f reps times and returns the median duration in ns.
func medianOf(reps int, f func()) float64 {
	vs := make([]float64, reps)
	for i := range vs {
		vs[i] = float64(timed(f))
	}
	return median(vs)
}

func worldRegions(w *world) []core.NamedRegion { return namedRegions(w.image()) }

// coreProbes are the kernel-side figures: preparation, the prepared
// kernels per pair on both kinds of world, the fast paths' shares, the
// one-shot algorithms per edge, the store's bulk operations, and the
// level-of-detail tier.
func coreProbes(seed int64, m map[string]float64) error {
	in := newKernelInputs(seed)
	ctx := context.Background()

	var prep []float64
	for _, reg := range in.cluster[:200] {
		prep = append(prep, float64(timed(func() { _, _ = core.Prepare(reg.Name, reg.Region) })))
	}
	m["core.prepare_us"] = median(prep) / 1e3

	for _, wld := range []struct {
		name    string
		regions []core.NamedRegion
	}{{"cluster", in.clusterGroup(0)}, {"scatter", in.scatterWindow(0)}} {
		ps, err := core.PrepareAll(wld.regions)
		if err != nil {
			return err
		}
		var sc core.Scratch
		pairs := float64(len(ps) * (len(ps) - 1))
		m["core.relate_ns."+wld.name] = medianOf(21, func() {
			for i, a := range ps {
				for j, b := range ps {
					if i != j {
						_, _ = core.Relate(a, b, &sc)
					}
				}
			}
		}) / pairs
		m["core.relatepct_ns."+wld.name] = medianOf(21, func() {
			for i, a := range ps {
				for j, b := range ps {
					if i != j {
						_, _, _ = core.RelatePct(a, b, &sc)
					}
				}
			}
		}) / pairs
		qual, err := core.BatchCDR(ctx, wld.regions, oneWorker)
		if err != nil {
			return err
		}
		pct, err := core.BatchPct(ctx, wld.regions, oneWorker)
		if err != nil {
			return err
		}
		m["core.prune_share."+wld.name] = float64(qual.Stats.PruneSingleTile+qual.Stats.PruneBand) / pairs
		m["core.pct_prune_share."+wld.name] = float64(pct.Stats.PrunePctTile+pct.Stats.PrunePctPoly) / pairs
		if wld.name == "cluster" {
			// The paper's edge inflation: segments after splitting on the
			// lines of mbb(b) over edges before, where the kernel ran.
			m["core.split_ratio"] = float64(qual.Stats.EdgesOut) / float64(qual.Stats.EdgesIn)
			a, b := ps[0], ps[1]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 1000; i++ {
				_, _ = core.Relate(a, b, &sc)
			}
			runtime.ReadMemStats(&after)
			m["core.allocs_per_relate"] = float64(after.Mallocs-before.Mallocs) / 1000
		}
	}

	edges := 0
	for _, c := range in.sweep {
		edges += c.Edges
	}
	m["core.oneshot_qual_ns_per_edge"] = medianOf(15, func() {
		for _, c := range in.sweep {
			_, _ = core.ComputeCDR(c.A, c.B)
		}
	}) / float64(edges)
	m["core.oneshot_pct_ns_per_edge"] = medianOf(15, func() {
		for _, c := range in.sweep {
			_, _, _ = core.ComputeCDRPct(c.A, c.B)
		}
	}) / float64(edges)

	regions := worldRegions(probeWorld(seed))
	var store *core.RelationStore
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var err error
	m["core.store_build_ms"] = medianOf(5, func() {
		store, err = core.NewRelationStore(regions, core.StoreOptions{Pct: true})
	}) / 1e6
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := float64(len(regions))
	m["core.store_bytes_per_pair"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (n * (n - 1))
	m["core.store_pairs_ms"] = medianOf(7, func() { _ = store.Pairs() }) / 1e6
	runtime.KeepAlive(store)

	var lw *core.LoDWorld
	m["core.lod_build_ms"] = medianOf(3, func() { lw, err = core.PrepareLoDWorld(in.zipf, core.LoDOptions{Workers: 1}) }) / 1e6
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]int, lodRows)
	var st core.Stats
	m["core.lod_row_us"] = medianOf(7, func() {
		for i := range rows {
			rows[i] = rng.Intn(lw.Len())
		}
		_, st, err = lw.BatchRows(ctx, rows, false)
	}) / 1e3 / lodRows
	if err != nil {
		return err
	}
	decided := float64(st.CoarseSingleTile + st.LoDSimplified + st.LoDStrip + st.LoDExact)
	m["core.lod_coarse_share"] = float64(st.CoarseSingleTile) / decided
	m["core.lod_exact_share"] = float64(st.LoDExact) / decided
	return nil
}

// formatProbes time the interchange formats per region of the probe world
// (16 edges each), and the XML document as a whole.
func formatProbes(seed int64, m map[string]float64) error {
	w := probeWorld(seed)
	regions := worldRegions(w)
	var parseWKT, parseJSON, formatWKT, formatJSON []float64
	for _, reg := range regions {
		var wkt string
		var gj []byte
		formatWKT = append(formatWKT, float64(timed(func() { wkt = geom.FormatWKT(reg.Region) })))
		formatJSON = append(formatJSON, float64(timed(func() { gj, _ = geom.FormatGeoJSON(reg.Region) })))
		var err1, err2 error
		parseWKT = append(parseWKT, float64(timed(func() { _, err1 = geom.ParseWKT(wkt) })))
		parseJSON = append(parseJSON, float64(timed(func() { _, err2 = geom.ParseGeoJSON(gj) })))
		if err1 != nil || err2 != nil {
			return fmt.Errorf("format probes: %s does not round-trip: %v %v", reg.Name, err1, err2)
		}
	}
	m["geom.parse_wkt_us"] = median(parseWKT) / 1e3
	m["geom.parse_geojson_us"] = median(parseJSON) / 1e3
	m["geom.format_wkt_us"] = median(formatWKT) / 1e3
	m["geom.format_geojson_us"] = median(formatJSON) / 1e3

	img := w.image()
	var doc []byte
	var err error
	m["config.xml_save_ms"] = medianOf(7, func() { doc, err = img.Bytes() }) / 1e6
	if err != nil {
		return err
	}
	m["config.xml_load_ms"] = medianOf(7, func() { _, err = config.Parse(doc) }) / 1e6
	return err
}

// walProbes time the log writer alone: one record per append under both
// flush disciplines, a batch, and replay.
func walProbes(seed int64, dir string, m map[string]float64) error {
	w := probeWorld(seed)
	regions := worldRegions(w)
	rec := func(i int) wal.Record {
		reg := regions[i%len(regions)]
		return wal.Record{Op: wal.OpSetGeometry, ID: reg.Name, Geometry: reg.Region}
	}
	for _, p := range []struct {
		name   string
		policy wal.SyncPolicy
		n      int
	}{{"always", wal.SyncAlways, 300}, {"never", wal.SyncNever, 3000}} {
		path := filepath.Join(dir, "probe-"+p.name+".log")
		wr, err := wal.Create(path, wal.Options{Policy: p.policy})
		if err != nil {
			return err
		}
		vs := make([]float64, p.n)
		for i := range vs {
			vs[i] = float64(timed(func() { err = wr.Append(rec(i)) }))
			if err != nil {
				return err
			}
		}
		m["wal.append_us."+p.name] = median(vs) / 1e3
		if p.policy == wal.SyncAlways {
			mt := wr.Metrics()
			m["wal.bytes_per_record"] = float64(mt.Bytes) / float64(mt.Records)
			m["wal.fsyncs_per_append"] = float64(mt.Fsyncs) / float64(mt.Records)
			batch := make([]wal.Record, 64)
			for i := range batch {
				batch[i] = rec(i)
			}
			m["wal.append_batch_us"] = medianOf(15, func() { err = wr.AppendBatch(batch) }) / 1e3
			if err != nil {
				return err
			}
		}
		if err := wr.Close(); err != nil {
			return err
		}
		if p.policy == wal.SyncNever {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var recs []wal.Record
			ns := medianOf(7, func() { recs, _, _ = wal.Replay(data) })
			if len(recs) != p.n {
				return fmt.Errorf("wal probe: replayed %d of %d records", len(recs), p.n)
			}
			m["wal.replay_mb_per_s"] = float64(len(data)) / (1 << 20) / (ns / 1e9)
		}
	}
	return nil
}

// persistProbes time the durable store's own operations: opening an empty
// directory with a seed (what the first start does), rotating a snapshot,
// reopening (what recovery does), and the binary snapshot codec.
func persistProbes(seed int64, dir string, logger *slog.Logger, m map[string]float64) error {
	w := probeWorld(seed)
	opt := alwaysSync
	opt.Logger = logger
	data := filepath.Join(dir, "probe-persist")
	ps, err := persist.Open(data, w.image(), opt)
	if err != nil {
		return err
	}
	var info persist.SnapshotInfo
	m["persist.snapshot_ms"] = medianOf(3, func() { info, err = ps.Snapshot() }) / 1e6
	if err != nil {
		return err
	}
	m["persist.snapshot_bytes_per_region"] = float64(info.Bytes) / float64(info.Regions)
	var blob []byte
	err = ps.Tracked().WithMaterialized(true, func(img *config.Image) error {
		m["persist.encode_snapshot_ms"] = medianOf(5, func() { blob = persist.EncodeSnapshot(img) }) / 1e6
		return nil
	})
	if err != nil {
		return err
	}
	m["persist.decode_snapshot_ms"] = medianOf(5, func() { _, err = persist.DecodeSnapshot(blob) }) / 1e6
	if err != nil {
		return err
	}
	if err := ps.Close(); err != nil {
		return err
	}
	var opens []float64
	for i := 0; i < 3; i++ {
		var again *persist.Store
		opens = append(opens, float64(timed(func() { again, err = persist.Open(data, nil, opt) })))
		if err != nil {
			return err
		}
		if err := again.Close(); err != nil {
			return err
		}
	}
	m["persist.open_ms"] = median(opens) / 1e6
	return nil
}

// replicaProbes time the replication layer: reading retained records,
// the stream codec, the bootstrap snapshot, and a follower's bootstrap
// over HTTP until it has caught up.
func replicaProbes(seed int64, logger *slog.Logger, m map[string]float64) error {
	w := probeWorld(seed)
	n, err := newNode(w.image(), "", logger)
	if err != nil {
		return err
	}
	defer n.close()
	regions := worldRegions(w)
	for i := 0; i < 200; i++ {
		reg := regions[i%len(regions)]
		if err := n.prim.SetRegionGeometry(reg.Name, reg.Region); err != nil {
			return err
		}
	}
	var recs []replica.StreamRecord
	m["replica.records_us"] = medianOf(21, func() { recs, _, err = n.prim.Records(1, 4096) }) / 1e3
	if err != nil || len(recs) != 200 {
		return fmt.Errorf("replica probe: %d records, %v", len(recs), err)
	}
	var stream []byte
	m["replica.encode_stream_us"] = medianOf(21, func() { stream = replica.EncodeStream(recs) }) / 1e3
	m["replica.decode_stream_us"] = medianOf(21, func() { _, _, _ = replica.DecodeStream(stream) }) / 1e3
	m["replica.snapshot_ms"] = medianOf(3, func() { _, _, _, err = n.prim.Snapshot() }) / 1e6
	if err != nil {
		return err
	}

	srv := httptest.NewServer(n.handler)
	defer srv.Close()
	var boots []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		rep, err := replica.Open(context.Background(), replica.Options{Primary: srv.URL, Workers: 1, Logger: logger})
		if err != nil {
			return err
		}
		if st := rep.Status(); st.LastAppliedSeq != n.prim.Head() {
			rep.Close()
			return fmt.Errorf("replica probe: bootstrapped to seq %d, head is %d", st.LastAppliedSeq, n.prim.Head())
		}
		boots = append(boots, float64(time.Since(start).Nanoseconds()))
		if err := rep.Close(); err != nil {
			return err
		}
	}
	m["replica.bootstrap_ms"] = median(boots) / 1e6
	return nil
}

// reasonProbes time the reasoning engine on fixed network shapes: the
// algebra's two operations, a box-world network the tractable fragment
// decides, and a hidden-witness network only the solver can decide.
func reasonProbes(seed int64, m map[string]float64) error {
	rels := core.Universe().Relations()
	rng := rand.New(rand.NewSource(seed))
	pick := func() core.Relation { return rels[rng.Intn(len(rels))] }
	var compose, inverse []float64
	for i := 0; i < 300; i++ {
		a, b := pick(), pick()
		compose = append(compose, float64(timed(func() { _ = reason.Composition(a, b) })))
		inverse = append(inverse, float64(timed(func() { _ = reason.Inverse(a) })))
	}
	m["reason.compose_us"] = median(compose) / 1e3
	m["reason.inverse_us"] = median(inverse) / 1e3

	// Boxes relate by singleton rectangular-block relations, so a network
	// read off real boxes is in the fragment and satisfiable.
	const vars = 16
	boxes := make([]geom.Region, vars)
	for i := range boxes {
		x, y := rng.Float64()*100, rng.Float64()*100
		boxes[i] = geom.Rgn(geom.Poly(geom.Rect{MinX: x, MinY: y, MaxX: x + 1 + rng.Float64()*20, MaxY: y + 1 + rng.Float64()*20}.Vertices()...))
	}
	frag := reason.NewNetwork()
	for i := 0; i < vars; i++ {
		for j := i + 1; j < vars && j <= i+3; j++ {
			rel, err := core.ComputeCDR(boxes[i], boxes[j])
			if err != nil {
				return err
			}
			if err := frag.ConstrainRel(fmt.Sprintf("v%02d", i), fmt.Sprintf("v%02d", j), rel); err != nil {
				return err
			}
		}
	}
	ctx := context.Background()
	var res *reason.CheckResult
	var err error
	m["reason.check_fragment_us"] = medianOf(9, func() { res, err = frag.Clone().Check(ctx, reason.CheckOptions{}) }) / 1e3
	if err != nil || !res.Satisfiable || !res.Stats.FastPathDecided {
		return fmt.Errorf("reason probe: fragment network: err %v, result %+v", err, res)
	}

	// a {S,W,N,E,SE} b with b NW a: only SE survives, and it is tried last.
	hidden := reason.NewNetwork()
	if err := hidden.Constrain("a", "b", core.NewRelationSet(core.S, core.W, core.N, core.E, core.SE)); err != nil {
		return err
	}
	if err := hidden.ConstrainRel("b", "a", core.NW); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := hidden.Constrain("a", fmt.Sprintf("c%02d", i), core.NewRelationSet(core.N, core.S)); err != nil {
			return err
		}
	}
	m["reason.check_solver_ms"] = medianOf(5, func() {
		res, err = hidden.Clone().Check(ctx, reason.CheckOptions{NoFastPath: true, NoParallel: true})
	}) / 1e6
	if err != nil || !res.Satisfiable {
		return fmt.Errorf("reason probe: hidden-witness network: err %v, result %+v", err, res)
	}
	return nil
}

// wireProbe starts one in-memory daemon on the probe world and times each
// operation class over the wire from one client, one request at a time: the
// per-class round trip with nothing else going on, to set beside the
// in-process handler figure.
func (r *run) wireProbe(seed int64, m map[string]float64) error {
	w := probeWorld(seed)
	xml := filepath.Join(r.workDir, "probe-world.xml")
	if err := w.writeXML(xml); err != nil {
		return err
	}
	d, err := r.fleet.start("probe-daemon", "-config", xml, "-pct", "on")
	if err != nil {
		return err
	}
	probe := newConn()
	defer probe.CloseIdleConnections()
	if _, err := d.ready(probe, "/v1/healthz"); err != nil {
		return err
	}
	wr := newWire(newGenerator(w), r.tally, 1, d.base)
	defer wr.close()
	rng := rand.New(rand.NewSource(seed + 23))
	for _, kind := range tracedClasses {
		var us []float64
		for i := 0; i < 150; i++ {
			o := op{kind: kind, r1: rng.Uint64(), r2: rng.Uint64(), r3: rng.Uint64()}
			sent := time.Now()
			_, done, failed := wr.do(0, o)
			if !failed && i >= 20 { // the first few warm the connection and the caches
				us = append(us, float64(done.Sub(sent).Nanoseconds())/1e3)
			}
		}
		m["serve.p50_us."+kind.class()] = median(us)
	}
	return d.stop()
}

// tracedClasses are the operation classes the serve metrics are reported
// for, by one kind each.
var tracedClasses = []opKind{opRelation, opRelationPct, opSelect, opQueryHit, opRegionGet, opPut, opNotModified}
