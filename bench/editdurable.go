package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"cardirect/internal/core"
)

// Workload edit-durable: the same store used differently — edits beside
// reads — on a durable daemon (-data, -fsync always: an acknowledged edit
// has reached the disk). The delta recompute in core (2(n−1) pairs per
// geometry edit), config, wal and persist do the work here; a read gain
// bought with dearer edits, or the reverse, shows as light against heavy.
const (
	editRegions = 300
	editGroups  = 38
	editEdges   = 16
	editRate    = 400
)

var editDurable = loadPlan{
	rate: editRate,
	mix: []mixEntry{
		{opRelation, 35}, {opRelationPct, 34}, {opSelect, 10},
		{opPut, 15}, {opAdd, 2}, {opDelete, 2}, {opRename, 2},
	},
	heavy: opKind.isWrite,
}

// readsOnly is the traffic that keeps running while a snapshot is taken.
var readsOnly = []mixEntry{{opRelation, 45}, {opRelationPct, 45}, {opSelect, 10}}

func durableArgs(xml, dir string) []string {
	return []string{"-config", xml, "-data", dir, "-fsync", "always", "-pct", "on"}
}

func measureEditDurable(r *run) (map[string]float64, error) {
	xml := filepath.Join(r.workDir, "world.xml")
	if err := newWorld(r.seed, editRegions, editGroups, editEdges).writeXML(xml); err != nil {
		return nil, err
	}
	probe := newConn()
	defer probe.CloseIdleConnections()

	var log instanceLog
	for i := 0; i < instances; i++ {
		// Every instance starts from the generated world in an empty data
		// directory: set-up includes seeding it (the first snapshot
		// materialises all n² relations).
		w := newWorld(r.seed, editRegions, editGroups, editEdges)
		dir := filepath.Join(r.workDir, fmt.Sprintf("data-%d", i))
		d, err := r.fleet.start("daemon", durableArgs(xml, dir)...)
		if err != nil {
			return nil, err
		}
		took, err := d.ready(probe, "/v1/healthz")
		if err != nil {
			return nil, err
		}
		wr := newWire(newGenerator(w), r.tally, senders, d.base)
		out := r.drive(wr, editDurable, int64(i), d)
		heap, err := liveHeap(probe, d)
		if err != nil {
			return nil, err
		}
		if i < instances-1 {
			wr.close()
			if err := d.stop(); err != nil {
				return nil, err
			}
			log.add(out, took, heap, d.peakRSS)
			continue
		}
		// The last instance goes on to be snapshotted, killed and recovered.
		if err := r.snapshotUnderReads(wr, d); err != nil {
			return nil, err
		}
		wr.close()
		d.kill()
		log.add(out, took, heap, d.peakRSS)
		d2, err := r.fleet.start("recovered", "-data", dir, "-pct", "on")
		if err != nil {
			return nil, err
		}
		recovery, err := d2.ready(probe, "/v1/healthz")
		if err != nil {
			return nil, err
		}
		r.notef("recovery_s=%.3f (SIGKILL, restart on -data alone, until /v1/healthz answers 200)", recovery.Seconds())
		if err := r.verifyWorld(d2.base, w, 200); err != nil {
			return nil, err
		}
		if err := d2.stop(); err != nil {
			return nil, err
		}
	}
	return r.finish(&log, editDurable, "cold start into an empty data directory until /v1/healthz answers"), nil
}

// snapshotUnderReads rotates the durable generation while reads keep
// arriving at a quarter of the main rate, and notes how long the snapshot
// took and the slowest read beside it.
func (r *run) snapshotUnderReads(wr *wire, d *daemon) error {
	rng := rand.New(rand.NewSource(r.seed + 7))
	reads := schedule(rng, editRate/4, 1500*time.Millisecond, readsOnly)
	done := make(chan openResult, 1) // the one result of the one goroutine
	go func() { done <- runOpen(realClock{}, reads, senders, wr.do) }()
	time.Sleep(100 * time.Millisecond)
	admin := newConn()
	defer admin.CloseIdleConnections()
	r.tally.attempted.Add(1)
	start := time.Now()
	status, body, _, err := fetch(admin, "POST", d.base+"/v1/admin/snapshot", nil, nil)
	took := time.Since(start)
	res := <-done
	if err != nil || status != 200 {
		r.tally.badStatus.Add(1)
		r.tally.complain("POST /v1/admin/snapshot: status %d err %v: %.200s", status, err, body)
		return nil
	}
	var info struct {
		Bytes   int64 `json:"bytes"`
		Regions int   `json:"regions"`
	}
	if err := unwrap(body, &info); err != nil {
		return fmt.Errorf("snapshot answer: %w", err)
	}
	stall := 0.0
	for _, s := range res.samples {
		stall = math.Max(stall, s.latency.Seconds()*1e3)
	}
	r.notef("snapshot under reads: %.1f ms for %d regions, %d bytes; slowest of %d concurrent reads %.1f ms",
		took.Seconds()*1e3, info.Regions, info.Bytes, len(res.samples), stall)
	return nil
}

// verifyWorld compares a daemon's whole state with the oracle: the set of
// region ids and every region's bounding box (so every acknowledged add,
// delete, rename and geometry edit is accounted for), then the relation and
// percent matrix of sampled pairs against from-scratch Compute-CDR.
func (r *run) verifyWorld(base string, w *world, pairs int) error {
	c := newConn()
	defer c.CloseIdleConnections()
	r.tally.attempted.Add(1)
	status, body, _, err := fetch(c, "GET", base+"/v1/regions", nil, nil)
	if err != nil || status != 200 {
		r.tally.fail("GET /v1/regions after recovery: status %d err %v", status, err)
		return nil
	}
	var list struct {
		Regions []struct {
			ID  string `json:"id"`
			Box struct {
				MinX float64 `json:"minx"`
				MinY float64 `json:"miny"`
				MaxX float64 `json:"maxx"`
				MaxY float64 `json:"maxy"`
			} `json:"box"`
		} `json:"regions"`
	}
	if err := unwrap(body, &list); err != nil {
		return fmt.Errorf("regions list: %w", err)
	}
	snap, _ := w.snapshot()
	served := map[string]bool{}
	for _, reg := range list.Regions {
		served[reg.ID] = true
		st, ok := snap[reg.ID]
		if !ok {
			r.tally.fail("region %s is served but the oracle has no such region (a delete or rename was lost)", reg.ID)
			continue
		}
		b := st.geom.BoundingBox()
		if b.MinX != reg.Box.MinX || b.MinY != reg.Box.MinY || b.MaxX != reg.Box.MaxX || b.MaxY != reg.Box.MaxY {
			r.tally.fail("region %s: served box differs from the oracle's (a geometry edit was lost)", reg.ID)
		}
	}
	ids := make([]string, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
		if !served[id] {
			r.tally.fail("region %s is missing after recovery (an acknowledged add or rename was lost)", id)
		}
	}
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(r.seed + 11))
	checked := 0
	for k := 0; k < pairs; k++ {
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if a == b || !served[a] || !served[b] {
			continue
		}
		r.tally.attempted.Add(1)
		status, body, _, err := fetch(c, "GET", base+"/v1/relation?primary="+a+"&reference="+b+"&pct=1", nil, nil)
		if err != nil || status != 200 {
			r.tally.fail("GET relation(%s, %s) after recovery: status %d err %v", a, b, status, err)
			continue
		}
		var got struct {
			Relation string             `json:"relation"`
			Pct      map[string]float64 `json:"pct"`
		}
		if err := unwrap(body, &got); err != nil {
			return fmt.Errorf("relation answer: %w", err)
		}
		want, err := oracleRelation(snap[a].geom, snap[b].geom)
		if err != nil {
			return err
		}
		m, _, err := core.ComputeCDRPct(snap[a].geom, snap[b].geom)
		if err != nil {
			return err
		}
		bad := got.Relation != want
		for _, t := range core.Tiles() {
			bad = bad || math.Abs(got.Pct[t.String()]-m.Get(t)) > pctTolerance
		}
		if bad {
			r.tally.mismatches.Add(1)
			r.tally.complain("after recovery relation(%s, %s) = %s %v, oracle says %s", a, b, got.Relation, got.Pct, want)
			continue
		}
		r.tally.checked.Add(1)
		checked++
	}
	r.notef("verified after restart: %d regions present with the oracle's boxes, %d sampled pairs equal the oracle", len(list.Regions), checked)
	return nil
}
