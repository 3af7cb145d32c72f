package main

import "path/filepath"

// Workload read-mix: one in-memory cardirectd serving a Cluster world, read
// traffic only. serve, the store's read side, index and query do the work;
// the kernel runs only inside selections, and wal, persist and replica are
// idle — a change to any of those must leave this workload's numbers alone.
const (
	readMixRegions = 800
	readMixGroups  = 100
	readMixEdges   = 16
	readMixRate    = 600
)

var readMix = loadPlan{
	rate: readMixRate,
	mix: []mixEntry{
		{opRelation, 32}, {opRelationPct, 33}, {opSelect, 12},
		{opQueryHit, 12}, {opQueryMiss, 2}, {opRegionGet, 5}, {opNotModified, 4},
	},
	heavy:     func(k opKind) bool { return k == opQueryHit || k == opQueryMiss },
	keepAwake: true,
}

func measureReadMix(r *run) (map[string]float64, error) {
	w := newWorld(r.seed, readMixRegions, readMixGroups, readMixEdges)
	xml := filepath.Join(r.workDir, "world.xml")
	if err := w.writeXML(xml); err != nil {
		return nil, err
	}
	probe := newConn()
	defer probe.CloseIdleConnections()

	var log instanceLog
	for i := 0; i < instances; i++ {
		d, err := r.fleet.start("daemon", "-config", xml, "-pct", "on")
		if err != nil {
			return nil, err
		}
		took, err := d.ready(probe, "/v1/healthz")
		if err != nil {
			return nil, err
		}
		wr := newWire(newGenerator(w), r.tally, senders, d.base)
		out := r.drive(wr, readMix, int64(i), d)
		wr.close()
		heap, err := liveHeap(probe, d)
		if err != nil {
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		log.add(out, took, heap, d.peakRSS)
	}
	return r.finish(&log, readMix, "process start until /v1/healthz answers"), nil
}
