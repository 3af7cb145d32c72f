package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"
)

// Workload replicated: the deployed topology — a durable primary, one
// replica tailing its WAL over HTTP, and a router in front that sends
// writes to the primary and reads to the replica. replica (stream encode,
// long-poll tail, apply) and the router hop do work no other workload
// touches. The rate is low on purpose: three daemons share one core.
const (
	replRegions      = 300
	replGroups       = 38
	replEdges        = 16
	replRate         = 300
	catchUpEdits     = 300
	visibilityProbes = 40
)

var replicated = loadPlan{
	rate: replRate,
	mix: []mixEntry{
		{opRelation, 33}, {opRelationPct, 30}, {opSelect, 10},
		{opPut, 20}, {opAdd, 3}, {opDelete, 2}, {opRename, 2},
	},
	heavy: opKind.isWrite,
}

// trio is one primary + replica + router deployment.
type trio struct {
	primary, replica, router *daemon
	cache                    string
}

func (t *trio) daemons() []*daemon { return []*daemon{t.primary, t.replica, t.router} }

func (t *trio) rss() float64 {
	return t.primary.peakRSS + t.replica.peakRSS + t.router.peakRSS
}

// replicaStatus is the part of GET /v1/replication/status the harness reads.
type replicaStatus struct {
	HeadSeq uint64 `json:"head_seq"`
	Replica *struct {
		LastAppliedSeq uint64 `json:"last_applied_seq"`
		HeadSeq        uint64 `json:"head_seq"`
		LagRecords     uint64 `json:"lag_records"`
		Resumed        bool   `json:"resumed_from_cache"`
	} `json:"replica"`
}

func replStatus(c *http.Client, base string) (replicaStatus, error) {
	var st replicaStatus
	status, body, _, err := fetch(c, "GET", base+"/v1/replication/status", nil, nil)
	if err != nil {
		return st, err
	}
	if status != 200 {
		return st, fmt.Errorf("GET %s/v1/replication/status: %d", base, status)
	}
	return st, unwrap(body, &st)
}

// caughtUp reports whether the replica has applied everything the primary
// has shipped.
func caughtUp(c *http.Client, primary, replica string) (bool, error) {
	p, err := replStatus(c, primary)
	if err != nil {
		return false, err
	}
	r, err := replStatus(c, replica)
	if err != nil {
		return false, err
	}
	return r.Replica != nil && r.Replica.LastAppliedSeq == p.HeadSeq && r.Replica.LagRecords == 0, nil
}

// startTrio brings the deployment up and returns how long that took: from
// the primary's process start until the replica has bootstrapped to lag 0
// and the router answers.
func (r *run) startTrio(probe *http.Client, xml string, i int) (*trio, time.Duration, error) {
	t := &trio{cache: filepath.Join(r.workDir, fmt.Sprintf("replica-cache-%d", i))}
	var err error
	data := filepath.Join(r.workDir, fmt.Sprintf("primary-data-%d", i))
	if t.primary, err = r.fleet.start("primary", durableArgs(xml, data)...); err != nil {
		return nil, 0, err
	}
	if _, err = t.primary.ready(probe, "/v1/healthz"); err != nil {
		return nil, 0, err
	}
	if t.replica, err = r.startReplica(t); err != nil {
		return nil, 0, err
	}
	if err = r.awaitCaughtUp(probe, t); err != nil {
		return nil, 0, err
	}
	if t.router, err = r.fleet.start("router", "-role", "router", "-primary", t.primary.base, "-replicas", t.replica.base); err != nil {
		return nil, 0, err
	}
	if _, err = t.router.ready(probe, "/v1/healthz"); err != nil {
		return nil, 0, err
	}
	return t, time.Since(t.primary.started), nil
}

func (r *run) startReplica(t *trio) (*daemon, error) {
	return r.fleet.start("replica", "-role", "replica", "-follow", t.primary.base, "-replica-data", t.cache)
}

func (r *run) awaitCaughtUp(probe *http.Client, t *trio) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		ok, err := caughtUp(probe, t.primary.base, t.replica.base)
		if err == nil && ok {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("replica never reached lag 0; see %s", t.replica.logPath)
}

func measureReplicated(r *run) (map[string]float64, error) {
	xml := filepath.Join(r.workDir, "world.xml")
	if err := newWorld(r.seed, replRegions, replGroups, replEdges).writeXML(xml); err != nil {
		return nil, err
	}
	probe := newConn()
	defer probe.CloseIdleConnections()

	var log instanceLog
	for i := 0; i < instances; i++ {
		w := newWorld(r.seed, replRegions, replGroups, replEdges)
		t, took, err := r.startTrio(probe, xml, i)
		if err != nil {
			return nil, err
		}
		if w.genBase, err = generationOf(probe, t.primary.base); err != nil {
			return nil, err
		}
		wr := newWire(newGenerator(w), r.tally, senders, t.router.base)
		out := r.drive(wr, replicated, int64(i), t.daemons()...)
		// The router keeps no state worth weighing, and its /debug surface
		// is the primary's: the heap is the primary's plus the replica's.
		heap, err := liveHeap(probe, t.primary, t.replica)
		if err != nil {
			return nil, err
		}
		if i == instances-1 {
			if err := r.afterLoad(probe, wr, w, t); err != nil {
				return nil, err
			}
		}
		wr.close()
		for _, d := range []*daemon{t.router, t.replica, t.primary} {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		log.add(out, took, heap, t.rss())
	}
	return r.finish(&log, replicated, "primary start until replica lag 0 and router up"), nil
}

// afterLoad runs the parts of the workload that are not traffic: how soon a
// write is visible on the replica, how fast a killed replica catches up from
// its cache, and whether primary and replica then agree byte for byte.
func (r *run) afterLoad(probe *http.Client, wr *wire, w *world, t *trio) error {
	if err := r.awaitCaughtUp(probe, t); err != nil {
		return err
	}
	// The router's hop: the same reads through the router and straight at
	// the replica it forwards them to, one client, nothing else going on.
	readP50 := func(base string) float64 {
		var us []float64
		for k := 0; k < 200; k++ {
			path := "/v1/relation?primary=" + coreID(k%replRegions) + "&reference=" + coreID((k+1)%replRegions)
			r.tally.attempted.Add(1)
			start := time.Now()
			status, _, _, err := fetch(probe, "GET", base+path, nil, nil)
			if err != nil || status != 200 {
				r.tally.badStatus.Add(1)
				r.tally.complain("GET %s%s: status %d, %v", base, path, status, err)
				continue
			}
			us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		}
		return median(us)
	}
	routed, direct := readP50(t.router.base), readP50(t.replica.base)
	r.notef("router_hop_us=%.0f (relation read p50 through the router %.0f us, straight at the replica %.0f us)", routed-direct, routed, direct)

	// Visibility: write through the router, read the primary's generation,
	// then ask the replica for at least that generation until it answers.
	rng := rand.New(rand.NewSource(r.seed + 13))
	var visible []float64
	for k := 0; k < visibilityProbes; k++ {
		if _, _, failed := wr.do(0, op{kind: opPut, r1: rng.Uint64(), r2: rng.Uint64(), r3: rng.Uint64()}); failed {
			continue
		}
		acked := time.Now()
		gen, err := generationOf(probe, t.primary.base)
		if err != nil {
			return err
		}
		minGen := map[string]string{"Cardirect-Min-Generation": strconv.FormatUint(gen, 10)}
		for {
			status, _, _, err := fetch(probe, "GET", t.replica.base+"/v1/stats", nil, minGen)
			if err != nil {
				return err
			}
			if status == 200 {
				break
			}
			if time.Since(acked) > 10*time.Second {
				r.tally.fail("write at generation %d not visible on the replica after 10s", gen)
				break
			}
		}
		visible = append(visible, time.Since(acked).Seconds()*1e3)
	}
	vis := summarise(visible)
	r.notef("visible_p50_ms=%.3f (write ack until the replica serves the write's generation; n=%d, max %.3f)", vis.P50, vis.N, percentile(sortedCopy(visible), 100))

	// Catch-up: the replica is killed, the primary takes a burst of edits,
	// and the replica restarts on its cache and tails back to the head.
	t.replica.kill()
	killed := t.replica
	rng = rand.New(rand.NewSource(r.seed + 17))
	for k := 0; k < catchUpEdits; k++ {
		wr.do(0, op{kind: opPut, r1: rng.Uint64(), r2: rng.Uint64(), r3: rng.Uint64()})
	}
	var err error
	if t.replica, err = r.startReplica(t); err != nil {
		return err
	}
	t.replica.peakRSS = killed.peakRSS // one role, two processes: keep the larger peak
	if err := r.awaitCaughtUp(probe, t); err != nil {
		return err
	}
	st, err := replStatus(probe, t.replica.base)
	if err != nil {
		return err
	}
	r.notef("catchup_s=%.3f (replica restart until lag 0 after %d missed edits; resumed_from_cache=%v)",
		time.Since(t.replica.started).Seconds(), catchUpEdits, st.Replica.Resumed)

	// Agreement: at equal generation the two nodes must serve the same
	// bytes under the same ETag.
	r.tally.attempted.Add(1)
	ps, pb, ph, err1 := fetch(probe, "GET", t.primary.base+"/v1/relations", nil, nil)
	rs, rb, rh, err2 := fetch(probe, "GET", t.replica.base+"/v1/relations", nil, nil)
	switch {
	case err1 != nil || err2 != nil || ps != 200 || rs != 200:
		r.tally.fail("GET /v1/relations: primary %d %v, replica %d %v", ps, err1, rs, err2)
	case !bytes.Equal(pb, rb) || ph.Get("ETag") != rh.Get("ETag"):
		r.tally.fail("primary and replica disagree: %d vs %d bytes, ETag %s vs %s", len(pb), len(rb), ph.Get("ETag"), rh.Get("ETag"))
	default:
		r.notef("primary and replica serve byte-equal /v1/relations (%d bytes) under ETag %s", len(pb), ph.Get("ETag"))
	}
	return r.verifyWorld(t.replica.base, w, 200)
}
