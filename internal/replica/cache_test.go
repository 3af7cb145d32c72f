package replica_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// onlyFile returns the name and bytes of the one file in dir that matches
// pattern.
func onlyFile(t *testing.T, dir, pattern string) (string, []byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(names) != 1 {
		t.Fatalf("%s in %s: %v, %v; want exactly one", pattern, dir, names, err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Base(names[0]), data
}

// writeFiles writes name → data into dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// recovered opens dir as persist does and reports where its world stands.
func recovered(t *testing.T, dir string) (pos persist.Position, regions int, gen uint64) {
	t.Helper()
	ps, err := persist.Open(dir, nil, persist.Options{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	return ps.Position(), ps.Tracked().Store().Len(), ps.Tracked().Store().Generation()
}

// sameRelations fails unless the replica at base serves /v1/relations
// byte-equal with the primary, under the same ETag.
func sameRelations(t *testing.T, what string, p *primaryFixture, base string) {
	t.Helper()
	_, wantHeader, wantBody := get(t, p.ts.URL, "/v1/relations", nil)
	_, header, body := get(t, base, "/v1/relations", nil)
	if !bytes.Equal(body, wantBody) || header.Get("ETag") != wantHeader.Get("ETag") {
		t.Fatalf("%s: replica serves %d bytes under %s, primary %d under %s",
			what, len(body), header.Get("ETag"), len(wantBody), wantHeader.Get("ETag"))
	}
}

// TestReplicaInstallsSnapshotBytes: a replica's data directory is a
// persist data directory, and its bootstrap installs the bytes the primary
// served as they came — no XML, nothing encoded — as generation 1, beside
// a log that holds nothing yet.
func TestReplicaInstallsSnapshotBytes(t *testing.T) {
	p := newPrimaryFixture(t, true)
	_, _, served := get(t, p.ts.URL, "/v1/replication/snapshot", nil)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	f.shutdown()
	if name, installed := onlyFile(t, cache, "snapshot-*.bin"); name != "snapshot-00000001.bin" || !bytes.Equal(installed, served) {
		t.Fatalf("installed %s, %d bytes; want snapshot-00000001.bin, the %d bytes served", name, len(installed), len(served))
	}
	if name, log := onlyFile(t, cache, "wal-*.log"); name != "wal-00000001.log" || string(log) != wal.Magic {
		t.Fatalf("log %s holds %q, want an empty wal-00000001.log", name, log)
	}
	if xml, _ := filepath.Glob(filepath.Join(cache, "*.xml")); len(xml) != 0 {
		t.Fatalf("a replica's bootstrap wrote XML: %v", xml)
	}
	if pos, _, _ := recovered(t, cache); pos != (persist.Position{Epoch: p.prim.Epoch(), Pct: true}) {
		t.Fatalf("the installed snapshot records %+v", pos)
	}
}

// TestReplicaCacheTornTail cuts a replica's log at every byte and flips a
// bit at every offset of its last edit, a bulk of three adds: whatever a
// crash or a power loss left, a replica restarted over it resumes at the
// last whole edit at the primary's generation for it — never half the bulk
// — and converges with a primary that has moved on.
func TestReplicaCacheTornTail(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	base := f.rep.Status().BootSeq
	regions := map[uint64]int{base: p.tr.Store().Len()}
	gens := map[uint64]uint64{base: p.tr.Store().Generation()}
	for _, edit := range [][]wal.Record{
		{{Op: wal.OpAdd, ID: "torn", Geometry: workload.BoxRegion(500, 500, 510, 510)}},
		{{Op: wal.OpRename, ID: "torn", NewID: "torn2"}},
		{
			{Op: wal.OpAdd, ID: "bulk0", Geometry: workload.BoxRegion(600, 500, 610, 510)},
			{Op: wal.OpAdd, ID: "bulk1", Geometry: workload.BoxRegion(620, 500, 630, 510)},
			{Op: wal.OpAdd, ID: "bulk2", Geometry: workload.BoxRegion(640, 500, 650, 510)},
		},
	} {
		if err := p.prim.Apply(edit); err != nil {
			t.Fatal(err)
		}
		regions[p.prim.Head()], gens[p.prim.Head()] = p.tr.Store().Len(), p.tr.Store().Generation()
	}
	waitCaughtUp(t, p, f.rep)
	f.shutdown()
	snapName, snapshot := onlyFile(t, cache, "snapshot-*.bin")
	walName, golden := onlyFile(t, cache, "wal-*.log")
	// ends[i] is the byte length of the log through its i-th edit.
	ends := []int{len(wal.Magic)}
	if _, corr := wal.ReadFrames(golden, wal.Magic, func(payload []byte) error {
		ends = append(ends, ends[len(ends)-1]+wal.FrameSize+len(payload))
		return nil
	}); corr != nil || len(ends) != 4 {
		t.Fatalf("the log holds %d frames, corruption %v; want 3", len(ends)-1, corr)
	}
	lastStart := ends[2]

	// The primary moves on while the replica is down.
	for i := 0; i < 2; i++ {
		x := 700 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("down%02d", i), "", "", workload.BoxRegion(x, 700, x+10, 710)); err != nil {
			t.Fatal(err)
		}
	}

	// Every damaged log is opened by a replica, which must resume at the
	// last whole edit at the primary's generation for it, and then tails
	// on, to converge under the primary's ETag and leave a log that decodes
	// cleanly up to the head.
	reopen := func(what string, log []byte, want uint64) {
		t.Helper()
		dir := t.TempDir()
		writeFiles(t, dir, map[string][]byte{snapName: snapshot, walName: log})
		rep, err := replica.Open(context.Background(), replica.Options{Primary: p.ts.URL, CacheDir: dir, Workers: 1, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		st, n := rep.Status(), rep.Tracked().Store().Len()
		rep.Close()
		if !st.ResumedFromCache || st.BootSeq != want || st.Epoch != p.prim.Epoch() || st.Generation != gens[want] || n != regions[want] {
			t.Fatalf("%s: resumed_from_cache=%v at seq %d, generation %d, %d regions; want a resume at seq %d, generation %d, %d regions",
				what, st.ResumedFromCache, st.BootSeq, st.Generation, n, want, gens[want], regions[want])
		}
		f := newReplicaFixture(t, p.ts.URL, dir)
		defer f.shutdown()
		waitCaughtUp(t, p, f.rep)
		sameRelations(t, what, p, f.ts.URL)
		f.shutdown()
		_, after := onlyFile(t, dir, "wal-*.log")
		recs, _, corr := wal.Replay(after)
		if corr != nil || len(recs) == 0 || recs[len(recs)-1].Seq != p.prim.Head() {
			t.Fatalf("%s: the log left behind holds %d records, corruption %v; want a clean log up to %d", what, len(recs), corr, p.prim.Head())
		}
	}

	for cut := 0; cut <= len(golden); cut++ {
		intact := 0
		for intact+1 < len(ends) && ends[intact+1] <= cut {
			intact++
		}
		reopen(fmt.Sprintf("cut at %d of %d", cut, len(golden)), golden[:cut], base+uint64(intact))
	}
	for off := lastStart; off < len(golden); off++ {
		flipped := bytes.Clone(golden)
		flipped[off] ^= 0x10
		reopen(fmt.Sprintf("bit flip at %d", off), flipped, base+2)
	}
	// What a power loss leaves on ext4: the file grown, the new blocks zero.
	reopen("zero-filled extension", append(bytes.Clone(golden), make([]byte, 4096)...), base+3)
}

// TestReplicaCacheKeepsEditBoundaries replicates a bulk of three adds and
// then three single adds — a run of six adds that a primary's log could not
// tell apart from one bulk of six. The replica's log keeps each edit's
// boundary, so its directory recovers to the primary's exact sequence and
// generation, and a restarted replica serves the primary's ETag without
// fetching anything.
func TestReplicaCacheKeepsEditBoundaries(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	var bulk []wal.Record
	for i := 0; i < 3; i++ {
		x := 500 + float64(i)*20
		bulk = append(bulk, wal.Record{Op: wal.OpAdd, ID: fmt.Sprintf("bulk%d", i), Geometry: workload.BoxRegion(x, 500, x+10, 510)})
	}
	if err := p.prim.Apply(bulk); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		x := 500 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("single%d", i), "", "", workload.BoxRegion(x, 600, x+10, 610)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f.rep)
	f.shutdown()
	head, gen := p.prim.Head(), p.tr.Store().Generation()
	if pos, n, got := recovered(t, cache); pos.Seq != head || pos.Gen != gen || got != gen || n != p.tr.Store().Len() {
		t.Fatalf("the directory recovers to %+v, generation %d, %d regions; the primary stands at seq %d, generation %d, %d regions",
			pos, got, n, head, gen, p.tr.Store().Len())
	}
	g := newReplicaFixture(t, p.ts.URL, cache)
	if st := g.rep.Status(); !st.ResumedFromCache || st.BootSeq != head || st.Generation != gen {
		t.Fatalf("restart: %+v; want a resume at seq %d, generation %d", st, head, gen)
	}
	sameRelations(t, "restart", p, g.ts.URL)
}

// TestReplicaInstallCrash leaves a bootstrap's install half done in the
// ways a crash can. The snapshot and its position are one file, installed
// by one rename, so a crash leaves the old generation or the new one and
// never a snapshot paired with another bootstrap's position (nor one with
// none, which is a primary's: TestReplicaRefusesPrimaryDir): a temp file
// that never got its rename leaves the old generation to resume from, and
// a new generation whose log was never opened resumes at its own position.
// Both converge with the primary.
func TestReplicaInstallCrash(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	if err := p.prim.AddRegion("before", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f.rep)
	f.shutdown()
	snapName, snapshot := onlyFile(t, cache, "snapshot-*.bin")
	walName, log := onlyFile(t, cache, "wal-*.log")
	stopped := p.prim.Head()
	if err := p.prim.AddRegion("after", "", "", workload.BoxRegion(600, 500, 610, 510)); err != nil {
		t.Fatal(err)
	}
	fresh, freshSeq, _, err := p.prim.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		what  string
		files map[string][]byte
		boot  uint64
	}{
		{"install torn before its rename", map[string][]byte{snapName: snapshot, walName: log, "snapshot-00000002.bin.tmp": fresh[:len(fresh)/2]}, stopped},
		{"install never opened", map[string][]byte{snapName: snapshot, walName: log, "snapshot-00000002.bin": fresh}, freshSeq},
	} {
		dir := t.TempDir()
		writeFiles(t, dir, c.files)
		g := newReplicaFixture(t, p.ts.URL, dir)
		if st := g.rep.Status(); !st.ResumedFromCache || st.BootSeq != c.boot || st.Bootstraps != 1 {
			t.Fatalf("%s: resumed_from_cache=%v boot_seq=%d bootstraps=%d, want true, %d, 1",
				c.what, st.ResumedFromCache, st.BootSeq, st.Bootstraps, c.boot)
		}
		waitCaughtUp(t, p, g.rep)
		sameRelations(t, c.what, p, g.ts.URL)
		g.shutdown()
		onlyFile(t, dir, "snapshot-*.bin")
		if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
			t.Fatalf("%s: the stale sweep left %v", c.what, tmp)
		}
	}
}

// readDir returns every file in dir by name, but persist's LOCK, which
// any opener creates.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if e.Name() == "LOCK" {
			continue
		}
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestReplicaRefusesPrimaryDir points a replica at directories whose world
// has no position — a primary's own, a bare binary snapshot, and a
// replica's directory that took an edit of its own as a primary's — and at
// a replica's directory another store holds open. The replica refuses to
// start, naming the directory, and leaves every file as it was: a
// bootstrap would have swept those acknowledged edits away, or written
// under another store's feet.
func TestReplicaRefusesPrimaryDir(t *testing.T) {
	p := newPrimaryFixture(t, false)
	quiet := persist.Options{Logger: quietLogger()}
	primaryDir := t.TempDir()
	ps, err := persist.Open(primaryDir, config.Greece(), quiet)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.AddRegion("acked", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	var bare []byte
	if err := p.tr.View(func(img *config.Image) error { bare = persist.EncodeSnapshot(img); return nil }); err != nil {
		t.Fatal(err)
	}
	bareDir := t.TempDir()
	writeFiles(t, bareDir, map[string][]byte{"snapshot-00000001.bin": bare, "wal-00000001.log": []byte(wal.Magic)})
	editedDir := t.TempDir()
	newReplicaFixture(t, p.ts.URL, editedDir).shutdown()
	if ps, err = persist.Open(editedDir, nil, quiet); err != nil {
		t.Fatal(err)
	}
	if err := ps.AddRegion("acked", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	ps.Close()
	heldDir := t.TempDir()
	newReplicaFixture(t, p.ts.URL, heldDir).shutdown()
	held, err := persist.Open(heldDir, nil, quiet)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	for what, dir := range map[string]string{"a primary's directory": primaryDir, "a bare snapshot": bareDir,
		"an edited replica's directory": editedDir, "a held replica's directory": heldDir} {
		before := readDir(t, dir)
		_, err := replica.Open(context.Background(), replica.Options{Primary: p.ts.URL, CacheDir: dir, Workers: 1, Logger: quietLogger()})
		if err == nil || !strings.Contains(err.Error(), dir) {
			t.Fatalf("%s: opening a replica on it: %v, want a refusal naming it", what, err)
		}
		if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: the refused replica changed it", what)
		}
	}
}

// TestReplicaDataDirFailure gives a replica a data directory it cannot
// create, and one where the bootstrap's snapshot cannot be written. Either
// way the replica bootstraps in memory, serves and converges with the
// primary, and writes no snapshot: the directory is a convenience, not a
// record. (A log that fails later is persist's TestFollowOutlivesItsLog.)
func TestReplicaDataDirFailure(t *testing.T) {
	p := newPrimaryFixture(t, false)
	file := filepath.Join(t.TempDir(), "file")
	writeFiles(t, filepath.Dir(file), map[string][]byte{"file": nil})
	blocked := t.TempDir()
	if err := os.Mkdir(filepath.Join(blocked, "snapshot-00000001.bin.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for what, dir := range map[string]string{"under a file": filepath.Join(file, "data"), "snapshot not writable": blocked} {
		f := newReplicaFixture(t, p.ts.URL, dir)
		if st := f.rep.Status(); st.ResumedFromCache || st.Bootstraps != 1 {
			t.Fatalf("%s: resumed_from_cache=%v bootstraps=%d, want one bootstrap", what, st.ResumedFromCache, st.Bootstraps)
		}
		if err := p.prim.AddRegion("mem-"+strings.ReplaceAll(what, " ", "-"), "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, p, f.rep)
		sameRelations(t, what, p, f.ts.URL)
		f.shutdown()
		if bins, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.bin")); len(bins) != 0 {
			t.Fatalf("%s: the replica wrote %v", what, bins)
		}
	}
}

// TestReplicaOldCacheBootstraps: the cache files of the layout before the
// replica kept a persist data directory — snapshot.bin, meta.json and a
// CDRS0003 tail.log — hold no generation. The replica bootstraps from the
// primary beside them and leaves them as they are: the stale sweep touches
// no name persist does not own.
func TestReplicaOldCacheBootstraps(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	old := map[string][]byte{
		"snapshot.bin": []byte("CDSN an earlier cache's snapshot"),
		"meta.json":    []byte(`{"epoch":"e","seq":3,"generation":3,"pct":false}`),
		"tail.log":     []byte("CDRS0003"),
	}
	writeFiles(t, cache, old)
	f := newReplicaFixture(t, p.ts.URL, cache)
	if st := f.rep.Status(); st.ResumedFromCache || st.Bootstraps != 1 {
		t.Fatalf("an old cache: resumed_from_cache=%v bootstraps=%d, want a bootstrap", st.ResumedFromCache, st.Bootstraps)
	}
	f.shutdown()
	for name, data := range old {
		if got, err := os.ReadFile(filepath.Join(cache, name)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s: %q, %v; want it left as it was", name, got, err)
		}
	}
	onlyFile(t, cache, "snapshot-00000001.bin")
}

// TestReplicaCacheGapLeavesNoCounters hands a replica a log whose second
// edit does not follow the first. The directory does not replay whole, so
// the replica bootstraps from the primary over it; its status then counts
// that one bootstrap and no replayed record, as if the cache had not been
// there.
func TestReplicaCacheGapLeavesNoCounters(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	for i := 0; i < 3; i++ {
		x := 500 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("gap%d", i), "", "", workload.BoxRegion(x, 500, x+10, 510)); err != nil {
			t.Fatal(err)
		}
	}
	waitCaughtUp(t, p, f.rep)
	f.shutdown()
	name, data := onlyFile(t, cache, "wal-*.log")
	var frames [][]byte
	off := len(wal.Magic)
	wal.ReadFrames(data, wal.Magic, func(payload []byte) error {
		frames = append(frames, data[off:off+wal.FrameSize+len(payload)])
		off += wal.FrameSize + len(payload)
		return nil
	})
	if len(frames) != 3 {
		t.Fatalf("the log holds %d frames, want 3", len(frames))
	}
	gap := append(append([]byte(wal.Magic), frames[0]...), frames[2]...)
	writeFiles(t, cache, map[string][]byte{name: gap})
	g := newReplicaFixture(t, p.ts.URL, cache)
	defer g.shutdown()
	if st := g.rep.Status(); st.Bootstraps != 1 || st.RecordsApplied != 0 || st.ResumedFromCache {
		t.Fatalf("after a refused cache: bootstraps=%d records_applied=%d resumed_from_cache=%v, want 1, 0, false",
			st.Bootstraps, st.RecordsApplied, st.ResumedFromCache)
	}
	waitCaughtUp(t, p, g.rep)
}

// TestReplicaReadsDoNotWaitForIngest parks the tail loop inside its apply —
// the test holds the tracked document's read lock, which the edit waits
// for while it holds the data directory's store — and reads the replica
// meanwhile: the accessors every served read goes through, the status, and
// a read over HTTP all answer.
func TestReplicaReadsDoNotWaitForIngest(t *testing.T) {
	p := newPrimaryFixture(t, false)
	f := newReplicaFixture(t, p.ts.URL, t.TempDir())
	parked, release := make(chan struct{}), make(chan struct{})
	released := false
	unpark := func() {
		if !released {
			released = true
			close(release)
		}
	}
	defer unpark()
	go f.rep.Tracked().View(func(*config.Image) error {
		close(parked)
		<-release
		return nil
	})
	<-parked
	if err := p.prim.AddRegion("parked", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the shipped record to park in its apply", func() bool {
		buf := make([]byte, 1<<20)
		stacks := buf[:runtime.Stack(buf, true)]
		return bytes.Contains(stacks, []byte("(*Store).Follow(")) && bytes.Contains(stacks, []byte("(*Tracked).AddRegion("))
	})
	answers := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			unpark()
			t.Fatalf("%s waited for the ingest parked in its apply", what)
		}
	}
	answers("Tracked", func() {
		if f.rep.Tracked().Store().Len() != p.tr.Store().Len()-1 {
			t.Error("the parked record is visible before its apply returned")
		}
	})
	answers("Lag", func() { f.rep.Lag() })
	answers("Status", func() { f.rep.Status() })
	answers("GET /v1/relation", func() {
		resp, err := http.Get(f.ts.URL + "/v1/relation?primary=attica&reference=peloponnesos")
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || resp.Header.Get(replica.HeaderStaleness) == "" {
			t.Errorf("read during a parked ingest: %d, staleness %q", resp.StatusCode, resp.Header.Get(replica.HeaderStaleness))
		}
	})
	unpark()
	waitCaughtUp(t, p, f.rep)
}
