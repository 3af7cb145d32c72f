package replica_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"cardirect/internal/replica"
	"cardirect/internal/workload"
)

// TestReplicaCacheTornTail cuts a replica's cached record log at every byte
// and flips a bit at every offset of its last record: whatever a crash or a
// power loss left, a restart resumes from the cache at the last intact
// record, converges with a primary that has moved on, serves /v1/relations
// byte-equal with it under the same ETag, and leaves a log that decodes
// cleanly up to the head. A log in the CDRS0001 format holds nothing the
// replica reads: it resumes at the cached snapshot and fetches the rest.
func TestReplicaCacheTornTail(t *testing.T) {
	p := newPrimaryFixture(t, false)
	cache := t.TempDir()
	f := newReplicaFixture(t, p.ts.URL, cache)
	base := f.rep.Status().BootSeq
	// Three small records: an add, a rename, a remove.
	if err := p.prim.AddRegion("torn", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	if err := p.prim.RenameRegion("torn", "torn2"); err != nil {
		t.Fatal(err)
	}
	if err := p.prim.RemoveRegion("torn2"); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f.rep)
	f.shutdown()
	if st := f.rep.Status(); st.CacheSyncedSeq != st.LastAppliedSeq {
		t.Fatalf("Close left the cache unsynced: %+v", st)
	}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(cache, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	snapshot, meta, golden := read("snapshot.bin"), read("meta.json"), read("tail.log")
	recs, _, corr := replica.DecodeStream(golden)
	if corr != nil || len(recs) != 3 {
		t.Fatalf("cached tail: %d records, corruption %v", len(recs), corr)
	}
	// ends[i] is the byte length of the log through record i.
	ends := []int{len(replica.StreamMagic)}
	for _, rec := range recs {
		ends = append(ends, ends[len(ends)-1]+24+len(rec.Payload))
	}
	lastStart := ends[len(ends)-2]

	// The primary moves on while the replica is down.
	for i := 0; i < 2; i++ {
		x := 700 + float64(i)*20
		if err := p.prim.AddRegion(fmt.Sprintf("down%02d", i), "", "", workload.BoxRegion(x, 700, x+10, 710)); err != nil {
			t.Fatal(err)
		}
	}
	_, wantHeader, wantBody := get(t, p.ts.URL, "/v1/relations", nil)

	reopen := func(what string, tail []byte, wantBoot uint64) {
		t.Helper()
		dir := t.TempDir()
		for name, data := range map[string][]byte{"snapshot.bin": snapshot, "meta.json": meta, "tail.log": tail} {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f := newReplicaFixture(t, p.ts.URL, dir)
		defer f.shutdown()
		st := f.rep.Status()
		if !st.ResumedFromCache || st.BootSeq != wantBoot {
			t.Fatalf("%s: resumed_from_cache=%v boot_seq=%d, want a resume at %d", what, st.ResumedFromCache, st.BootSeq, wantBoot)
		}
		waitCaughtUp(t, p, f.rep)
		_, header, body := get(t, f.ts.URL, "/v1/relations", nil)
		if !bytes.Equal(body, wantBody) || header.Get("ETag") != wantHeader.Get("ETag") {
			t.Fatalf("%s: replica serves %d bytes under %s, primary %d under %s",
				what, len(body), header.Get("ETag"), len(wantBody), wantHeader.Get("ETag"))
		}
		f.shutdown()
		after, err := os.ReadFile(filepath.Join(dir, "tail.log"))
		if err != nil {
			t.Fatal(err)
		}
		recs, _, corr := replica.DecodeStream(after)
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
		flipped := append([]byte(nil), golden...)
		flipped[off] ^= 0x10
		reopen(fmt.Sprintf("bit flip at %d", off), flipped, base+2)
	}
	// What a power loss leaves on ext4: the file grown, the new blocks zero.
	reopen("zero-filled extension", append(append([]byte(nil), golden...), make([]byte, 4096)...), base+3)
	// The same three records as the CDRS0001 format wrote them: seq, gen,
	// length and a CRC of the edits alone.
	legacy := []byte("CDRS0001")
	for _, rec := range recs {
		legacy = binary.LittleEndian.AppendUint64(legacy, rec.Seq)
		legacy = binary.LittleEndian.AppendUint64(legacy, rec.Gen)
		legacy = binary.LittleEndian.AppendUint32(legacy, uint32(len(rec.Payload)))
		legacy = binary.LittleEndian.AppendUint32(legacy, crc32.Checksum(rec.Payload, crc32.MakeTable(crc32.Castagnoli)))
		legacy = append(legacy, rec.Payload...)
	}
	reopen("CDRS0001 log", legacy, base)
}

// TestReplicaReadsDoNotWaitForIngest parks the tail loop inside its cache
// write and reads the replica meanwhile: the accessors every served read
// goes through, the status, and a read over HTTP all answer.
func TestReplicaReadsDoNotWaitForIngest(t *testing.T) {
	p := newPrimaryFixture(t, false)
	f := newReplicaFixture(t, p.ts.URL, t.TempDir())
	unlock := f.rep.LockCache()
	released := false
	release := func() {
		if !released {
			released = true
			unlock()
		}
	}
	defer release()
	if err := p.prim.AddRegion("parked", "", "", workload.BoxRegion(500, 500, 510, 510)); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the shipped record to reach the cache write", func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*Replica).cacheAppend("))
	})
	answers := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); fn() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			release()
			t.Fatalf("%s waited for the ingest parked in its cache write", what)
		}
	}
	answers("Tracked", func() {
		if f.rep.Tracked().Store().Len() != p.tr.Store().Len()-1 {
			t.Error("the parked record is visible before its cache write returned: log-then-apply is broken")
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
	release()
	waitCaughtUp(t, p, f.rep)
}
