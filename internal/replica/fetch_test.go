package replica_test

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/replica"
)

// TestReplicaAppliesCutFetch holds the replica's polls while the primary
// takes forty edits, so that the next wal response runs far past the most a
// fetch reads: the replica applies the intact records of each cut body and
// asks for the rest, instead of dropping the batch and asking for the same
// bytes again until the window trims past it.
func TestReplicaAppliesCutFetch(t *testing.T) {
	t.Cleanup(replica.SetMaxFetchBytes(32 << 10)) // after the fixtures stop
	var hold atomic.Bool
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	p := newWrappedPrimaryFixture(t, false, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/replication/wal" && hold.Load() {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	defer open()
	f := newReplicaFixture(t, p.ts.URL, "")
	hold.Store(true)
	for i := 0; i < 40; i++ {
		// 300 vertices: about 4.8 KB a record, 190 KB for the forty.
		pts := make([]geom.Point, 300)
		for j := range pts {
			a := 2 * math.Pi * float64(j) / float64(len(pts))
			pts[j] = geom.Pt(1000+30*float64(i)+10*math.Cos(a), 1000+10*math.Sin(a))
		}
		if err := p.prim.AddRegion(fmt.Sprintf("cut%02d", i), "", "", geom.Rgn(geom.Poly(pts...))); err != nil {
			t.Fatal(err)
		}
	}
	open()
	waitCaughtUp(t, p, f.rep)
}

// TestReplicaNamesStreamHeader: a primary still speaking the CDRS0001
// stream (primaries and replicas upgrade together) gets nothing applied,
// and the replica's last_error names the header it was sent.
func TestReplicaNamesStreamHeader(t *testing.T) {
	p := newPrimaryFixture(t, false)
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/wal" {
			p.ts.Config.Handler.ServeHTTP(w, r)
			return
		}
		w.Header().Set(replica.HeaderEpoch, p.prim.Epoch())
		w.Header().Set(replica.HeaderHead, fmt.Sprint(p.prim.Head()+1))
		w.Write([]byte("CDRS0001"))
	}))
	defer old.Close()
	f := newReplicaFixture(t, old.URL, "")
	waitUntil(t, "last_error to name the CDRS0001 header", func() bool {
		return strings.Contains(f.rep.Status().LastError, `"CDRS0001"`)
	})
	if st := f.rep.Status(); st.RecordsApplied != 0 {
		t.Fatalf("applied %d records from a CDRS0001 stream", st.RecordsApplied)
	}
}
