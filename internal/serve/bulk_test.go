package serve_test

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/serve"
	"cardirect/internal/workload"
)

// bulkNDJSON renders a generated world as the bulk-ingest wire format.
func bulkNDJSON(t *testing.T, regions []geom.Region, prefix string) string {
	t.Helper()
	var sb strings.Builder
	for i, g := range regions {
		fmt.Fprintf(&sb, "{\"id\":%q,\"name\":%q,\"wkt\":%q}\n",
			fmt.Sprintf("%s%04d", prefix, i), fmt.Sprintf("Bulk %d", i), geom.FormatWKT(g))
	}
	return sb.String()
}

// TestBulkIngest is the HTTP acceptance of the streamed bulk path: one
// POST /v1/bulk of a zipfian world lands every region as ONE store edit
// (BulkBatches == 1).
func TestBulkIngest(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	pre := tr.Store().Len()
	const k = 400
	window := geom.Rect{MinX: 1000, MinY: 1000, MaxX: 2000, MaxY: 2000}
	body := bulkNDJSON(t, workload.New(5).Zipf(window, k, 128), "z")

	var out struct {
		Added      int   `json:"added"`
		Batches    int   `json:"batches"`
		DurationNs int64 `json:"duration_ns"`
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/bulk", body, &out); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if out.Added != k || out.Batches != 1 {
		t.Fatalf("response = %+v", out)
	}
	if got := tr.Store().Len(); got != pre+k {
		t.Fatalf("store holds %d regions, want %d", got, pre+k)
	}
	st := tr.Store().Stats()
	if st.BulkBatches != 1 {
		t.Errorf("BulkBatches = %d, want 1", st.BulkBatches)
	}
	if st.DeltaPairs != 0 {
		t.Errorf("DeltaPairs = %d, want 0 — bulk ingest must not pay per-region deltas", st.DeltaPairs)
	}
	// The ingested regions answer relation queries like any others.
	var rel struct {
		Relation string `json:"relation"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=z0001&reference=z0002", nil, &rel); code != http.StatusOK {
		t.Fatalf("relation status = %d", code)
	}
	if rel.Relation == "" {
		t.Error("empty relation for ingested pair")
	}
}

// TestBulkIngestAtomic checks a bad line rejects the whole stream.
func TestBulkIngestAtomic(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{})
	pre := tr.Store().Len()
	good := bulkNDJSON(t, workload.New(6).Scatter(5, 8), "a")
	for _, bad := range []string{
		good + "{\"id\":\"a0000\",\"wkt\":\"POLYGON((0 0,0 1,1 1,1 0,0 0))\"}\n", // dup within stream
		good + "{\"id\":\"\",\"wkt\":\"POLYGON((0 0,0 1,1 1,1 0,0 0))\"}\n",      // missing id
		good + "{\"id\":\"b\",\"wkt\":\"POLYGON((0 0))\"}\n",                     // bad geometry
		good + "not json\n",
		good + "{\"id\":\"b\"}\n", // no geometry
	} {
		if code := doJSON(t, "POST", ts.URL+"/v1/bulk", bad, nil); code == http.StatusOK {
			t.Errorf("bad stream accepted")
		}
		if tr.Store().Len() != pre {
			t.Fatalf("rejected stream mutated the store")
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/bulk", "", nil); code != http.StatusBadRequest {
		t.Errorf("empty stream: status %d, want 400", code)
	}
}

// TestBulkIngestBodyCap checks the dedicated bulk request-size cap maps to
// 413 without the ordinary 1 MiB edit cap applying.
func TestBulkIngestBodyCap(t *testing.T) {
	ts, tr := newGreeceServer(t, serve.Options{MaxBodyBytes: 512, MaxBulkBytes: 16 << 10})
	// Over the 512-byte edit cap but under the bulk cap: must succeed.
	mid := bulkNDJSON(t, workload.New(7).Scatter(12, 8), "m")
	if len(mid) <= 512 || len(mid) >= 16<<10 {
		t.Fatalf("fixture sized %d, want between the caps", len(mid))
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/bulk", mid, nil); code != http.StatusOK {
		t.Fatalf("mid-size bulk: status %d", code)
	}
	pre := tr.Store().Len()
	// Over the bulk cap: 413, nothing applied.
	big := bulkNDJSON(t, workload.New(8).Scatter(400, 16), "b")
	if len(big) < 16<<10 {
		t.Fatalf("fixture sized %d, want over the bulk cap", len(big))
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/bulk", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized bulk: status %d, want 413", code)
	}
	if tr.Store().Len() != pre {
		t.Error("oversized stream mutated the store")
	}
}
