package wal_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
)

// ring is an n-gon around (cx, cy) as a region and as WKT.
func ring(n int, cx, cy float64) (geom.Region, string) {
	var pts []geom.Point
	var wkt strings.Builder
	wkt.WriteString("POLYGON((")
	for i := 0; i <= n; i++ {
		a := 2 * math.Pi * float64(i%n) / float64(n)
		x, y := cx+10*math.Cos(a), cy+10*math.Sin(a)
		if i < n {
			pts = append(pts, geom.Pt(x, y))
		}
		if i > 0 {
			wkt.WriteString(", ")
		}
		fmt.Fprintf(&wkt, "%v %v", x, y)
	}
	wkt.WriteString("))")
	return geom.Rgn(geom.Poly(pts...)), wkt.String()
}

// TestEditOverFrameCapChangesNothing lowers the frame cap and sends edits
// that need a larger frame through every writer above the log: the durable
// store, the replication primary and the HTTP edge. Each refuses the edit
// with wal.ErrTooLarge (413 too_large over HTTP) before it applies, so
// nothing changes, nothing is logged or shipped, the store does not latch,
// and the next edit goes through.
func TestEditOverFrameCapChangesNothing(t *testing.T) {
	const limit = 4 << 10
	defer wal.SetMaxPayload(limit)()
	ps, err := persist.Open(t.TempDir(), config.Greece(), persist.Options{
		Sync:   wal.Options{Policy: wal.SyncNever},
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	prim := replica.NewPrimary(ps.Tracked(), ps, replica.PrimaryOptions{})
	srv := httptest.NewServer(serve.New(ps.Tracked(), serve.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Repl:   prim,
		Editor: prim,
	}).Handler())
	defer srv.Close()

	unchanged := func(what string, before persist.Status, gen uint64) {
		t.Helper()
		after := ps.Status()
		if after.WAL.Records != before.WAL.Records || after.Regions != before.Regions || after.Err != "" {
			t.Fatalf("%s: store went from %+v to %+v", what, before, after)
		}
		if g := ps.Tracked().Store().Generation(); g != gen {
			t.Fatalf("%s: generation %d → %d", what, gen, g)
		}
		if prim.Head() != 0 {
			t.Fatalf("%s: the primary shipped %d records", what, prim.Head())
		}
	}

	// One record over the cap: applying it first would leave the store
	// unable to log it, latched, refusing every later edit.
	bigGeom, _ := ring(limit/16+1, 600, 600)
	before, gen := ps.Status(), ps.Tracked().Store().Generation()
	if err := ps.Apply([]wal.Record{{Op: wal.OpAdd, ID: "big", Geometry: bigGeom}}); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("durable store: an edit over the frame cap answered %v", err)
	}
	unchanged("durable store", before, gen)

	// Two records that each fit a log frame but not, together, one shipped
	// record: shipped, it would be refused by every replica, which would ask
	// for it again and again.
	half := limit / 16 / 2
	var bulk []wal.Record
	var ndjson strings.Builder
	for i, id := range []string{"half1", "half2"} {
		g, wkt := ring(half, 600+30*float64(i), 600)
		bulk = append(bulk, wal.Record{Op: wal.OpAdd, ID: id, Geometry: g})
		line, _ := json.Marshal(map[string]string{"id": id, "wkt": wkt})
		ndjson.Write(append(line, '\n'))
	}
	if err := prim.Apply(bulk); !errors.Is(err, wal.ErrTooLarge) {
		t.Fatalf("primary: a bulk over the frame cap answered %v", err)
	}
	unchanged("primary", before, gen)

	resp, err := http.Post(srv.URL+"/v1/bulk", "application/x-ndjson", strings.NewReader(ndjson.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), `"code":"too_large"`) {
		t.Fatalf("POST /v1/bulk over the frame cap: %d %s", resp.StatusCode, body)
	}
	unchanged("POST /v1/bulk", before, gen)

	// Each half alone fits: the store did not latch.
	if err := prim.Apply(bulk[:1]); err != nil {
		t.Fatalf("an edit under the cap after the refusals: %v", err)
	}
	if prim.Head() != 1 || ps.Status().WAL.Records != before.WAL.Records+1 {
		t.Fatalf("the edit under the cap: head %d, %+v", prim.Head(), ps.Status())
	}
}
