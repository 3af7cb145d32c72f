package serve_test

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/workload"
)

// TestRelationPctIsOneGeneration hammers PUT /v1/regions/{id} against GET
// /v1/relation?pct=1: the edit flips a region between a position north and
// a position east of the reference, so a body whose relation came from one
// generation and whose matrix from the next would name different tiles.
// Every response must have support(pct) == relation. Run under -race.
func TestRelationPctIsOneGeneration(t *testing.T) {
	ts, _ := newGreeceServer(t, serve.Options{})
	for id, box := range map[string]geom.Polygon{"ref": workload.Box(0, 0, 10, 10), "mover": workload.Box(2, 20, 8, 26)} {
		body := map[string]string{"id": id, "wkt": geom.FormatWKT(geom.Rgn(box))}
		if code := doJSON(t, "POST", ts.URL+"/v1/regions", body, nil); code != http.StatusCreated {
			t.Fatalf("adding %s: status %d", id, code)
		}
	}
	positions := [2]string{
		geom.FormatWKT(geom.Rgn(workload.Box(2, 20, 8, 26))), // N of ref
		geom.FormatWKT(geom.Rgn(workload.Box(20, 2, 26, 8))), // E of ref
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var out struct {
					Relation string             `json:"relation"`
					Pct      map[string]float64 `json:"pct"`
				}
				if code := doJSON(t, "GET", ts.URL+"/v1/relation?primary=mover&reference=ref&pct=1", nil, &out); code != http.StatusOK {
					t.Errorf("read status = %d", code)
					return
				}
				rel, err := core.ParseRelation(out.Relation)
				if err != nil {
					t.Error(err)
					return
				}
				var support core.Relation
				for _, tile := range core.Tiles() {
					if out.Pct[tile.String()] > 0 {
						support = support.With(tile)
					}
				}
				if support != rel {
					t.Errorf("torn read: relation %v beside a matrix over %v", rel, support)
					return
				}
			}
		}()
	}
	for i := 0; i < 500; i++ {
		if code := doJSON(t, "PUT", ts.URL+"/v1/regions/mover", map[string]string{"wkt": positions[i&1]}, nil); code != http.StatusOK {
			t.Fatalf("edit %d: status = %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLegacySnapshotsServeComputedRelations: a data directory and a
// replication snapshot written before relations were computed on demand —
// both carry the n² Relation list with pct attributes — recover and
// bootstrap to servers whose GET /v1/relations?pct=1 body is, pair for
// pair, a from-scratch BatchPct over the regions.
func TestLegacySnapshotsServeComputedRelations(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	regions := workload.New(23).Cluster(24, 3, 12)
	named := make([]core.NamedRegion, len(regions))
	img := &config.Image{Name: "legacy"}
	for i, g := range regions {
		id := fmt.Sprintf("r%03d", i)
		named[i] = core.NamedRegion{Name: id, Region: g}
		reg := config.Region{ID: id, Name: id}
		reg.SetGeometry(g)
		img.Regions = append(img.Regions, reg)
	}
	if err := img.ComputeRelations(true); err != nil {
		t.Fatal(err)
	}
	batch, err := core.BatchPct(context.Background(), named, nil)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		Primary   string             `json:"primary"`
		Reference string             `json:"reference"`
		Pct       map[string]float64 `json:"pct"`
	}
	want := make([]pair, len(batch.Pairs))
	for i, p := range batch.Pairs {
		want[i] = pair{Primary: p.Primary, Reference: p.Reference, Pct: map[string]float64{}}
		for _, tile := range core.Tiles() {
			if v := p.Matrix.Get(tile); v != 0 {
				want[i].Pct[tile.String()] = v
			}
		}
	}
	check := func(name string, h http.Handler) {
		t.Helper()
		ts := httptest.NewServer(h)
		defer ts.Close()
		var out struct {
			Pairs []pair `json:"pairs"`
		}
		if code := doJSON(t, "GET", ts.URL+"/v1/relations?pct=1", nil, &out); code != http.StatusOK {
			t.Fatalf("%s: status %d", name, code)
		}
		if !reflect.DeepEqual(out.Pairs, want) {
			t.Errorf("%s: /v1/relations?pct=1 differs from a from-scratch BatchPct", name)
		}
	}

	// The stored answers are poisoned after the oracle is taken: a server
	// that served them instead of computing would show.
	for i := range img.Relations {
		img.Relations[i].Type, img.Relations[i].Pct = "B", "100;0;0;0;0;0;0;0;0"
	}
	snapshot := persist.EncodeSnapshot(img)
	xml, err := img.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for name, data := range map[string][]byte{"snapshot-00000001.bin": snapshot, "snapshot-00000001.xml": xml} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := persist.Open(dir, nil, persist.Options{Pct: true, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	check("data directory", serve.New(ps.Tracked(), serve.Options{Logger: quiet, Persist: ps}).Handler())

	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/replication/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(replica.HeaderEpoch, "legacy")
		w.Header().Set(replica.HeaderSeq, "7")
		w.Header().Set(replica.HeaderGeneration, "7")
		w.Header().Set(replica.HeaderPct, "on")
		w.Write(snapshot)
	}))
	defer primary.Close()
	rep, err := replica.Open(context.Background(), replica.Options{Primary: primary.URL, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if got := rep.Tracked().Store().Generation(); got != 7 {
		t.Errorf("replica generation %d, want the snapshot's 7", got)
	}
	check("replica bootstrap", serve.New(rep.Tracked(), serve.Options{Logger: quiet, Follower: rep}).Handler())
}
