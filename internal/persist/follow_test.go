package persist

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"cardirect/internal/geom"
	"cardirect/internal/wal"
	"cardirect/internal/workload"
)

// TestInstallFollowRecover drives a replica's data directory through
// persist alone. Install puts the bootstrap bytes in place as they came
// (no XML) at the position they record; Follow logs OpEdit frames and
// applies each as one edit, refusing one that does not follow the position
// and latching the refusal; recovery lands where the last edit that
// applied left the world, skipping the refused one; and a second Install
// retires the first generation.
func TestInstallFollowRecover(t *testing.T) {
	dir := t.TempDir()
	gen := workload.New(41)
	img := buildImage(t, gen.Scatter(4, 10))
	pos := Position{Epoch: "e", Seq: 4, Gen: 10}
	snap := EncodeSnapshotAt(img, pos)
	opt := Options{Sync: wal.Options{Policy: wal.SyncNever}, Pct: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	s, err := Install(dir, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	installed, err := os.ReadFile(filepath.Join(dir, binSnapshotName(1)))
	if err != nil || string(installed) != string(snap) {
		t.Fatalf("generation 1 holds %d bytes (%v), want the %d installed", len(installed), err, len(snap))
	}
	if xml, _ := filepath.Glob(filepath.Join(dir, "*.xml")); len(xml) != 0 {
		t.Fatalf("Install wrote XML: %v", xml)
	}
	if s.Position() != pos || s.Tracked().Store().Generation() != pos.Gen || s.Tracked().Store().Pct() {
		t.Fatalf("installed at %+v, generation %d, pct %v; want %+v with the snapshot's pct off",
			s.Position(), s.Tracked().Store().Generation(), s.Tracked().Store().Pct(), pos)
	}

	boxes := gen.Scatter(3, 10)
	edit := func(seq, g uint64, recs ...wal.Record) ([]byte, wal.Record) {
		frames, err := wal.AppendRecords(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wal.AppendEdit(nil, seq, g, frames)
		if err != nil {
			t.Fatal(err)
		}
		return frame, wal.Record{Op: wal.OpEdit, Seq: seq, Gen: g, Edits: recs}
	}
	f5, e5 := edit(5, 11, wal.Record{Op: wal.OpAdd, ID: "n0", Geometry: boxes[0]}, wal.Record{Op: wal.OpAdd, ID: "n1", Geometry: boxes[1]})
	f6, e6 := edit(6, 12, wal.Record{Op: wal.OpRemove, ID: "n0"})
	if err := s.Follow(append(f5, f6...), []wal.Record{e5, e6}); err != nil {
		t.Fatal(err)
	}
	if p := s.Position(); p.Seq != 6 || p.Gen != 12 || s.Tracked().Store().Generation() != 12 {
		t.Fatalf("after two edits: %+v, generation %d; want seq 6 at generation 12", p, s.Tracked().Store().Generation())
	}
	f8, e8 := edit(8, 14, wal.Record{Op: wal.OpAdd, ID: "n2", Geometry: boxes[2]})
	if err := s.Follow(f8, []wal.Record{e8}); err == nil {
		t.Fatal("an edit that skips seq 7 applied")
	}
	f7, e7 := edit(7, 13, wal.Record{Op: wal.OpAdd, ID: "n2", Geometry: boxes[2]})
	if err := s.Follow(f7, []wal.Record{e7}); err == nil {
		t.Fatal("a store that refused an edit took the next one")
	}
	regions := s.Tracked().Store().Len()
	s.Close()

	r, err := Open(dir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Status()
	if p := r.Position(); p != (Position{Epoch: "e", Seq: 6, Gen: 12}) || r.Tracked().Store().Len() != regions ||
		st.ReplayedRecords != 2 || st.SkippedRecords != 1 {
		t.Fatalf("recovered %+v with %d regions, %d replayed, %d skipped; want seq 6 at generation 12 with %d regions, 2 replayed, 1 skipped",
			p, r.Tracked().Store().Len(), st.ReplayedRecords, st.SkippedRecords, regions)
	}
	r.Close()

	again, err := Install(dir, EncodeSnapshotAt(img, Position{Epoch: "f", Seq: 1, Gen: 3}), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Status(); st.Seq != 2 || again.Position().Epoch != "f" {
		t.Fatalf("the second install is generation %d at %+v, want generation 2 at epoch f", st.Seq, again.Position())
	}
	for _, name := range []string{binSnapshotName(1), walName(1)} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived the second install", name)
		}
	}
}

// TestFollowOutlivesItsLog: a replica's log is a convenience, not a record.
// Once an append fails, Follow still applies what it could not log and the
// store stays at the primary's position, while a restart recovers what the
// log holds; Install with no directory follows in memory and writes
// nothing.
func TestFollowOutlivesItsLog(t *testing.T) {
	gen := workload.New(43)
	img := buildImage(t, gen.Scatter(4, 10))
	boxes := gen.Scatter(2, 10)
	snap := EncodeSnapshotAt(img, Position{Epoch: "e", Seq: 1, Gen: 4})
	opt := Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	edit := func(seq uint64, id string, g geom.Region) ([]byte, []wal.Record) {
		recs := []wal.Record{{Op: wal.OpAdd, ID: id, Geometry: g}}
		frames, err := wal.AppendRecords(nil, recs)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wal.AppendEdit(nil, seq, seq+3, frames)
		if err != nil {
			t.Fatal(err)
		}
		return frame, []wal.Record{{Op: wal.OpEdit, Seq: seq, Gen: seq + 3, Edits: recs}}
	}
	f2, e2 := edit(2, "n0", boxes[0])
	f3, e3 := edit(3, "n1", boxes[1])

	dir := t.TempDir()
	s, err := Install(dir, snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Follow(f2, e2); err != nil {
		t.Fatal(err)
	}
	s.w.Close() // the log's file fails from here on
	if err := s.Follow(f3, e3); err != nil {
		t.Fatalf("a failed log stopped Follow: %v", err)
	}
	if p := s.Position(); p.Seq != 3 || s.Tracked().Store().Len() != 6 || s.Status().Err == "" {
		t.Fatalf("after the failed append: %+v, %d regions, err %q; want seq 3, 6 regions and the failure latched",
			p, s.Tracked().Store().Len(), s.Status().Err)
	}
	s.Close()
	r, err := Open(dir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if p := r.Position(); p.Seq != 2 || r.Tracked().Store().Len() != 5 {
		t.Fatalf("recovered %+v with %d regions; want the logged seq 2 with 5", p, r.Tracked().Store().Len())
	}
	r.Close()

	mem, err := Install("", snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Follow(append(f2, f3...), append(e2, e3...)); err != nil {
		t.Fatal(err)
	}
	if p := mem.Position(); p.Seq != 3 || mem.Tracked().Store().Generation() != 6 {
		t.Fatalf("in memory: %+v at generation %d; want seq 3 at generation 6", p, mem.Tracked().Store().Generation())
	}
	if _, err := mem.Snapshot(); err == nil {
		t.Fatal("a store with no data directory wrote a snapshot")
	}
}

// TestSnapshotKeepsPosition: a replica's directory opened as a primary's
// keeps its primary's position — and so its percent mode — through a
// snapshot taken before any edit of its own, whatever Options.Pct says; an
// edit of its own leaves the world no position.
func TestSnapshotKeepsPosition(t *testing.T) {
	dir := t.TempDir()
	pos := Position{Epoch: "e", Seq: 7, Gen: 9, Pct: true}
	opt := Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	gen := workload.New(44)
	s, err := Install(dir, EncodeSnapshotAt(buildImage(t, gen.Scatter(3, 10)), pos), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r, err := Open(dir, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Position() != pos || !r.Tracked().Store().Pct() || r.Status().Seq != 2 {
		t.Fatalf("after a snapshot: %+v, pct %v, generation %d; want %+v, pct on, generation 2",
			r.Position(), r.Tracked().Store().Pct(), r.Status().Seq, pos)
	}
	if err := r.AddRegion("own", "", "", gen.Scatter(1, 10)[0]); err != nil {
		t.Fatal(err)
	}
	if r.Position() != (Position{}) {
		t.Fatalf("an edit of its own left the world at %+v", r.Position())
	}
}
