// Package persist is the durability subsystem of the cardirect service: it
// owns a data directory holding the paper's XML configuration format as
// point-in-time snapshots plus a write-ahead log of the region edits since
// the last snapshot, and recovers the tracked store from them after a
// crash or restart.
//
// Data directory layout:
//
//	snapshot-<seq>.xml   the regions of the configuration, written by the
//	                     DTD writer in sorted-id order via temp file +
//	                     atomic rename; no Relation elements — relations
//	                     are computed from geometry, never stored
//	snapshot-<seq>.bin   the same document in the checksummed binary
//	                     format (see binsnap.go), which recovery prefers
//	                     because it decodes faster than the XML
//	wal-<seq>.log        region edits applied after snapshot <seq>
//	                     (see internal/wal for the framing)
//
// Exactly one (snapshot, wal) generation is live at a time; Snapshot()
// writes generation seq+1 and removes generation seq, which truncates the
// log. Recovery loads the newest readable snapshot — the binary file when
// it is present and passes its CRC, the XML otherwise — tracks its regions
// (config.Track: one Prepare per region, no pair computed) and replays the
// WAL tail through config.Tracked.Apply, the one op switch live edits
// reach too. Snapshots written before the store stopped caching relations
// carry the n² Relation list; they still load, and config.Track drops the
// list. A torn or bit-flipped WAL tail is detected by the log's CRC framing
// and discarded with a logged warning; it is never a startup failure.
//
// An edit is a []wal.Record (see Store.Apply), the same value the log
// stores. Edit ordering is apply-then-log: an edit is validated and applied
// to the in-memory store first, appended to the WAL second, and
// acknowledged to the caller last. Under wal.SyncAlways an acknowledged
// edit is therefore on stable storage; a crash between apply and ack loses
// at most that unacknowledged edit, so recovery always yields a prefix of
// the acknowledged edit stream.
package persist

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/geom"
	"cardirect/internal/wal"
)

// ErrEmptyWorld is returned by Snapshot when the configuration holds no
// regions: the paper's DTD requires Region+, so an empty world has no
// snapshot representation.
var ErrEmptyWorld = errors.New("persist: cannot snapshot an empty configuration (the DTD requires Region+)")

// Options configures a Store.
type Options struct {
	// Sync is the WAL fsync discipline; the zero value is wal.SyncAlways.
	Sync wal.Options
	// Workers is the worker-pool size of the relation store's all-pairs
	// reads; values ≤ 0 mean GOMAXPROCS.
	Workers int
	// Pct enables the relation store's percent reads (core.StoreOptions).
	Pct bool
	// Logger receives recovery and corruption warnings; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Store owns a data directory and the tracked configuration recovered from
// it. All edits must flow through Store.Apply so they are write-ahead
// logged; reads go through Tracked() as usual.
type Store struct {
	mu  sync.Mutex
	dir string
	opt Options
	log *slog.Logger

	tr  *config.Tracked
	w   *wal.Writer
	seq uint64

	// walCum accumulates metrics of rotated-out log writers, so Status
	// reports totals across the store's lifetime.
	walCum wal.Metrics

	recoveryNs    int64
	replayed      int
	skipped       int
	recoveredFrom string
	corruption    string
	lastSnap      time.Time
	err           error
}

// Status is a point-in-time view of the store for the admin surface.
type Status struct {
	Dir     string `json:"dir"`
	Seq     uint64 `json:"seq"`
	Regions int    `json:"regions"`
	// WAL are the cumulative log-writer counters (records, bytes, fsyncs)
	// across all generations since Open.
	WAL wal.Metrics `json:"wal"`
	// RecoveryNs is the wall time Open spent loading the snapshot, tracking
	// its regions and replaying the WAL tail.
	RecoveryNs int64 `json:"recovery_ns"`
	// ReplayedRecords counts WAL records applied during recovery.
	ReplayedRecords int `json:"replayed_records"`
	// SkippedRecords counts WAL records that failed to apply during
	// recovery and were dropped with a warning.
	SkippedRecords int `json:"skipped_records"`
	// RecoveredFrom names the snapshot format recovery loaded: "binary"
	// when the checksummed binary file was used, "xml" when recovery fell
	// back to (or only found) the XML, "" for a fresh initialisation.
	RecoveredFrom string `json:"recovered_from,omitempty"`
	// Corruption describes a discarded WAL tail ("" when the log was
	// intact).
	Corruption string `json:"corruption,omitempty"`
	// LastSnapshot is when the live snapshot generation was written.
	LastSnapshot time.Time `json:"last_snapshot"`
	// Err is a latched write failure ("" when healthy): once the WAL
	// cannot be appended to, every further edit is refused.
	Err string `json:"err,omitempty"`
}

// SnapshotInfo describes one Snapshot() rotation.
type SnapshotInfo struct {
	Seq        uint64 `json:"seq"`
	Path       string `json:"path"`
	Bytes      int64  `json:"bytes"`
	Regions    int    `json:"regions"`
	DurationNs int64  `json:"duration_ns"`
}

func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot-%08d.xml", seq) }
func walName(seq uint64) string      { return fmt.Sprintf("wal-%08d.log", seq) }

// Open recovers a store from dir, or initialises dir from seed when it
// holds no snapshot yet. A non-nil seed alongside an initialised directory
// is ignored (with a logged note): the durable state wins, so a service
// restarted with its bootstrap flags recovers instead of resetting.
func Open(dir string, seed *config.Image, opt Options) (*Store, error) {
	if opt.Logger == nil {
		opt.Logger = slog.Default()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	s := &Store{dir: dir, opt: opt, log: opt.Logger}
	seqs, err := s.scanSnapshots()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if len(seqs) == 0 {
		if seed == nil {
			return nil, fmt.Errorf("persist: data dir %s holds no snapshot and no seed configuration was given", dir)
		}
		if err := s.initialise(seed); err != nil {
			return nil, err
		}
	} else {
		if seed != nil {
			s.log.Info("persist: data dir already initialised; ignoring seed configuration", "dir", dir)
		}
		if err := s.recover(seqs); err != nil {
			return nil, err
		}
	}
	s.recoveryNs = time.Since(start).Nanoseconds()
	s.removeStale()
	return s, nil
}

// scanSnapshots lists the snapshot generations present in the directory,
// ascending.
func (s *Store) scanSnapshots() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "snapshot-%d.xml", &seq); n == 1 && e.Name() == snapshotName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// initialise writes generation 1 from the seed document: tracked store,
// snapshot, fresh log.
func (s *Store) initialise(seed *config.Image) error {
	tr, err := config.Track(seed, core.StoreOptions{Workers: s.opt.Workers, Pct: s.opt.Pct})
	if err != nil {
		return fmt.Errorf("persist: building store from seed: %w", err)
	}
	s.tr = tr
	s.seq = 1
	if err := s.writeSnapshotFile(s.seq); err != nil {
		return err
	}
	w, err := wal.Create(filepath.Join(s.dir, walName(s.seq)), s.opt.Sync)
	if err != nil {
		return fmt.Errorf("persist: creating log: %w", err)
	}
	s.w = w
	if err := s.syncDir(); err != nil {
		return err
	}
	s.lastSnap = time.Now()
	return nil
}

// recover loads the newest readable snapshot generation and replays its WAL
// tail. Unreadable snapshots (half-written by a crashed rotation, or
// damaged on disk) fall back to the previous generation with a warning.
func (s *Store) recover(seqs []uint64) error {
	var img *config.Image
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		// Prefer the binary snapshot: same document, no XML decode. A
		// missing or corrupt binary (torn rotation, bit rot caught by the
		// CRC) falls back to the XML of the same generation; a generation
		// with neither readable falls back to the previous generation.
		binPath := filepath.Join(s.dir, binSnapshotName(seq))
		if loaded, err := loadBinarySnapshot(binPath); err == nil {
			img = loaded
			s.seq = seq
			s.recoveredFrom = "binary"
			break
		} else if !os.IsNotExist(err) {
			s.log.Warn("persist: binary snapshot unreadable; falling back to XML", "path", binPath, "err", err)
		}
		path := filepath.Join(s.dir, snapshotName(seq))
		loaded, err := loadSnapshot(path)
		if err != nil {
			s.log.Warn("persist: skipping unreadable snapshot", "path", path, "err", err)
			continue
		}
		img = loaded
		s.seq = seq
		s.recoveredFrom = "xml"
		break
	}
	if img == nil {
		return fmt.Errorf("persist: no readable snapshot in %s (%d candidates)", s.dir, len(seqs))
	}

	tr, err := config.Track(img, core.StoreOptions{Workers: s.opt.Workers, Pct: s.opt.Pct})
	if err != nil {
		return fmt.Errorf("persist: building store from %s: %w", snapshotName(s.seq), err)
	}
	s.tr = tr

	walPath := filepath.Join(s.dir, walName(s.seq))
	recs, valid, corr, err := wal.ReplayFile(walPath)
	if err != nil {
		return fmt.Errorf("persist: reading log: %w", err)
	}
	if corr != nil {
		s.corruption = corr.String()
		s.log.Warn("persist: discarding torn log tail", "log", walName(s.seq), "at", corr.String(), "intact_records", len(recs))
	}
	// The log keeps no batch boundaries, so a run of OpAdd records replays
	// as one edit — what a bulk ingest wrote comes back as the one edit it
	// was. A refused run changes nothing and is replayed record by record,
	// so a single bad record still only loses itself.
	for i := 0; i < len(recs); {
		j := i + 1
		for recs[i].Op == wal.OpAdd && j < len(recs) && recs[j].Op == wal.OpAdd {
			j++
		}
		if j-i > 1 && s.tr.Apply(recs[i:j]) == nil {
			s.replayed += j - i
			i = j
			continue
		}
		for ; i < j; i++ {
			if err := s.tr.Apply(recs[i : i+1]); err != nil {
				// A record that does not apply cannot arise from our own
				// apply-then-log ordering; tolerate it anyway (version skew,
				// a hand-edited directory) the same way as a torn tail: keep
				// what is consistent, warn, carry on.
				s.skipped++
				s.log.Warn("persist: skipping unreplayable record", "op", recs[i].Op.String(), "id", recs[i].ID, "err", err)
				continue
			}
			s.replayed++
		}
	}
	if err := s.tr.Err(); err != nil {
		return fmt.Errorf("persist: tracked store diverged during replay: %w", err)
	}
	w, err := wal.OpenAppend(walPath, valid, s.opt.Sync)
	if err != nil {
		return fmt.Errorf("persist: opening log for append: %w", err)
	}
	s.w = w
	if st, err := os.Stat(filepath.Join(s.dir, snapshotName(s.seq))); err == nil {
		s.lastSnap = st.ModTime()
	}
	return nil
}

// loadSnapshot parses and validates one snapshot file.
func loadSnapshot(path string) (*config.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := config.Load(f)
	if err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// Tracked returns the recovered tracked configuration. Do not edit it
// directly — route edits through Store.Apply so they are logged.
func (s *Store) Tracked() *config.Tracked { return s.tr }

// Dir returns the owned data directory.
func (s *Store) Dir() string { return s.dir }

// Apply applies one edit to the tracked store (config.Tracked.Apply), then
// appends its records to the WAL as one contiguous write with one fsync
// (wal.Writer.AppendBatch), then returns (= acknowledges). A refused edit
// logs nothing. A WAL append failure is latched — the in-memory state is
// ahead of the durable state from that point on, so every subsequent edit
// is refused until the operator restarts the service.
func (s *Store) Apply(recs []wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return fmt.Errorf("persist: store failed earlier: %w", s.err)
	}
	if err := s.tr.Apply(recs); err != nil {
		return err
	}
	_, pending := s.w.SyncDue()
	if err := s.w.AppendBatch(recs); err != nil {
		s.err = err
		s.log.Error("persist: WAL append failed; refusing further edits", "err", err)
		return fmt.Errorf("persist: edit applied in memory but not logged: %w", err)
	}
	if d, ok := s.w.SyncDue(); ok && !pending {
		s.syncLater(s.w, d)
	}
	return nil
}

// syncLater fsyncs w after d unless it is synced, rotated out by Snapshot or
// closed by then: under wal.SyncInterval an append syncs only records that
// are already due, so without this timer the last edits of a burst would
// wait for the next append or Close however long that takes. Apply arms one
// timer per run of unsynced records, so a timer that finds a younger run
// pending leaves it to that run's own timer. A failed sync is latched like a
// failed append.
func (s *Store) syncLater(w *wal.Writer, d time.Duration) {
	time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.w != w || s.err != nil {
			return
		}
		if due, pending := w.SyncDue(); !pending || due > 0 {
			return
		}
		if err := w.Sync(); err != nil {
			s.err = err
			s.log.Error("persist: WAL fsync failed; refusing further edits", "err", err)
		}
	})
}

// AddRegion applies and logs one OpAdd record.
func (s *Store) AddRegion(id, name, color string, g geom.Region) error {
	return s.Apply([]wal.Record{{Op: wal.OpAdd, ID: id, Name: name, Color: color, Geometry: g}})
}

// RemoveRegion applies and logs one OpRemove record.
func (s *Store) RemoveRegion(id string) error {
	return s.Apply([]wal.Record{{Op: wal.OpRemove, ID: id}})
}

// RenameRegion applies and logs one OpRename record.
func (s *Store) RenameRegion(oldID, newID string) error {
	return s.Apply([]wal.Record{{Op: wal.OpRename, ID: oldID, NewID: newID}})
}

// SetRegionGeometry applies and logs one OpSetGeometry record.
func (s *Store) SetRegionGeometry(id string, g geom.Region) error {
	return s.Apply([]wal.Record{{Op: wal.OpSetGeometry, ID: id, Geometry: g}})
}

// Snapshot writes the next snapshot generation and truncates the log:
// write snapshot-<seq+1> via temp file + fsync + atomic rename, start
// wal-<seq+1>.log, then delete generation seq. A crash at any point leaves
// either generation seq intact or generation seq+1 complete — never a
// state recovery cannot load.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return SnapshotInfo{}, fmt.Errorf("persist: store failed earlier: %w", s.err)
	}
	start := time.Now()
	next := s.seq + 1
	if err := s.writeSnapshotFile(next); err != nil {
		return SnapshotInfo{}, err
	}
	w, err := wal.Create(filepath.Join(s.dir, walName(next)), s.opt.Sync)
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("persist: creating log: %w", err)
	}
	if err := s.syncDir(); err != nil {
		w.Close()
		return SnapshotInfo{}, err
	}
	// The new generation is durable; retire the old one.
	if err := s.w.Close(); err != nil {
		s.log.Warn("persist: closing retired log", "err", err)
	}
	s.walCum.Add(s.w.Metrics())
	s.w = w
	prev := s.seq
	s.seq = next
	s.lastSnap = time.Now()
	s.removeGeneration(prev)
	path := filepath.Join(s.dir, snapshotName(next))
	info := SnapshotInfo{Seq: next, Path: path, DurationNs: time.Since(start).Nanoseconds()}
	if st, err := os.Stat(path); err == nil {
		info.Bytes = st.Size()
	}
	info.Regions = s.tr.Store().Len()
	return info, nil
}

// writeSnapshotFile writes the tracked document as snapshot-<seq> in both
// formats, each atomically (temp file, fsync, rename). The document is
// encoded under the tracked read lock — s.mu already keeps edits out, and
// reads carry on beside the encode. The binary file is installed first and
// the XML second:
// scanSnapshots keys generations off the XML name, so a generation only
// becomes visible once both files are in place, and a crash between the two
// renames leaves an orphaned .bin that the stale sweep removes.
func (s *Store) writeSnapshotFile(seq uint64) error {
	if s.tr.Store().Len() == 0 {
		return ErrEmptyWorld
	}
	var data, bin []byte
	err := s.tr.View(func(img *config.Image) error {
		var err error
		data, err = img.Bytes()
		bin = encodeBinarySnapshot(img)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	if err := s.writeFileAtomic(binSnapshotName(seq), bin); err != nil {
		return err
	}
	return s.writeFileAtomic(snapshotName(seq), data)
}

// writeFileAtomic installs data as name in the data directory via temp
// file + fsync + rename.
func (s *Store) writeFileAtomic(name string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	return nil
}

// syncDir fsyncs the data directory, making renames and file creations
// durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("persist: opening data dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing data dir: %w", err)
	}
	return nil
}

// removeGeneration deletes generation seq's snapshots (both formats) and
// log.
func (s *Store) removeGeneration(seq uint64) {
	for _, name := range []string{snapshotName(seq), binSnapshotName(seq), walName(seq)} {
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			s.log.Warn("persist: removing retired file", "file", name, "err", err)
		}
	}
}

// removeStale clears leftovers of interrupted rotations after recovery:
// writeFileAtomic's temp files and the snapshot and log files of any
// generation other than the live one. Only names this package produces
// are touched — a name must round-trip through snapshotName,
// binSnapshotName or walName (Sscanf alone accepts a prefix match), so an
// operator's snapshot-00000001.xml.bak or notes.tmp in the directory
// survives a restart.
func (s *Store) removeStale() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	owned := []struct {
		format string
		name   func(uint64) string
	}{
		{"snapshot-%d.xml", snapshotName},
		{"snapshot-%d.bin", binSnapshotName},
		{"wal-%d.log", walName},
	}
	for _, e := range entries {
		name := e.Name()
		stale, _ := filepath.Match("snapshot-*.tmp", name)
		for _, f := range owned {
			var seq uint64
			if n, _ := fmt.Sscanf(name, f.format, &seq); n == 1 && seq != s.seq && name == f.name(seq) {
				stale = true
			}
		}
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			s.log.Warn("persist: removing stale file", "file", name, "err", err)
		} else {
			s.log.Info("persist: removed stale file", "file", name)
		}
	}
}

// Status reports the store's durability counters.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Dir:             s.dir,
		Seq:             s.seq,
		Regions:         s.tr.Store().Len(),
		WAL:             s.walCum,
		RecoveryNs:      s.recoveryNs,
		ReplayedRecords: s.replayed,
		SkippedRecords:  s.skipped,
		RecoveredFrom:   s.recoveredFrom,
		Corruption:      s.corruption,
		LastSnapshot:    s.lastSnap,
	}
	if s.w != nil {
		st.WAL.Add(s.w.Metrics())
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	return st
}

// Close flushes and closes the log. The tracked store stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.Close()
	s.walCum.Add(s.w.Metrics())
	s.w = nil
	if s.err == nil && err != nil {
		s.err = err
	} else if s.err == nil {
		s.err = fmt.Errorf("persist: store closed")
	}
	return err
}
