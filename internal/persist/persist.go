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
// it is present, passes its CRC and tracks, the XML otherwise — tracks its
// regions (config.Track: validation, one Prepare per region, no pair
// computed) and replays the WAL tail through config.Tracked.Apply, the one
// op switch live edits reach too. Snapshots written before the store stopped caching relations
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
//
// A replica keeps the same directory with binary snapshots alone: Install
// puts the snapshot it bootstrapped from in place as it came, with the
// Position it records, and Follow logs the stream's wal.OpEdit frames as
// they arrived, so each replays as one whole edit at its primary's
// generation. A replica's log is a convenience, not a record: Install can
// keep the world in memory instead, and Follow applies what it could not
// log.
package persist

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
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
	pos Position
	// diverged is the replicated edit Follow refused; nothing follows it.
	diverged error

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
	s, seqs, err := openDir(dir, opt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if len(seqs) == 0 {
		if seed == nil {
			return nil, fmt.Errorf("persist: data dir %s holds no snapshot and no seed configuration was given: %w", dir, fs.ErrNotExist)
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

// openDir makes dir if need be and lists the generations it holds.
func openDir(dir string, opt Options) (*Store, []uint64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	s := &Store{dir: dir, opt: opt, log: cmp.Or(opt.Logger, slog.Default())}
	seqs, err := s.scanSnapshots()
	return s, seqs, err
}

// scanSnapshots lists the snapshot generations present in the directory,
// ascending: every seq with a snapshot file in either format.
func (s *Store) scanSnapshots() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "snapshot-%d.", &seq); n == 1 &&
			(e.Name() == snapshotName(seq) || e.Name() == binSnapshotName(seq)) {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	return slices.Compact(seqs), nil
}

// initialise writes generation 1 from the seed document: tracked store,
// snapshot, fresh log.
func (s *Store) initialise(seed *config.Image) error {
	if err := s.track(seed, nil); err != nil {
		return fmt.Errorf("persist: building store from seed: %w", err)
	}
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
	var err error
	var path string
	for i := len(seqs) - 1; i >= 0; i-- {
		seq := seqs[i]
		// Prefer the binary snapshot: same document, no XML decode. A
		// binary that is missing, fails its CRC (torn rotation, bit rot) or
		// does not track falls back to the XML of the same generation; a
		// generation with neither falls back to the previous generation.
		path = filepath.Join(s.dir, binSnapshotName(seq))
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			var img *config.Image
			img, s.pos, err = decodeSnapshot(data)
			err = s.track(img, err)
		}
		if err == nil {
			s.seq, s.recoveredFrom = seq, "binary"
			break
		} else if !os.IsNotExist(err) {
			s.log.Warn("persist: binary snapshot unreadable; falling back to XML", "path", path, "err", err)
		}
		s.pos = Position{}
		path = filepath.Join(s.dir, snapshotName(seq))
		if err = s.track(loadSnapshot(path)); err != nil {
			s.log.Warn("persist: skipping unreadable snapshot", "path", path, "err", err)
			continue
		}
		s.seq, s.recoveredFrom = seq, "xml"
		break
	}
	if s.tr == nil {
		return fmt.Errorf("persist: no readable snapshot in %s (%d candidates): %v", s.dir, len(seqs), err)
	}

	walPath := filepath.Join(s.dir, walName(s.seq))
	recs, valid, corr, err := wal.ReplayFile(walPath)
	if err != nil {
		return fmt.Errorf("persist: reading log: %w", err)
	}
	if corr != nil {
		s.corruption = corr.String()
		s.log.Warn("persist: discarding torn log tail", "log", walName(s.seq), "at", corr.String(), "intact_records", len(recs))
	}
	// A primary's log keeps no edit boundaries, so a run of OpAdd records
	// replays as one edit — what a bulk ingest wrote comes back as the one
	// edit it was. A refused run changes nothing and is replayed record by
	// record, so a single bad record still only loses itself. A replica's
	// OpEdit is one edit; any other record leaves the world no position.
	for i := 0; i < len(recs); {
		j := i + 1
		for recs[i].Op == wal.OpAdd && j < len(recs) && recs[j].Op == wal.OpAdd {
			j++
		}
		if recs[i].Op != wal.OpEdit {
			s.pos = Position{}
		}
		if j-i > 1 && s.tr.Apply(recs[i:j]) == nil {
			s.replayed += j - i
			i = j
			continue
		}
		for ; i < j; i++ {
			var err error
			if recs[i].Op == wal.OpEdit {
				err = s.applyEdit(recs[i])
			} else {
				err = s.tr.Apply(recs[i : i+1])
			}
			if err != nil {
				// A record that does not apply cannot arise from our own
				// ordering (on a replica, only from a divergence Follow
				// latched); tolerate it anyway the same way as a torn tail:
				// keep what is consistent, warn, carry on.
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
	w, err := wal.Open(walPath, valid, s.opt.Sync)
	if err != nil {
		return fmt.Errorf("persist: opening log for append: %w", err)
	}
	s.w = w
	if st, err := os.Stat(path); err == nil {
		s.lastSnap = st.ModTime()
	}
	return nil
}

// loadSnapshot parses one XML snapshot file.
func loadSnapshot(path string) (*config.Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return config.Load(f)
}

// track builds the tracked store from a decoded document, or passes on the
// error that decoding it returned. config.Track validates the document, so
// a snapshot is validated once. A world with a position takes its
// primary's generation and percent option, which decides what it accepts.
func (s *Store) track(img *config.Image, err error) error {
	pct := s.opt.Pct
	if s.pos.Epoch != "" {
		pct = s.pos.Pct
	}
	if err == nil {
		s.tr, err = config.Track(img, core.StoreOptions{Workers: s.opt.Workers, Pct: pct})
	}
	if err == nil && s.pos.Epoch != "" {
		s.tr.Store().SetGeneration(s.pos.Gen)
	}
	return err
}

// Tracked returns the recovered tracked configuration. Do not edit it
// directly — route edits through Store.Apply so they are logged.
func (s *Store) Tracked() *config.Tracked { return s.tr }

// Apply frames one edit's records (wal.Writer.Encode), applies the edit to
// the tracked store (config.Tracked.Apply), then appends the frames to the
// WAL as one contiguous write with one fsync, then returns (=
// acknowledges). A refused edit logs nothing, and an edit with a record too
// large for a frame (wal.ErrTooLarge) is refused before it is applied. A
// WAL append failure is latched — the in-memory state is ahead of the
// durable state from that point on, so every subsequent edit is refused
// until the operator restarts the service. An applied edit leaves the world
// no position: it is this store's own, in no primary's stream.
func (s *Store) Apply(recs []wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return fmt.Errorf("persist: store failed earlier: %w", s.err)
	}
	frames, err := s.w.Encode(recs)
	if err != nil {
		return err
	}
	if err := s.tr.Apply(recs); err != nil {
		return err
	}
	s.pos = Position{}
	if err := s.append(frames, len(recs)); err != nil {
		return fmt.Errorf("persist: edit applied in memory but not logged: %w", err)
	}
	return nil
}

// Follow logs a batch of replicated edits, each a wal.OpEdit record, with
// one write of frames — their frames as the stream carried them — and then
// applies each (applyEdit). It logs first, as the primary has acknowledged
// these edits already. Once the log has failed (a latched append or sync
// error) or when the store has none, Follow applies without logging: a
// restart resumes from what the log holds and fetches the rest again. An
// edit the store refuses means the replica diverged; it is latched, and
// nothing follows it.
func (s *Store) Follow(frames []byte, edits []wal.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.diverged != nil {
		return s.diverged
	}
	if s.err == nil {
		s.append(frames, len(edits))
	}
	for _, e := range edits {
		if err := s.applyEdit(e); err != nil {
			s.diverged = fmt.Errorf("persist: replicated edit %d: %w", e.Seq, err)
			return s.diverged
		}
	}
	return nil
}

// applyEdit applies a replicated edit, which must follow the position, as
// one edit, and leaves the store at its primary's generation: normally a
// no-op, the edit moving it by the primary's stride, but ETags ride on it.
func (s *Store) applyEdit(e wal.Record) error {
	if e.Seq != s.pos.Seq+1 {
		return fmt.Errorf("persist: replicated edit %d does not follow %d", e.Seq, s.pos.Seq)
	}
	if err := s.tr.Apply(e.Edits); err != nil {
		return err
	}
	s.tr.Store().SetGeneration(e.Gen)
	s.pos.Seq, s.pos.Gen = e.Seq, e.Gen
	return nil
}

// append writes n frames to the log as one write and arms the interval
// sync (syncLater). A failure is latched.
func (s *Store) append(frames []byte, n int) error {
	_, pending := s.w.SyncDue()
	if err := s.w.AppendFrames(frames, n); err != nil {
		s.err = err
		s.log.Error("persist: WAL append failed; the log takes no further edit", "err", err)
		return err
	}
	if d, ok := s.w.SyncDue(); ok && !pending {
		s.syncLater(s.w, d)
	}
	return nil
}

// Position reports where the world stands in the replication stream it
// follows; a primary's world has none (an empty Epoch).
func (s *Store) Position() Position {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pos
}

// Install makes snapshot, bytes EncodeSnapshotAt wrote, the newest
// generation of dir as they are — no XML — and opens the store, whose stale
// sweep retires the older ones. A replica bootstraps this way. With dir ""
// the world stays in memory: nothing is written, and Follow only applies.
func Install(dir string, snapshot []byte, opt Options) (*Store, error) {
	if dir == "" {
		img, pos, err := decodeSnapshot(snapshot)
		s := &Store{opt: opt, log: cmp.Or(opt.Logger, slog.Default()), pos: pos, err: errors.New("persist: the store keeps no data directory")}
		if err := s.track(img, err); err != nil {
			return nil, err
		}
		return s, nil
	}
	s, seqs, err := openDir(dir, opt)
	if err != nil {
		return nil, err
	}
	var last uint64
	if len(seqs) > 0 {
		last = seqs[len(seqs)-1]
	}
	if err := writeFileAtomic(filepath.Join(dir, binSnapshotName(last+1)), snapshot); err != nil {
		return nil, fmt.Errorf("persist: installing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return nil, err
	}
	return Open(dir, nil, opt)
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
			s.log.Error("persist: WAL fsync failed; the log takes no further edit", "err", err)
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
// reads carry on beside the encode. Either file is the whole world as of
// the generation, so a crash between the two renames leaves a generation
// that recovers from the binary file alone. The binary file records the
// world's position, so a replica's world written out before any edit of
// its own keeps its primary's generation and percent mode.
func (s *Store) writeSnapshotFile(seq uint64) error {
	if s.tr.Store().Len() == 0 {
		return ErrEmptyWorld
	}
	var data, bin []byte
	err := s.tr.View(func(img *config.Image) error {
		var err error
		data, err = img.Bytes()
		bin = EncodeSnapshotAt(img, s.pos)
		return err
	})
	if err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, binSnapshotName(seq)), bin); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.dir, snapshotName(seq)), data); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	return nil
}

// writeFileAtomic installs data at path: written to path+".tmp", fsynced,
// then renamed over path, so that a crash leaves the old file or the new
// one and never a torn one. Making the rename durable (a directory fsync) is
// the caller's business.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
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
