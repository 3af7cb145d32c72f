package replica

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
)

// Replication HTTP headers. The primary stamps them on snapshot and wal
// responses; replicas echo staleness on their read responses.
const (
	// HeaderEpoch carries the primary's epoch token.
	HeaderEpoch = "Cardirect-Repl-Epoch"
	// HeaderSeq carries a snapshot's head sequence.
	HeaderSeq = "Cardirect-Repl-Seq"
	// HeaderHead carries the primary's current head sequence on wal fetches.
	HeaderHead = "Cardirect-Repl-Head"
	// HeaderGeneration carries the store generation of a snapshot.
	HeaderGeneration = "Cardirect-Repl-Generation"
	// HeaderPct reports whether the primary's store answers percentages
	// ("on" or "off"); a replica builds its store to match.
	HeaderPct = "Cardirect-Repl-Pct"
	// HeaderStaleness is stamped by replicas on read responses: the number
	// of replication records known to be unapplied (0 = caught up as of the
	// last poll).
	HeaderStaleness = "Cardirect-Staleness"
	// HeaderMinGeneration lets a reader demand freshness: a replica whose
	// store generation is below the value answers 503 replica_lagging.
	HeaderMinGeneration = "Cardirect-Min-Generation"
)

// maxFetchBytes caps one wal fetch's body.
const maxFetchBytes = 256 << 20

// cacheSyncInterval is the longest a cached record waits for its fsync (the
// default of cardirectd's -fsync-interval). The primary's WAL is the record
// of every edit; the cache only spares a restarted replica the download, a
// SIGKILL leaves its written pages in place, and what a power loss tears
// off the tail is cut at restart and fetched again.
const cacheSyncInterval = time.Second

// maxKeptFrame is the largest framing buffer ingest keeps between batches.
const maxKeptFrame = 1 << 20

// Cache file names under Options.CacheDir.
const (
	cacheSnapshotName = "snapshot.bin"
	cacheTailName     = "tail.log"
	cacheMetaName     = "meta.json"
)

// cacheMeta is the durable checkpoint describing the cached snapshot: the
// epoch it came from and the replication coordinates at which it was taken.
// tail.log holds the stream records received after it.
type cacheMeta struct {
	Epoch      string `json:"epoch"`
	Seq        uint64 `json:"seq"`
	Generation uint64 `json:"generation"`
	Pct        bool   `json:"pct"`
}

// Options configures a Replica.
type Options struct {
	// Primary is the primary's base URL (e.g. http://127.0.0.1:8080).
	Primary string
	// CacheDir, when set, persists the bootstrap snapshot and the received
	// record tail so a restarted replica resumes from its last applied
	// sequence instead of re-downloading the world.
	CacheDir string
	// Workers sizes the store's all-pairs read pool; ≤ 0 means GOMAXPROCS.
	Workers int
	// PollWait is the long-poll duration hint sent to the primary; values
	// ≤ 0 mean 10 seconds.
	PollWait time.Duration
	// MaxBatch caps records per fetch; values ≤ 0 mean 1024.
	MaxBatch int
	// Client is the HTTP client used for primary traffic; nil means a
	// client with a sensible timeout derived from PollWait.
	Client *http.Client
	// Logger receives replication progress; nil discards.
	Logger *slog.Logger
}

// Status is a replica's replication position, served as expvars and by
// GET /v1/replication/status.
type Status struct {
	Epoch            string `json:"epoch"`
	LastAppliedSeq   uint64 `json:"last_applied_seq"`
	HeadSeq          uint64 `json:"head_seq"`
	LagRecords       uint64 `json:"lag_records"`
	LagNS            int64  `json:"lag_ns"`
	Generation       uint64 `json:"generation"`
	BootSeq          uint64 `json:"boot_seq"`
	ResumedFromCache bool   `json:"resumed_from_cache"`
	Bootstraps       uint64 `json:"bootstraps"`
	RecordsApplied   uint64 `json:"records_applied"`
	LastError        string `json:"last_error,omitempty"`
	// CacheSyncedSeq is the last record known to be fsynced in the local
	// cache (0 without one); it trails LastAppliedSeq by at most
	// cacheSyncInterval.
	CacheSyncedSeq uint64 `json:"cache_synced_seq"`
}

// tailFile is the cache's record log as the replica uses it; an *os.File
// outside tests.
type tailFile interface {
	io.WriteCloser
	Sync() error
}

// Replica tails a primary's replication stream: it bootstraps a tracked
// store from the primary's binary snapshot (or a local cache of it), then
// applies shipped records through config.Tracked.Apply. The tracked
// store it exposes is swapped wholesale when the primary's epoch changes
// (primary restart) or the tail falls behind the retained window.
type Replica struct {
	opt   Options
	log   *slog.Logger
	httpc *http.Client

	// What a served read needs is atomic, so that a read never waits for
	// mu, which the tail loop holds while it applies a batch. Only the tail
	// goroutine stores — Open before the replica is shared, Run under mu.
	tr      atomic.Pointer[config.Tracked]
	applied atomic.Uint64
	head    atomic.Uint64

	mu         sync.Mutex
	epoch      string
	bootSeq    uint64
	fromCache  bool
	bootstraps uint64
	records    uint64
	lastErr    string
	failed     error // what stopped the tail loop for good
	caughtUpAt time.Time
	everCaught bool

	// The cache's record log. It has a lock of its own, never held together
	// with work on the store: the tail goroutine appends before it takes mu,
	// a timer syncs.
	tailMu    sync.Mutex
	tail      tailFile
	frame     []byte // framing buffer, reused between batches
	written   uint64 // last record handed to tail
	syncArmed bool   // a cacheSync is scheduled
	synced    atomic.Uint64
}

// current points expvar at the most recently opened replica (one per
// process in practice; tests open several and the latest wins).
var current atomic.Pointer[Replica]

var publishOnce sync.Once

func publishExpvars() {
	publishOnce.Do(func() {
		expvar.Publish("replication", expvar.Func(func() any {
			r := current.Load()
			if r == nil {
				return nil
			}
			return r.Status()
		}))
	})
}

// Open bootstraps a replica: from CacheDir when it holds a usable
// checkpoint, otherwise from the primary's snapshot endpoint (retrying
// briefly). The returned replica serves reads immediately; call Run to
// start tailing.
func Open(ctx context.Context, opt Options) (*Replica, error) {
	if opt.PollWait <= 0 {
		opt.PollWait = 10 * time.Second
	}
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 1024
	}
	log := opt.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	httpc := opt.Client
	if httpc == nil {
		httpc = &http.Client{Timeout: opt.PollWait + 30*time.Second}
	}
	r := &Replica{opt: opt, log: log, httpc: httpc}
	if opt.CacheDir != "" {
		if err := os.MkdirAll(opt.CacheDir, 0o755); err != nil {
			return nil, fmt.Errorf("replica: cache dir: %w", err)
		}
		if err := r.bootstrapFromCache(); err == nil {
			r.bootSeq = r.applied.Load()
			r.fromCache = true
			r.log.Info("replica: resumed from cache", "seq", r.bootSeq, "generation", r.generationLocked())
			current.Store(r)
			publishExpvars()
			return r, nil
		} else if !errors.Is(err, os.ErrNotExist) {
			r.log.Warn("replica: cache unusable, bootstrapping from primary", "err", err)
		}
	}
	// Full bootstrap with a short retry loop: the primary may still be
	// coming up next to us.
	var err error
	for attempt, delay := 0, 100*time.Millisecond; ; attempt, delay = attempt+1, delay*2 {
		if err = r.bootstrap(ctx); err == nil {
			break
		}
		if attempt >= 6 || ctx.Err() != nil {
			return nil, fmt.Errorf("replica: bootstrap from %s: %w", opt.Primary, err)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	r.bootSeq = r.applied.Load()
	current.Store(r)
	publishExpvars()
	return r, nil
}

// Tracked returns the replica's current tracked store. Callers must
// re-fetch it per use — it is swapped on re-bootstrap.
func (r *Replica) Tracked() *config.Tracked { return r.tr.Load() }

// PrimaryURL returns the base URL of the primary this replica follows.
func (r *Replica) PrimaryURL() string { return r.opt.Primary }

func (r *Replica) generationLocked() uint64 {
	tr := r.tr.Load()
	if tr == nil {
		return 0
	}
	return tr.Store().Generation()
}

// Status reports the replica's replication position.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Epoch:            r.epoch,
		LastAppliedSeq:   r.applied.Load(),
		HeadSeq:          r.head.Load(),
		LagRecords:       r.Lag(),
		Generation:       r.generationLocked(),
		BootSeq:          r.bootSeq,
		ResumedFromCache: r.fromCache,
		Bootstraps:       r.bootstraps,
		RecordsApplied:   r.records,
		LastError:        r.lastErr,
		CacheSyncedSeq:   r.synced.Load(),
	}
	if st.LagRecords > 0 && r.everCaught {
		st.LagNS = time.Since(r.caughtUpAt).Nanoseconds()
	}
	return st
}

// Lag returns the last observed record lag (head - applied).
func (r *Replica) Lag() uint64 {
	// applied first: read the other way round, a batch applied between the
	// two loads would show as lag that was never there.
	applied, head := r.applied.Load(), r.head.Load()
	if head > applied {
		return head - applied
	}
	return 0
}

// Err returns what stopped the tail loop for good — a shipped record the
// store refused — or nil while replication is alive. A replica that
// reports an error serves a world that no longer moves.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Close syncs and releases the cache's record log; the tracked store stays
// readable.
func (r *Replica) Close() error {
	r.tailMu.Lock()
	defer r.tailMu.Unlock()
	r.syncTailLocked()
	if r.tail == nil { // no cache, closed already, or the sync just gave it up
		return nil
	}
	err := r.tail.Close()
	r.tail = nil
	return err
}

// Run tails the primary until ctx is done, applying records as they
// arrive. Transport errors back off and retry; an epoch change or a
// trimmed-window response triggers a full re-bootstrap. It returns nil on
// context cancellation and an error only for unrecoverable local failures
// (a latched store divergence).
func (r *Replica) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		if ctx.Err() != nil {
			return nil
		}
		recs, head, epoch, status, err := r.fetchWAL(ctx, r.applied.Load()+1)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			r.noteErr(err)
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return nil
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		case status == http.StatusGone, epoch != r.currentEpoch():
			r.log.Info("replica: re-bootstrapping", "status", status, "epoch", epoch)
			if err := r.bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				r.noteErr(err)
				select {
				case <-time.After(backoff):
				case <-ctx.Done():
					return nil
				}
				if backoff *= 2; backoff > maxBackoff {
					backoff = maxBackoff
				}
			}
			continue
		}
		backoff = 100 * time.Millisecond
		if err := r.ingest(recs, head); err != nil {
			return err
		}
	}
}

func (r *Replica) currentEpoch() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

func (r *Replica) noteErr(err error) {
	r.mu.Lock()
	r.lastErr = err.Error()
	r.mu.Unlock()
	r.log.Warn("replica: tail error", "err", err)
}

// ingest caches then applies a fetched record batch. The cache write comes
// first (log-then-apply): a crash between the two replays the cached
// records on restart, whereas the reverse order would lose an applied edit
// from the cache. It is one write for the batch, made before mu is taken.
func (r *Replica) ingest(recs []StreamRecord, head uint64) error {
	// Keep the contiguous prefix: a gap means the fetch raced a trim; the
	// next poll will 410 and re-bootstrap.
	next, n := r.applied.Load()+1, 0
	for n < len(recs) && recs[n].Seq == next+uint64(n) {
		n++
	}
	if recs = recs[:n]; n > 0 {
		r.cacheAppend(recs)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.head.Store(head)
	for _, rec := range recs {
		if err := r.applyLocked(rec); err != nil {
			r.lastErr = err.Error()
			r.failed = fmt.Errorf("replica: applying record %d: %w", rec.Seq, err)
			return r.failed
		}
		r.applied.Store(rec.Seq)
		r.records++
	}
	if r.applied.Load() == head {
		r.caughtUpAt = time.Now()
		r.everCaught = true
	}
	return nil
}

// applyLocked applies one shipped edit through config.Tracked.Apply — a
// bulk record lands as one edit, exactly like the primary's — and aligns
// the generation with the primary's.
func (r *Replica) applyLocked(rec StreamRecord) error {
	edits, err := DecodeEdits(rec.Payload)
	if err != nil {
		return err
	}
	tr := r.tr.Load()
	if err := tr.Apply(edits); err != nil {
		return err
	}
	// Edits bump the local generation by exactly the primary's stride, so
	// this is normally a no-op; it re-aligns defensively either way because
	// ETag agreement rides on it.
	tr.Store().SetGeneration(rec.Gen)
	return nil
}

// bootstrap downloads the primary's snapshot and builds a fresh tracked
// store from it, replacing the current one and resetting the cache.
func (r *Replica) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.Primary+"/v1/replication/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("replica: snapshot fetch: %s: %s", resp.Status, body)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes))
	if err != nil {
		return err
	}
	meta := cacheMeta{Epoch: resp.Header.Get(HeaderEpoch), Pct: resp.Header.Get(HeaderPct) == "on"}
	if meta.Seq, err = strconv.ParseUint(resp.Header.Get(HeaderSeq), 10, 64); err != nil {
		return fmt.Errorf("replica: snapshot response missing %s", HeaderSeq)
	}
	if meta.Generation, err = strconv.ParseUint(resp.Header.Get(HeaderGeneration), 10, 64); err != nil {
		return fmt.Errorf("replica: snapshot response missing %s", HeaderGeneration)
	}
	tr, err := seedTracked(data, meta, r.opt.Workers)
	if err != nil {
		return err
	}
	if r.opt.CacheDir != "" {
		if err := r.cacheReset(data, meta); err != nil {
			r.log.Warn("replica: cache reset failed; continuing without cache", "err", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.tr.Swap(tr); old != nil {
		old.Close()
	}
	r.epoch = meta.Epoch
	r.applied.Store(meta.Seq)
	r.head.Store(meta.Seq)
	r.bootstraps++
	r.caughtUpAt = time.Now()
	r.everCaught = true
	r.log.Info("replica: bootstrapped", "seq", meta.Seq, "generation", meta.Generation, "epoch", meta.Epoch)
	return nil
}

// seedTracked decodes and validates a snapshot and tracks its regions at
// the primary's generation.
func seedTracked(data []byte, meta cacheMeta, workers int) (*config.Tracked, error) {
	img, err := DecodeSnapshotImage(data)
	if err != nil {
		return nil, err
	}
	tr, err := config.Track(img, core.StoreOptions{Workers: workers, Pct: meta.Pct})
	if err != nil {
		return nil, err
	}
	tr.Store().SetGeneration(meta.Generation)
	return tr, nil
}

// fetchWAL asks the primary for records from the given sequence. It
// returns the decoded records, the primary's head and epoch, and the HTTP
// status (410 signals a trimmed window).
func (r *Replica) fetchWAL(ctx context.Context, from uint64) (recs []StreamRecord, head uint64, epoch string, status int, err error) {
	u := fmt.Sprintf("%s/v1/replication/wal?%s", r.opt.Primary, url.Values{
		"from": {strconv.FormatUint(from, 10)},
		"wait": {r.opt.PollWait.String()},
		"max":  {strconv.Itoa(r.opt.MaxBatch)},
	}.Encode())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, "", 0, err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return nil, 0, "", 0, err
	}
	defer resp.Body.Close()
	epoch = resp.Header.Get(HeaderEpoch)
	head, _ = strconv.ParseUint(resp.Header.Get(HeaderHead), 10, 64)
	if resp.StatusCode == http.StatusGone {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, head, epoch, resp.StatusCode, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, 0, "", resp.StatusCode, fmt.Errorf("replica: wal fetch: %s: %s", resp.Status, body)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes))
	if err != nil {
		return nil, 0, "", 0, err
	}
	recs, _, corr := DecodeStream(data)
	if corr != nil {
		return nil, 0, "", 0, fmt.Errorf("replica: corrupt stream at %s", corr)
	}
	return recs, head, epoch, resp.StatusCode, nil
}

// --- local cache -----------------------------------------------------------

// cacheReset atomically installs a fresh checkpoint: snapshot bytes, an
// empty tail, and last the meta file that references them — each synced.
func (r *Replica) cacheReset(snapshot []byte, meta cacheMeta) error {
	r.tailMu.Lock()
	defer r.tailMu.Unlock()
	if r.tail != nil {
		r.tail.Close()
		r.tail = nil
	}
	dir := r.opt.CacheDir
	if err := writeFileAtomic(filepath.Join(dir, cacheSnapshotName), snapshot); err != nil {
		return err
	}
	tailPath := filepath.Join(dir, cacheTailName)
	f, err := os.OpenFile(tailPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(StreamMagic)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	metaData, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, cacheMetaName), metaData); err != nil {
		f.Close()
		return err
	}
	r.tail = f
	r.written = meta.Seq
	r.synced.Store(meta.Seq)
	return nil
}

// cacheAppend frames a batch onto the tail log with one write — what a
// SIGKILLed replica finds again at restart — and schedules the sync that a
// power loss would want, unless one is already on its way.
func (r *Replica) cacheAppend(recs []StreamRecord) {
	r.tailMu.Lock()
	defer r.tailMu.Unlock()
	if r.tail == nil {
		return
	}
	frame := r.frame[:0]
	for _, rec := range recs {
		frame = AppendStreamRecord(frame, rec)
	}
	if cap(frame) <= maxKeptFrame {
		r.frame = frame
	}
	if _, err := r.tail.Write(frame); err != nil {
		r.cacheFailedLocked(err)
		return
	}
	r.written = recs[len(recs)-1].Seq
	if !r.syncArmed {
		r.syncArmed = true
		time.AfterFunc(cacheSyncInterval, func() {
			r.tailMu.Lock()
			defer r.tailMu.Unlock()
			r.syncArmed = false
			r.syncTailLocked()
		})
	}
}

func (r *Replica) syncTailLocked() {
	if r.tail == nil {
		return
	}
	if err := r.tail.Sync(); err != nil {
		r.cacheFailedLocked(err)
		return
	}
	r.synced.Store(r.written)
}

// cacheFailedLocked gives the cache up for this run: the replica tails on
// without it, and the next start cuts the log at its last intact record.
func (r *Replica) cacheFailedLocked(err error) {
	r.log.Warn("replica: cache write failed; disabling cache", "err", err)
	r.tail.Close()
	r.tail = nil
}

// bootstrapFromCache seeds the replica from the local checkpoint: decode
// the cached snapshot, replay the intact prefix of the cached tail, and
// leave the tail open for appending. os.ErrNotExist means no cache.
func (r *Replica) bootstrapFromCache() error {
	dir := r.opt.CacheDir
	metaData, err := os.ReadFile(filepath.Join(dir, cacheMetaName))
	if err != nil {
		return err
	}
	var meta cacheMeta
	if err := json.Unmarshal(metaData, &meta); err != nil {
		return fmt.Errorf("replica: cache meta: %w", err)
	}
	snapshot, err := os.ReadFile(filepath.Join(dir, cacheSnapshotName))
	if err != nil {
		return err
	}
	tr, err := seedTracked(snapshot, meta, r.opt.Workers)
	if err != nil {
		return fmt.Errorf("replica: cached snapshot: %w", err)
	}
	tailPath := filepath.Join(dir, cacheTailName)
	tailData, err := os.ReadFile(tailPath)
	if err != nil {
		return err
	}
	// A torn tail is expected after a crash or a power loss (records are
	// synced up to cacheSyncInterval late): keep the intact prefix, which
	// DecodeStream ends at the first frame that fails its CRC.
	recs, _, _ := DecodeStream(tailData)
	r.tr.Store(tr)
	r.epoch = meta.Epoch
	r.bootstraps++
	applied, valid := meta.Seq, int64(len(StreamMagic))
	for _, rec := range recs {
		if rec.Seq != applied+1 {
			break // the CRC does not cover the sequence: out of order is damage too
		}
		if err := r.applyLocked(rec); err != nil {
			return fmt.Errorf("replica: replaying cached record %d: %w", rec.Seq, err)
		}
		applied = rec.Seq
		valid += int64(streamFrameSize + len(rec.Payload))
		r.records++
	}
	r.applied.Store(applied)
	r.head.Store(applied)
	// Cut the log to what was replayed (header included, should even that
	// be damaged) and make it durable before appending after it.
	f, err := os.OpenFile(tailPath, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if err = f.Truncate(valid); err == nil {
		_, err = f.WriteAt([]byte(StreamMagic), 0)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return err
	}
	r.tail = f
	r.written = applied
	r.synced.Store(applied)
	r.caughtUpAt = time.Now()
	r.everCaught = true
	return nil
}

func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
