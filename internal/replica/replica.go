package replica

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/persist"
	"cardirect/internal/wal"
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
	// ("on" or "off"). A replica takes the generation, seq and percent
	// mode from the position the snapshot itself records.
	HeaderPct = "Cardirect-Repl-Pct"
	// HeaderStaleness is stamped by replicas on read responses: the number
	// of replication records known to be unapplied (0 = caught up as of the
	// last poll).
	HeaderStaleness = "Cardirect-Staleness"
	// HeaderMinGeneration lets a reader demand freshness: a replica whose
	// store generation is below the value answers 503 replica_lagging.
	HeaderMinGeneration = "Cardirect-Min-Generation"
)

// maxFetchBytes caps one snapshot or wal fetch's body; only tests lower it.
var maxFetchBytes int64 = 256 << 20

// Options configures a Replica.
type Options struct {
	// Primary is the primary's base URL (e.g. http://127.0.0.1:8080).
	Primary string
	// CacheDir, when set, is the replica's persist data directory, so that
	// a restarted replica resumes from its last logged record instead of
	// re-downloading the world. A directory holding a primary's world is
	// refused; one that cannot be read or written is left as it is, and
	// the replica follows in memory.
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
}

// Replica tails a primary's replication stream: it bootstraps a tracked
// store from the primary's binary snapshot (or resumes it from its data
// directory), then applies shipped records through config.Tracked.Apply.
// The tracked store it exposes is swapped wholesale when the primary's
// epoch changes (primary restart) or the tail falls behind the retained
// window.
type Replica struct {
	opt   Options
	log   *slog.Logger
	httpc *http.Client

	// What a served read needs is atomic, so that a read never waits for
	// mu. Only the tail goroutine stores — Open before the replica is
	// shared, Run under mu.
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

	// ps holds the world the tail follows, in CacheDir or in memory. The
	// tail goroutine owns it; Close releases it once Run has returned.
	ps *persist.Store
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

// Open bootstraps a replica: from CacheDir when it holds a replica's
// world, otherwise from the primary's snapshot endpoint (retrying
// briefly); a CacheDir held by another store or holding a primary's world
// is an error. The returned replica serves reads immediately; call Run to
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
		if err := r.resume(); err != nil {
			return nil, err
		}
	}
	// Unless it resumed, a full bootstrap with a short retry loop: the
	// primary may still be coming up next to us.
	for attempt, delay := 0, 100*time.Millisecond; !r.fromCache; attempt, delay = attempt+1, delay*2 {
		err := r.bootstrap(ctx)
		if err == nil {
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

// Status reports the replica's replication position.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Epoch:            r.epoch,
		LastAppliedSeq:   r.applied.Load(),
		HeadSeq:          r.head.Load(),
		LagRecords:       r.Lag(),
		Generation:       r.tr.Load().Store().Generation(),
		BootSeq:          r.bootSeq,
		ResumedFromCache: r.fromCache,
		Bootstraps:       r.bootstraps,
		RecordsApplied:   r.records,
		LastError:        r.lastErr,
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

// Close syncs and closes the data directory's log, once Run has returned;
// the tracked store stays readable.
func (r *Replica) Close() error { return r.ps.Close() }

// Run tails the primary until ctx is done, applying records as they
// arrive. Transport errors back off and retry; an epoch change or a
// trimmed-window response triggers a full re-bootstrap. It returns nil on
// context cancellation and an error only for unrecoverable local failures
// (a latched store divergence).
func (r *Replica) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	// pause notes a failed fetch or bootstrap and backs off before the
	// next try.
	pause := func(err error) {
		if ctx.Err() != nil {
			return
		}
		r.mu.Lock()
		r.lastErr = err.Error()
		r.mu.Unlock()
		r.log.Warn("replica: tail error", "err", err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
		}
		backoff = min(2*backoff, 5*time.Second)
	}
	for ctx.Err() == nil {
		recs, frames, head, epoch, status, err := r.fetchWAL(ctx, r.applied.Load()+1)
		switch {
		case err != nil:
			pause(err)
		case status == http.StatusGone, epoch != r.currentEpoch():
			r.log.Info("replica: re-bootstrapping", "status", status, "epoch", epoch)
			if err := r.bootstrap(ctx); err != nil {
				pause(err)
			}
		default:
			backoff = 100 * time.Millisecond
			if err := r.ingest(recs, frames, head); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *Replica) currentEpoch() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// ingest applies a fetched record batch — frames are the records' stream
// frames back to back — and records how far it got.
func (r *Replica) ingest(recs []StreamRecord, frames []byte, head uint64) error {
	// Keep the contiguous prefix: a gap means the fetch raced a trim; the
	// next poll will 410 and re-bootstrap.
	next, n, size := r.applied.Load()+1, 0, 0
	for n < len(recs) && recs[n].Seq == next+uint64(n) {
		size += len(recs[n].Frame)
		n++
	}
	r.head.Store(head)
	applied, err := r.apply(recs[:n], frames[:size])
	r.mu.Lock()
	defer r.mu.Unlock()
	r.records += applied + 1 - next
	r.applied.Store(applied)
	if err != nil {
		r.lastErr = err.Error()
		r.failed = err
		return err
	}
	if applied == head {
		r.caughtUpAt = time.Now()
		r.everCaught = true
	}
	return nil
}

// apply applies contiguous records through persist.Store.Follow, which
// logs their frames with one write and applies each as one edit like the
// primary's, leaving the store at the primary's generation for it — which
// ETag agreement rides on — and returns the last one applied.
func (r *Replica) apply(recs []StreamRecord, frames []byte) (uint64, error) {
	if len(recs) == 0 {
		return r.applied.Load(), nil
	}
	edits := make([]wal.Record, len(recs))
	for i, rec := range recs {
		edits[i] = wal.Record{Op: wal.OpEdit, Seq: rec.Seq, Gen: rec.Gen, Edits: rec.Edits}
	}
	err := r.ps.Follow(frames, edits)
	return r.ps.Position().Seq, err
}

// bootstrap downloads the primary's snapshot and makes the world it holds,
// at the position it records, the one the replica serves and follows.
func (r *Replica) bootstrap(ctx context.Context) error {
	_, data, err := r.get(ctx, "/v1/replication/snapshot")
	if err != nil {
		return err
	}
	if r.ps != nil {
		r.ps.Close()
	}
	ps, err := r.install(data)
	if err != nil {
		return err
	}
	pos := ps.Position()
	if pos.Epoch == "" {
		ps.Close()
		return fmt.Errorf("replica: the primary's snapshot records no position")
	}
	r.adopt(ps)
	r.log.Info("replica: bootstrapped", "seq", pos.Seq, "generation", pos.Gen, "epoch", pos.Epoch)
	return nil
}

// install puts a snapshot's bytes in place as they came: as the data
// directory's new generation, or in memory without one — or when the
// directory cannot take them, since a replica's data directory is a
// convenience, not a record.
func (r *Replica) install(data []byte) (*persist.Store, error) {
	ps, err := persist.Install(r.opt.CacheDir, data, r.storeOptions())
	if err != nil && r.opt.CacheDir != "" {
		if mem, merr := persist.Install("", data, r.storeOptions()); merr == nil {
			r.log.Error("replica: data directory failed; following in memory", "dir", r.opt.CacheDir, "err", err)
			return mem, nil
		}
	}
	return ps, err
}

// resume recovers the replica from its data directory, where persist.Open
// leaves it at the position the tail goes on from. It refuses one another
// store holds, and one whose world has no position — a primary's, whose
// edits a bootstrap would sweep away. A directory holding no generation, or
// whose log did not replay whole, is bootstrapped over; any other one
// persist cannot open is left as it is, and the replica follows in memory.
func (r *Replica) resume() error {
	ps, err := persist.Open(r.opt.CacheDir, nil, r.storeOptions())
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return nil
	case errors.Is(err, persist.ErrLocked):
		return err
	case err != nil:
		r.log.Error("replica: data directory unreadable; following in memory", "dir", r.opt.CacheDir, "err", err)
		r.opt.CacheDir = ""
		return nil
	}
	pos, st := ps.Position(), ps.Status()
	switch {
	case pos.Epoch == "":
		ps.Close()
		return fmt.Errorf("replica: %s holds a primary's world, not a replica's; give the replica a directory of its own", r.opt.CacheDir)
	case st.SkippedRecords > 0:
		ps.Close()
		r.log.Warn("replica: data directory did not replay whole; bootstrapping over it", "dir", r.opt.CacheDir, "skipped", st.SkippedRecords)
		return nil
	}
	r.adopt(ps)
	r.records = uint64(st.ReplayedRecords)
	r.fromCache = true
	r.log.Info("replica: resumed from its data directory", "seq", pos.Seq, "generation", pos.Gen)
	return nil
}

// storeOptions syncs the log on persist's one-second timer, not per record:
// what a power loss tears off is fetched again. Pct is the snapshot's.
func (r *Replica) storeOptions() persist.Options {
	return persist.Options{Sync: wal.Options{Policy: wal.SyncInterval}, Workers: r.opt.Workers, Logger: r.log}
}

// adopt makes ps's world the one the replica serves and tails on from; the
// one it replaces stays readable for reads in flight.
func (r *Replica) adopt(ps *persist.Store) {
	pos := ps.Position()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ps = ps
	if old := r.tr.Swap(ps.Tracked()); old != nil {
		old.Close()
	}
	r.epoch = pos.Epoch
	r.applied.Store(pos.Seq)
	r.head.Store(pos.Seq)
	r.bootstraps++
	r.caughtUpAt = time.Now()
	r.everCaught = true
}

// fetchWAL asks the primary for records from the given sequence. It
// returns the decoded records and the body's frames they span, the
// primary's head and epoch, and the HTTP status (410 signals a trimmed
// window). A body cut short — at maxFetchBytes, say — still yields its
// intact, CRC-checked prefix; only a body with no intact record is an
// error.
func (r *Replica) fetchWAL(ctx context.Context, from uint64) (recs []StreamRecord, frames []byte, head uint64, epoch string, status int, err error) {
	resp, data, err := r.get(ctx, "/v1/replication/wal?"+url.Values{
		"from": {strconv.FormatUint(from, 10)},
		"wait": {r.opt.PollWait.String()},
		"max":  {strconv.Itoa(r.opt.MaxBatch)},
	}.Encode())
	if err != nil {
		return nil, nil, 0, "", 0, err
	}
	epoch = resp.Header.Get(HeaderEpoch)
	head, _ = strconv.ParseUint(resp.Header.Get(HeaderHead), 10, 64)
	if resp.StatusCode == http.StatusGone {
		return nil, nil, head, epoch, resp.StatusCode, nil
	}
	recs, valid, corr := DecodeStream(data)
	if corr != nil && len(recs) == 0 {
		return nil, nil, 0, "", 0, fmt.Errorf("replica: corrupt stream at %s", corr)
	}
	if len(recs) > 0 {
		frames = data[len(StreamMagic):valid]
	}
	return recs, frames, head, epoch, resp.StatusCode, nil
}

// get fetches path from the primary and reads the body, up to
// maxFetchBytes, of a 200 or a 410; any other status is an error.
func (r *Replica) get(ctx context.Context, path string) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.opt.Primary+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := r.httpc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, nil, fmt.Errorf("replica: GET %s: %s: %s", path, resp.Status, body)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFetchBytes))
	return resp, data, err
}
