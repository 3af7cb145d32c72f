// Command cardirectd serves a CARDIRECT configuration over HTTP/JSON: the
// paper's interactive tool (§4) as a long-running service. It loads an
// annotated image (the XML format of the paper's DTD, or the built-in
// Fig. 11 Greece fixture), builds the relation store and live R-tree
// behind it, and answers pair relations, directional
// selections, conjunctive queries and region edits concurrently — see
// internal/serve for the endpoint surface and API.md for schemas.
//
// Usage:
//
//	cardirectd -greece                        serve the Fig. 11 fixture
//	cardirectd -config hellas.xml             serve an XML document
//	cardirectd -greece -data /var/lib/cardirect   durable: snapshot + WAL
//	cardirectd -data /var/lib/cardirect           recover, no seed needed
//	cardirectd -addr :8080 -request-timeout 30s -workers 8 ...
//
// With -data the service is durable: edits are write-ahead logged before
// they are acknowledged (-fsync picks the discipline), the directory is
// recovered on startup (newest snapshot + WAL tail; -config/-greece only
// seed a directory that holds no snapshot yet), and /v1/admin/snapshot
// rotates the generation. See the Durability section of README.md.
//
// The process is role-aware (-role):
//
//	cardirectd -role primary -greece               accept writes, ship the WAL
//	cardirectd -role replica -follow http://p:8080 \
//	           -replica-data /var/lib/replica      tail the primary, serve reads
//	cardirectd -role router -primary http://p:8080 \
//	           -replicas http://r1:8081,http://r2:8082   fan reads out, route writes
//
// A primary serves GET /v1/replication/{snapshot,wal,status}; replicas
// bootstrap from the snapshot, apply shipped records through
// config.Tracked.Apply (the op switch the primary's edits take), reject
// writes with 421 not_primary, and honor the
// Cardirect-Min-Generation freshness contract. The router forwards writes
// (and replication/admin/debug traffic) to the primary and round-robins
// reads across healthy replicas. See the Scale-out section of README.md.
//
// The process runs until SIGINT/SIGTERM, then shuts down gracefully:
// in-flight requests get -shutdown-timeout to finish, new connections are
// refused, a final snapshot is written when -snapshot-on-exit is set, and
// the exit code is zero only on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cardirect/internal/config"
	"cardirect/internal/core"
	"cardirect/internal/persist"
	"cardirect/internal/replica"
	"cardirect/internal/serve"
	"cardirect/internal/wal"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cardirectd:", err)
		os.Exit(1)
	}
}

// flags holds the value of every command-line flag of cardirectd.
type flags struct {
	addr, role, configPath, pct, dataDir, fsyncPolicy, follow, replicaData *string
	primaryURL, replicaURLs                                                *string
	greece, jsonLogs, snapOnExit                                           *bool
	workers, solveWorkers, maxNetwork, replRetain                          *int
	maxBody, maxBulk                                                       *int64
	requestTimeout, shutdownTimeout, fsyncInterval                         *time.Duration
}

// newFlagSet declares the command's flags; API.md's flag list is tested
// against it (TestFlagsDocumented).
func newFlagSet() (*flag.FlagSet, flags) {
	fs := flag.NewFlagSet("cardirectd", flag.ContinueOnError)
	return fs, flags{
		addr:            fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)"),
		role:            fs.String("role", "primary", "process role: primary, replica or router"),
		configPath:      fs.String("config", "", "CARDIRECT XML configuration to serve"),
		greece:          fs.Bool("greece", false, "serve the built-in Fig. 11 Greece configuration"),
		pct:             fs.String("pct", "on", "percent answers: on or off (on rejects zero-area regions at edit time; off makes pct endpoints answer 422; neither stores anything)"),
		workers:         fs.Int("workers", 0, "worker-pool size for all-pairs reads (0 = GOMAXPROCS)"),
		requestTimeout:  fs.Duration("request-timeout", 30*time.Second, "per-request timeout (0 = none)"),
		maxBody:         fs.Int64("max-body", 1<<20, "request body size limit in bytes"),
		maxBulk:         fs.Int64("max-bulk", 64<<20, "POST /v1/bulk body size limit in bytes (NDJSON streams)"),
		shutdownTimeout: fs.Duration("shutdown-timeout", 10*time.Second, "graceful shutdown drain budget"),
		jsonLogs:        fs.Bool("log-json", false, "emit JSON logs instead of text"),
		dataDir:         fs.String("data", "", "data directory for durable operation (snapshot + write-ahead log)"),
		fsyncPolicy:     fs.String("fsync", "always", "WAL fsync policy with -data: always, interval or never"),
		fsyncInterval:   fs.Duration("fsync-interval", time.Second, "fsync cadence under -fsync interval"),
		snapOnExit:      fs.Bool("snapshot-on-exit", true, "with -data, write a final snapshot during graceful shutdown"),
		solveWorkers:    fs.Int("solve-workers", 0, "parallel consistency-solver fan width for /v1/reason/check (0 = reason default)"),
		maxNetwork:      fs.Int("max-network", 64, "max variables a /v1/reason request may declare (oversized networks get 413)"),
		replRetain:      fs.Int("repl-retain", 0, "replication records the primary retains in memory (0 = 65536); lagging followers re-bootstrap"),
		follow:          fs.String("follow", "", "with -role replica: the primary's base URL to tail"),
		replicaData:     fs.String("replica-data", "", "with -role replica: data directory (snapshot + write-ahead log, as -data keeps) so a restart resumes from the last logged record"),
		primaryURL:      fs.String("primary", "", "with -role router: the primary's base URL (writes go here)"),
		replicaURLs:     fs.String("replicas", "", "with -role router: comma-separated replica base URLs (reads round-robin across healthy ones)"),
	}
}

func run(args []string, stdout *os.File) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}

	var handler slog.Handler
	if *f.jsonLogs {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	pctOn, err := parseOnOff("pct", *f.pct)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *f.role {
	case "router":
		return runRouter(ctx, stdout, logger, *f.addr, *f.primaryURL, *f.replicaURLs, *f.shutdownTimeout)
	case "replica":
		return runReplica(ctx, stdout, logger, f)
	case "", "primary":
		// fall through to the primary path below
	default:
		return fmt.Errorf("unknown -role %q (want primary, replica or router)", *f.role)
	}

	var (
		tr *config.Tracked
		ps *persist.Store
	)
	if *f.dataDir != "" {
		policy, err := wal.ParseSyncPolicy(*f.fsyncPolicy)
		if err != nil {
			return err
		}
		// With a data directory the durable state is the source of truth:
		// -config/-greece only seed a directory holding no snapshot yet,
		// and may be omitted entirely when one does.
		start := time.Now()
		seed, err := loadConfigOptional(*f.configPath, *f.greece)
		if err != nil {
			return err
		}
		seedLoad := time.Since(start)
		ps, err = persist.Open(*f.dataDir, seed, persist.Options{
			Sync:    wal.Options{Policy: policy, Interval: *f.fsyncInterval},
			Workers: *f.workers,
			Pct:     pctOn,
			Logger:  logger,
		})
		if err != nil {
			return err
		}
		defer ps.Close()
		tr = ps.Tracked()
		st := ps.Status()
		attrs := []any{"dir", st.Dir, "seq", st.Seq, "regions", st.Regions,
			"replayed", st.ReplayedRecords,
			"recovery_ms", st.RecoveryNs / 1e6, "fsync", policy.String()}
		if *f.configPath != "" {
			attrs = append(attrs, "seed_load_ms", millis(seedLoad))
		}
		logger.Info("data dir recovered", attrs...)
		if st.Corruption != "" {
			logger.Warn("recovered past a torn WAL tail", "at", st.Corruption)
		}
		if tr.Store().Pct() != pctOn {
			logger.Warn("data dir is a replica's: percent mode is its primary's until an edit of this store's, then -pct's from the next restart", "pct", tr.Store().Pct())
		}
	} else {
		start := time.Now()
		img, err := loadConfig(*f.configPath, *f.greece)
		if err != nil {
			return err
		}
		loaded := time.Now()
		tr, err = config.Track(img, core.StoreOptions{Workers: *f.workers, Pct: pctOn})
		if err != nil {
			return fmt.Errorf("building relation store: %w", err)
		}
		logger.Info("configuration loaded",
			"name", img.Name, "regions", tr.Store().Len(), "pct", pctOn,
			"load_ms", millis(loaded.Sub(start)), "track_ms", millis(time.Since(loaded)))
	}
	defer tr.Close()

	// Every primary is a replication source: edits route through the
	// Primary wrapper (which itself writes through the durable store when
	// one is open, so WAL-before-ack is preserved) and followers tail them
	// from /v1/replication/wal.
	var under replica.Editor = tr
	if ps != nil {
		under = ps
	}
	prim := replica.NewPrimary(tr, under, replica.PrimaryOptions{Retain: *f.replRetain, Pct: tr.Store().Pct()})

	srv := serve.New(tr, serve.Options{
		MaxBodyBytes:   *f.maxBody,
		MaxBulkBytes:   *f.maxBulk,
		RequestTimeout: *f.requestTimeout,
		Logger:         logger,
		Persist:        ps,
		SolveWorkers:   *f.solveWorkers,
		MaxNetwork:     *f.maxNetwork,
		Repl:           prim,
		Editor:         prim,
	})

	if err := serveHTTP(ctx, stdout, logger, *f.addr, srv.Handler(), *f.shutdownTimeout); err != nil {
		return err
	}
	// The listener is drained: no more edits can arrive, so the final
	// snapshot captures everything that was acknowledged.
	if ps != nil && *f.snapOnExit {
		if info, err := ps.Snapshot(); err != nil {
			logger.Warn("final snapshot failed; the WAL still holds every edit", "err", err)
		} else {
			logger.Info("final snapshot written", "seq", info.Seq, "bytes", info.Bytes)
		}
	}
	logger.Info("bye")
	return nil
}

// runReplica resumes from -replica-data or bootstraps from the primary,
// starts the tail loop, and serves reads; writes answer 421 not_primary.
func runReplica(ctx context.Context, stdout *os.File, logger *slog.Logger, f flags) error {
	if *f.follow == "" {
		return fmt.Errorf("-role replica requires -follow <primary-url>")
	}
	rep, err := replica.Open(ctx, replica.Options{
		Primary:  *f.follow,
		CacheDir: *f.replicaData,
		Workers:  *f.workers,
		Logger:   logger,
	})
	if err != nil {
		return fmt.Errorf("bootstrapping replica: %w", err)
	}
	defer rep.Close()
	st := rep.Status()
	logger.Info("replica bootstrapped",
		"primary", *f.follow, "epoch", st.Epoch, "seq", st.LastAppliedSeq,
		"generation", st.Generation, "from_cache", st.ResumedFromCache)

	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		if err := rep.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			logger.Error("replication tail stopped", "err", err)
		}
	}()

	srv := serve.New(rep.Tracked(), serve.Options{
		MaxBodyBytes:   *f.maxBody,
		MaxBulkBytes:   *f.maxBulk,
		RequestTimeout: *f.requestTimeout,
		Logger:         logger,
		SolveWorkers:   *f.solveWorkers,
		MaxNetwork:     *f.maxNetwork,
		Follower:       rep,
	})
	err = serveHTTP(ctx, stdout, logger, *f.addr, srv.Handler(), *f.shutdownTimeout)
	<-tailDone
	if err != nil {
		return err
	}
	logger.Info("bye")
	return nil
}

// runRouter serves the role-aware reverse proxy: writes (and replication,
// admin, debug traffic) to the primary, reads round-robined across healthy
// replicas.
func runRouter(ctx context.Context, stdout *os.File, logger *slog.Logger, addr, primary, replicas string, shutdownTimeout time.Duration) error {
	if primary == "" {
		return fmt.Errorf("-role router requires -primary <url>")
	}
	var urls []string
	for _, u := range strings.Split(replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	rtr, err := replica.NewRouter(replica.RouterOptions{
		Primary:  primary,
		Replicas: urls,
		Logger:   logger,
	})
	if err != nil {
		return err
	}
	defer rtr.Close()
	go rtr.Run(ctx)
	logger.Info("routing", "primary", primary, "replicas", len(urls))
	if err := serveHTTP(ctx, stdout, logger, addr, rtr.Handler(), shutdownTimeout); err != nil {
		return err
	}
	logger.Info("bye")
	return nil
}

// serveHTTP binds addr, announces the resolved address on stdout, serves
// handler until ctx is cancelled (SIGINT/SIGTERM), then drains gracefully
// within shutdownTimeout. It returns only after the listener goroutine has
// fully exited.
func serveHTTP(ctx context.Context, stdout *os.File, logger *slog.Logger, addr string, handler http.Handler, shutdownTimeout time.Duration) error {
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout so callers of "-addr :0" (the
	// smoke test, scripts) can discover the port.
	fmt.Fprintf(stdout, "cardirectd: listening on %s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String())

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down", "drain", shutdownTimeout.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return <-errCh
}

// millis renders a set-up step's duration for the log, in milliseconds to
// the microsecond.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// parseOnOff parses an on/off flag value (true/false accepted for
// compatibility with the flag's earlier boolean form).
func parseOnOff(name, v string) (bool, error) {
	switch strings.ToLower(v) {
	case "on", "true", "1", "yes":
		return true, nil
	case "off", "false", "0", "no":
		return false, nil
	}
	return false, fmt.Errorf("bad -%s value %q (want on or off)", name, v)
}

// loadConfigOptional is loadConfig for durable startup: no flags means no
// seed (nil), because the data directory itself may hold the state.
func loadConfigOptional(path string, greece bool) (*config.Image, error) {
	if path == "" && !greece {
		return nil, nil
	}
	return loadConfig(path, greece)
}

// loadConfig resolves the served document from the flags.
func loadConfig(path string, greece bool) (*config.Image, error) {
	switch {
	case greece && path != "":
		return nil, fmt.Errorf("use -config or -greece, not both")
	case greece:
		return config.Greece(), nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return config.Load(f)
	default:
		return nil, fmt.Errorf("no configuration: pass -config <file> or -greece")
	}
}
