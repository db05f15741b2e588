// Command frapp-server runs the miner-side FRAPP collection service:
// clients fetch /v1/schema, perturb locally, POST /v1/submit, anyone
// can query /v1/mine for the reconstructed model, and POST /v1/query
// answers interactive filter-count estimates with confidence intervals
// straight from the live counter.
//
// Usage:
//
//	frapp-server [-addr :8080] [-schema census|health]
//	             [-scheme gamma|mask|cutpaste]
//	             [-rho1 0.05] [-rho2 0.50] [-state statedir]
//	             [-checkpoint-every 10000] [-wal-sync always|off]
//	             [-wal-flush 200ms]
//	             [-shards 0] [-mine-workers 2] [-job-ttl 15m]
//	             [-query-limit 1024] [-max-body 8388608]
//	             [-window-buckets 0] [-window-bucket 0]
//	             [-max-collections 32]
//	             [-peers http://site-a:8080,http://site-b:8080]
//	             [-sync-interval 5s]
//	             [-ops-addr 127.0.0.1:9090] [-access-log] [-log-level info]
//
// The server is multi-tenant: the collection above is built from the
// flags as the default spec — the DEFAULT collection, served on the
// classic un-prefixed routes — and further named collections, each
// with its own schema, privacy contract, scheme, counter, mining pool,
// and (with -state) its own WAL+checkpoint directory under
// statedir/tenants/<name>/, are managed at runtime via
// PUT/GET/DELETE /v1/collections/{name} and reached under
// /v1/collections/{name}/v1/... (see docs/multitenancy.md). Named
// collections inherit -query-limit, -max-body, -job-ttl,
// -checkpoint-every, and -wal-flush. -max-collections caps how many
// are live at once. Named collections are recorded in
// statedir/collections.json and rebuilt (WAL recovery included) at
// next start; /readyz stays 503 with a per-collection breakdown until
// every one of them finishes.
//
// -window-buckets/-window-bucket make the DEFAULT collection a sliding
// window: a ring of -window-buckets sub-counters each spanning
// -window-bucket of wall-clock time. Records expire as their bucket
// rotates out (retention = buckets x bucket), and /v1/query plus
// mining jobs accept a `window` parameter answering over only the last
// window of time at unchanged cost. Windowed collections are
// in-memory only: they refuse -state and -peers.
//
// -ops-addr (default off) binds a SEPARATE operational listener serving
// GET /metrics (Prometheus text exposition), GET /healthz, GET /readyz
// (503 until recovery and the initial federation sync finish), and the
// standard net/http/pprof endpoints. It exposes only aggregate
// operational data, but bind it to localhost in production anyway — see
// docs/observability.md for the metric catalog. -access-log emits one
// structured JSON line per API request to stderr at -log-level.
//
// -scheme selects the perturbation scheme the whole stack runs under:
// gamma (default — the paper's optimal gamma-diagonal matrix), mask, or
// cutpaste. The scheme's parameters are derived from the published
// (schema, γ) contract, advertised on GET /v1/schema and /v1/stats, and
// validated by clients at NewClient time; every subsystem (ingestion,
// /v1/query estimation, mining jobs, -state persistence, federation
// deltas) follows the negotiated scheme, and cross-scheme state or
// replication payloads are rejected, never merged.
//
// -shards stripes the ingestion counter so concurrent submissions never
// contend on one lock; 0 (the default) means one shard per core.
// -mine-workers bounds how many mining jobs (async /v1/mine-jobs and
// sync /v1/mine alike) execute concurrently, and -job-ttl controls how
// long finished jobs stay pollable; unchanged collections are served
// from the snapshot-versioned result cache without re-running Apriori.
// -query-limit caps the filters of one /v1/query batch, and -max-body
// caps the request body of every decoding POST endpoint (413 beyond).
//
// POST /v1/submit-batch additionally accepts a compact binary wire
// form (Content-Type application/x-frapp-batch with the scheme
// fingerprint in X-Frapp-Fingerprint) that ingests an order of
// magnitude faster than JSON; batches apply atomically in either form.
// See docs/http-api.md.
//
// With -state, the accumulated (perturbed) counts are durable
// CONTINUOUSLY, not just at shutdown: -state names a directory holding
// compacted checkpoints plus a write-ahead log of counter deltas. A
// background flusher appends batched deltas every -wal-flush (fsynced
// per -wal-sync), a fresh checkpoint is compacted every
// -checkpoint-every records, and after a crash — kill -9 included — the
// server restores the newest checkpoint and replays the WAL tail, so at
// most one flush interval of submissions is at risk instead of
// everything since startup. Checkpoints hold the counter's full delta,
// the same sparse format the WAL logs and /v1/replicate ships. A
// -state path that is a regular file (the single-file format of earlier
// releases) is refused. The state contains only perturbed counts — no
// raw record ever reaches the server in the FRAPP trust model. See
// docs/persistence.md.
//
// With -peers, the server runs as a federation COORDINATOR: it pulls
// versioned counter deltas from the listed collector sites every
// -sync-interval (jittered, with exponential backoff on failures) and
// answers /v1/query, /v1/mine, and /v1/stats from the merged global
// counter, stamped with the per-peer version vector. A coordinator
// refuses direct submissions — records enter at collector sites — and
// refuses -state: its counter is rebuilt from the peers, which own the
// durable state.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		schemaName   = flag.String("schema", "census", "published schema: census or health")
		scheme       = flag.String("scheme", "gamma", "perturbation scheme: gamma, mask, or cutpaste")
		rho1         = flag.Float64("rho1", 0.05, "privacy prior bound rho1")
		rho2         = flag.Float64("rho2", 0.50, "privacy posterior bound rho2")
		state        = flag.String("state", "", "state directory for crash durability (optional; single-file state from earlier releases is refused)")
		ckptEvery    = flag.Int("checkpoint-every", 0, "records between compacted checkpoints (0 = default 10000)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always or off")
		walFlush     = flag.Duration("wal-flush", 0, "WAL flush interval (0 = default 200ms)")
		shards       = flag.Int("shards", 0, "ingestion shards (0 = one per core)")
		workers      = flag.Int("mine-workers", 0, "concurrent mining jobs (0 = default 2)")
		jobTTL       = flag.Duration("job-ttl", 0, "retention of finished mining jobs (0 = default 15m)")
		queryLimit   = flag.Int("query-limit", 0, "max filters per /v1/query batch (0 = default 1024)")
		maxBody      = flag.Int64("max-body", 0, "max request body bytes on POST endpoints, 413 beyond (0 = default 8MiB)")
		winBuckets   = flag.Int("window-buckets", 0, "sliding-window ring buckets for the default collection (0 = unwindowed)")
		winBucket    = flag.Duration("window-bucket", 0, "sliding-window bucket duration (with -window-buckets)")
		maxCols      = flag.Int("max-collections", 0, "max live collections including the default (0 = default 32)")
		peers        = flag.String("peers", "", "comma-separated collector base URLs; run as federation coordinator")
		syncInterval = flag.Duration("sync-interval", 0, "federation pull interval (0 = default 5s)")
		opsAddr      = flag.String("ops-addr", "", "ops listener address for /metrics, /healthz, /readyz, and pprof (empty = off; bind localhost in production)")
		accessLog    = flag.Bool("access-log", false, "emit one structured JSON line per request to stderr")
		logLevel     = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, or error")
	)
	flag.Parse()
	cfg := serverConfig{
		addr: *addr, schema: *schemaName, scheme: *scheme, rho1: *rho1, rho2: *rho2,
		state: *state, checkpointEvery: *ckptEvery, walSync: *walSync, walFlush: *walFlush,
		shards: *shards, mineWorkers: *workers, jobTTL: *jobTTL,
		queryLimit: *queryLimit, maxBody: *maxBody, peers: *peers, syncInterval: *syncInterval,
		windowBuckets: *winBuckets, windowBucket: *winBucket, maxCollections: *maxCols,
		opsAddr: *opsAddr, accessLog: *accessLog, logLevel: *logLevel,
	}
	// The signal context lives in main so run stays testable: tests
	// drive the same graceful-shutdown path by canceling the context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "frapp-server:", err)
		os.Exit(1)
	}
}

// serverConfig carries the flag set into run.
type serverConfig struct {
	addr            string
	schema          string
	scheme          string
	rho1, rho2      float64
	state           string
	checkpointEvery int
	walSync         string
	walFlush        time.Duration
	shards          int
	mineWorkers     int
	jobTTL          time.Duration
	queryLimit      int
	maxBody         int64
	peers           string
	syncInterval    time.Duration
	windowBuckets   int
	windowBucket    time.Duration
	maxCollections  int
	opsAddr         string
	accessLog       bool
	logLevel        string
}

// run serves until ctx is canceled (SIGINT/SIGTERM in production), then
// shuts down gracefully. With -state, durability is continuous — the
// store's WAL flusher runs for the whole serving window — and closing
// the registry compacts a final checkpoint of every collection; crashes
// at any other point recover from the store at next start.
func run(ctx context.Context, cfg serverConfig) error {
	var sc *dataset.Schema
	switch cfg.schema {
	case "census":
		sc = dataset.CensusSchema()
	case "health":
		sc = dataset.HealthSchema()
	default:
		return fmt.Errorf("unknown schema %q", cfg.schema)
	}
	if cfg.peers != "" && cfg.state != "" {
		return errors.New("-state cannot be combined with -peers: a coordinator's counter is rebuilt from its peers, which own the durable state")
	}
	if cfg.state != "" && (cfg.windowBuckets != 0 || cfg.windowBucket != 0) {
		return errors.New("-state cannot be combined with a sliding window: bucket expiry is wall-clock-defined and cannot be replayed")
	}
	syncMode := store.SyncAlways
	switch cfg.walSync {
	case "", "always":
	case "off":
		syncMode = store.SyncOff
	default:
		return fmt.Errorf("bad -wal-sync %q (want always or off)", cfg.walSync)
	}
	// Negative -shards and -mine-workers mean the default, as 0 does.
	spec := registry.CollectionSpec{
		Schema:        &registry.SchemaSpec{Name: sc.Name, Attrs: sc.Attrs},
		Scheme:        cfg.scheme,
		Rho1:          cfg.rho1,
		Rho2:          cfg.rho2,
		Shards:        max(cfg.shards, 0),
		MineWorkers:   max(cfg.mineWorkers, 0),
		WindowBuckets: cfg.windowBuckets,
	}
	if cfg.windowBucket != 0 {
		spec.WindowBucket = cfg.windowBucket.String()
	}
	if cfg.peers != "" {
		spec.Peers = strings.Split(cfg.peers, ",")
		if cfg.syncInterval > 0 {
			spec.SyncInterval = cfg.syncInterval.String()
		}
	}

	// Telemetry is always collected (the instruments are allocation-free
	// on the hot path); -ops-addr controls whether anything serves it.
	// The ops listener is bound BEFORE recovery so /readyz answers 503
	// during a long WAL replay or warm federation sync instead of
	// refusing connections; the registry is published once the default
	// is built, and its Ready covers every named collection's rebuild.
	reg := telemetry.NewRegistry()
	var tenants atomic.Pointer[registry.Registry]
	if cfg.opsAddr != "" {
		ready := func() error {
			if r := tenants.Load(); r != nil {
				return r.Ready()
			}
			return errors.New("default collection: state recovery or initial federation sync in progress")
		}
		ops, err := telemetry.ServeOps(cfg.opsAddr, telemetry.OpsHandler(reg, ready))
		if err != nil {
			return err
		}
		defer ops.Close()
		log.Printf("frapp-server: ops endpoints (metrics, healthz, readyz, pprof) on %s", ops.Addr)
	}
	var accessLogger *telemetry.Logger
	if cfg.accessLog {
		lvl, err := telemetry.ParseLevel(cfg.logLevel)
		if err != nil {
			return err
		}
		accessLogger = telemetry.NewLogger(os.Stderr, lvl)
	}

	// With -state, the default collection's store is statedir itself,
	// named collections' specs live in statedir/collections.json and
	// their stores under statedir/tenants/; recorded ones start
	// rebuilding in the background once the default is up.
	r, err := registry.New(registry.Options{
		BaseDir:        cfg.state,
		MaxCollections: cfg.maxCollections,
		Metrics:        reg,
		SyncMode:       syncMode,
		Default:        &spec,
		ServerOptions: []service.Option{
			service.WithQueryLimit(cfg.queryLimit),
			service.WithMaxBody(cfg.maxBody),
			service.WithJobTTL(cfg.jobTTL),
			service.WithCheckpointEvery(cfg.checkpointEvery),
			service.WithWALFlushInterval(cfg.walFlush),
			service.WithAccessLog(accessLogger),
		},
	})
	if err != nil {
		return err
	}
	// Bind the API port before publishing the registry: /readyz must not
	// answer 200 for a server that is about to die on a taken port.
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return errors.Join(err, r.Close())
	}
	tenants.Store(r)
	// New built the default before returning, so both lookups succeed.
	col, _ := r.Get(registry.DefaultCollection)
	srv, _ := col.Server()
	if len(spec.Peers) > 0 {
		log.Printf("frapp-server: federation coordinator over %d peers", len(spec.Peers))
	}
	log.Printf("frapp-server: schema=%s scheme=%s records=%d shards=%d mine-workers=%d collections=%d listening on %s",
		sc.Name, srv.Scheme(), srv.N(), srv.Shards(), srv.MineWorkers(), len(r.Names()), cfg.addr)

	httpSrv := &http.Server{Addr: cfg.addr, Handler: r.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-errc: // the listener failed
	case <-ctx.Done():
		log.Printf("frapp-server: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("frapp-server: shutdown: %v", err)
		}
	}
	// Closing the registry stops every federation loop and compacts a
	// final checkpoint of every collection, the default included.
	if err := r.Close(); err != nil {
		return errors.Join(serveErr, fmt.Errorf("persisting state: %w", err))
	}
	if serveErr != nil {
		return serveErr
	}
	if cfg.state != "" {
		log.Printf("frapp-server: state checkpointed to %s (%d records)", cfg.state, srv.N())
	}
	return nil
}
