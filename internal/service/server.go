// Package service provides a miner-side collection server and a
// client-side submission library for FRAPP deployments, realizing the
// paper's trust model over HTTP: each client perturbs its own record
// locally (the server publishes the schema and the privacy parameters)
// and submits only the distorted record; the server accumulates
// submissions and answers mining queries with reconstructed supports.
//
// Wire format: records travel as JSON objects mapping attribute names to
// category names, so submissions are human-readable and schema-checked.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// ErrService is returned for invalid service configuration or requests.
var ErrService = errors.New("service: invalid input")

// errNoSubmissions distinguishes "nothing collected yet" (409) from
// malformed requests (400) across the sync and job mining paths.
var errNoSubmissions = fmt.Errorf("%w: no submissions yet", ErrService)

// Server is the miner-side endpoint. It never sees unperturbed data: it
// ingests whatever (already-perturbed) records clients submit into an
// incrementally materialized, lock-striped counter and answers mining
// queries through the published matrix without ever rescanning
// submissions. Concurrent submit handlers land on different counter
// shards, so ingestion scales with cores instead of serializing on one
// mutex.
//
// Mining is asynchronous: requests become jobs executed by a bounded
// worker pool over snapshot-versioned results, so heavy miner traffic is
// throttled to -mine-workers concurrent Apriori runs and repeated mines
// of an unchanged collection are served from cache (see jobs.go). The
// synchronous /v1/mine endpoint is a thin submit-and-await wrapper over
// the same pool.
type Server struct {
	schema *dataset.Schema
	spec   core.PrivacySpec
	gamma  float64
	// scheme is the negotiated perturbation contract this server counts
	// under — gamma (default), mask, or cutpaste. Every layer below
	// (counter, query estimates, mining cache keys, persistence,
	// federation fingerprints) flows from this one value, and it is
	// advertised on /v1/schema and /v1/stats so clients can validate it.
	scheme mining.CounterScheme
	// matrix is the gamma-diagonal matrix; set only when scheme is
	// gamma (the boolean schemes publish their own parameters).
	matrix core.UniformMatrix
	// counter is swapped wholesale by ReplaceCounter while submit and
	// mining handlers read it concurrently, hence the atomic pointer.
	// The counter travels together with its cache generation so a
	// mining worker always sees a consistent (counter, generation) pair
	// — read separately, a worker could pair the NEW counter with the
	// OLD generation (or vice versa) around a restore and serve or
	// store a cache entry from the wrong counter's version line.
	counter atomic.Pointer[counterRef]
	jobs    *jobStore
	// queryLimit caps the filters of one /v1/query batch (see query.go).
	queryLimit int
	// maxBody caps the request body of every JSON/binary POST endpoint
	// via http.MaxBytesReader; oversized submissions answer 413.
	maxBody int64
	// fed, when set, marks this server as a federation coordinator (see
	// replicate.go): its counter is the merged global view published by
	// the sync loop, and direct submissions are refused. Atomic because
	// EnableFederation may legally race in-flight request handlers.
	fed atomic.Pointer[federation.Coordinator]
	// store, when set, is the durable persistence backend (see store.go):
	// the counter was recovered from it at construction, a background
	// flusher appends deltas to its WAL, and checkpointEvery records
	// trigger compaction. storeMu serializes all store I/O (the flusher
	// loop and explicit FlushWAL/CheckpointNow calls).
	store           store.StateStore
	storeMu         sync.Mutex
	checkpointEvery int
	persistStop     chan struct{}
	persistDone     chan struct{}
	closeOnce       sync.Once
	// windowed marks a sliding-window collection (WithWindow): its
	// counter implements mining.WindowView, serves `window` query/mine
	// parameters, and refuses durability and federation (expiry is
	// wall-clock-defined and cannot be replayed or replicated).
	windowed bool
	// start is when NewServer ran — the anchor for /v1/stats uptime and
	// the uptime gauge.
	start time.Time
	// met, when set (WithTelemetry), holds the operational instruments
	// and the middleware that records them; see telemetry.go.
	met *serverMetrics
}

// counterRef pairs a counter with the cache generation it belongs to
// and — on a federation coordinator — the per-peer version vector the
// counter reflects. The three travel as one atomic unit so a response
// can never stamp a counter with another counter's provenance.
type counterRef struct {
	counter mining.LiveCounter
	gen     uint64
	vector  map[string]uint64
}

// Option configures a Server.
type Option func(*serverConfig)

type serverConfig struct {
	scheme          string
	shards          int
	mineWorkers     int
	jobTTL          time.Duration
	queryLimit      int
	maxBody         int64
	store           store.StateStore
	checkpointEvery int
	walFlush        time.Duration
	metrics         *telemetry.Registry
	accessLog       *telemetry.Logger
	collection      string
	windowBuckets   int
	windowBucket    time.Duration
}

// WithScheme selects the perturbation scheme the server counts under:
// "gamma" (the default and the paper's recommended scheme — the
// gamma-diagonal matrix minimizes the reconstruction condition number
// under the privacy bound), "mask", or "cutpaste". The scheme's
// parameters are derived from the published (schema, γ) contract, so
// clients can re-derive and verify them locally.
func WithScheme(name string) Option {
	return func(c *serverConfig) { c.scheme = name }
}

// WithShards sets the ingestion shard count. Values <= 0 (and the
// default) mean runtime.GOMAXPROCS(0) — one stripe per core.
func WithShards(n int) Option {
	return func(c *serverConfig) { c.shards = n }
}

// WithWindow makes the server's collection a sliding window: records
// expire after buckets × bucket of wall-clock time, maintained as a
// ring of time-bucketed sub-counters (see mining.WindowedCounter), and
// /v1/query and mining jobs accept a `window` duration parameter
// restricting the answer to the newest whole buckets. A windowed
// collection is in-memory only — it cannot combine with WithStore,
// ReplaceCounter, or federation, because bucket expiry is wall-clock-defined
// and cannot be replayed or replicated.
func WithWindow(buckets int, bucket time.Duration) Option {
	return func(c *serverConfig) {
		c.windowBuckets = buckets
		c.windowBucket = bucket
	}
}

// defaultMaxBody is the default request-body cap: generous for real
// batches (a 10k-record binary batch over a wide schema is well under
// 1 MiB) while bounding what one request can make the server buffer.
const defaultMaxBody = 8 << 20

// WithMaxBody caps the request body size in bytes for every POST
// endpoint that decodes one (/v1/submit, /v1/submit-batch, /v1/query,
// /v1/mine-jobs). Oversized requests answer 413. Values <= 0 (and the
// default) mean 8 MiB.
func WithMaxBody(n int64) Option {
	return func(c *serverConfig) { c.maxBody = n }
}

// WithMineWorkers bounds the number of concurrently executing mining
// jobs. Values <= 0 (and the default) mean 2: mining is the most
// expensive operation in the system, and the worker pool is what keeps
// a burst of miners from starving ingestion of cores.
func WithMineWorkers(n int) Option {
	return func(c *serverConfig) { c.mineWorkers = n }
}

// WithJobTTL sets how long finished mining jobs remain pollable before
// eviction. Values <= 0 (and the default) mean 15 minutes.
func WithJobTTL(d time.Duration) Option {
	return func(c *serverConfig) { c.jobTTL = d }
}

// NewServer configures a server for one schema and privacy contract and
// starts its mining worker pool. Call Close when done with the server.
func NewServer(schema *dataset.Schema, spec core.PrivacySpec, opts ...Option) (*Server, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrService)
	}
	var cfg serverConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	gamma, err := spec.Gamma()
	if err != nil {
		return nil, err
	}
	scheme, err := mining.SchemeForContract(cfg.scheme, schema, gamma)
	if err != nil {
		return nil, err
	}
	var met *serverMetrics
	if cfg.metrics != nil {
		met = newServerMetrics(cfg.metrics, cfg.accessLog, cfg.collection)
	}
	windowed := cfg.windowBuckets != 0 || cfg.windowBucket != 0
	if windowed && cfg.store != nil {
		return nil, fmt.Errorf("%w: a windowed collection cannot be store-backed (bucket expiry is wall-clock-defined and cannot be replayed)", ErrService)
	}
	// A store-backed server starts from its durable state — newest
	// checkpoint plus replayed WAL tail — instead of empty, and the
	// recovered counter carries its pre-crash replication identity so
	// federation pullers resume incrementally. A windowed server instead
	// builds the in-memory bucket ring.
	var counter mining.LiveCounter
	if windowed {
		counter, err = mining.NewWindowedCounter(scheme, cfg.shards, cfg.windowBuckets, cfg.windowBucket)
		if err != nil {
			return nil, err
		}
	} else if cfg.store != nil {
		// The observer must be installed before Recover so the recovery
		// outcome itself is observed. The store interface stays
		// observer-free; any store that can report is duck-typed here.
		if met != nil {
			if o, ok := cfg.store.(interface{ SetObserver(store.Observer) }); ok {
				o.SetObserver(&met.storeObs)
			}
		}
		recovered, err := cfg.store.Recover(scheme, cfg.shards)
		if err != nil {
			return nil, fmt.Errorf("recovering durable state: %w", err)
		}
		if recovered != nil {
			counter = recovered
		}
	}
	if counter == nil {
		counter, err = mining.NewShardedCounter(scheme, cfg.shards)
		if err != nil {
			return nil, err
		}
	}
	if cfg.store != nil {
		if err := cfg.store.Attach(counter.(*mining.ShardedCounter)); err != nil {
			return nil, fmt.Errorf("attaching durable store: %w", err)
		}
	}
	if cfg.queryLimit <= 0 {
		cfg.queryLimit = defaultQueryLimit
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = defaultMaxBody
	}
	s := &Server{schema: schema, spec: spec, gamma: gamma, scheme: scheme, queryLimit: cfg.queryLimit, maxBody: cfg.maxBody, windowed: windowed, start: time.Now(), met: met}
	if g, ok := scheme.(*mining.GammaScheme); ok {
		s.matrix = g.Matrix()
	}
	met.observeCounter(counter)
	s.counter.Store(&counterRef{counter: counter})
	s.jobs = newJobStore(cfg.mineWorkers, cfg.jobTTL, s.executeMine)
	if met != nil {
		s.jobs.setMetrics(&met.jobs)
		met.wireServer(s)
	}
	if cfg.store != nil {
		s.store = cfg.store
		s.checkpointEvery = cfg.checkpointEvery
		if s.checkpointEvery <= 0 {
			s.checkpointEvery = defaultCheckpointEvery
		}
		if cfg.walFlush <= 0 {
			cfg.walFlush = defaultWALFlushInterval
		}
		s.persistStop = make(chan struct{})
		s.persistDone = make(chan struct{})
		go s.persistLoop(cfg.walFlush)
	}
	return s, nil
}

// Close stops the mining worker pool, failing any still-queued jobs. On
// a store-backed server it also stops the flusher, appends the pending
// WAL tail (best-effort — call FlushWAL or CheckpointNow first for
// error visibility), and closes the store. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.store != nil {
			close(s.persistStop)
			<-s.persistDone
			s.storeMu.Lock()
			_ = s.store.Append()
			_ = s.store.Close()
			s.storeMu.Unlock()
		}
		s.jobs.close()
	})
}

// ctr returns the live counter.
func (s *Server) ctr() mining.LiveCounter { return s.counter.Load().counter }

// Scheme returns the name of the server's perturbation scheme.
func (s *Server) Scheme() string { return s.scheme.Name() }

// CounterScheme returns the server's full scheme contract — what a
// federation coordinator over this server's sites must be built with so
// its compatibility fingerprint can never drift from the server's own.
func (s *Server) CounterScheme() mining.CounterScheme { return s.scheme }

// Windowed reports whether this server's collection is a sliding
// window (WithWindow).
func (s *Server) Windowed() bool { return s.windowed }

// WindowSpec returns the sliding-window ring geometry — (0, 0) on an
// unwindowed server.
func (s *Server) WindowSpec() (buckets int, bucket time.Duration) {
	if wv, ok := s.ctr().(mining.WindowView); ok {
		return wv.WindowSpec()
	}
	return 0, 0
}

// N returns the number of submissions received so far.
func (s *Server) N() int { return s.ctr().N() }

// Shards returns the ingestion shard count.
func (s *Server) Shards() int { return s.ctr().Shards() }

// SnapshotVersion returns the counter's current snapshot version.
func (s *Server) SnapshotVersion() uint64 { return s.ctr().Version() }

// CounterGeneration returns the live counter's generation: 0 at start,
// bumped by every ReplaceCounter swap. A swap replaces the counter
// object and RESTARTS its version line (at the new counter's count), so two
// equal snapshot versions only imply equal counter content within one
// generation — which is why the generation travels in /v1/stats and
// /v1/query responses alongside the version.
func (s *Server) CounterGeneration() uint64 { return s.counter.Load().gen }

// MineWorkers returns the size of the mining worker pool.
func (s *Server) MineWorkers() int { return s.jobs.workers }

// AprioriRuns returns how many times a mining job actually executed
// Apriori (i.e. cache misses) — the observable the cache-correctness
// tests assert on.
func (s *Server) AprioriRuns() int64 { return s.jobs.runs.Load() }

// Handler returns the HTTP API. With telemetry enabled every route is
// wrapped in the RED-metrics/access-log middleware at construction, so
// the route label is always the registered pattern — never the raw URL.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		if s.met != nil {
			h = s.met.wrap(pattern, h)
		}
		mux.HandleFunc(pattern, h)
	}
	handle("GET /v1/schema", s.handleSchema)
	handle("POST /v1/submit", s.handleSubmit)
	handle("POST /v1/submit-batch", s.handleSubmitBatch)
	handle("GET /v1/stats", s.handleStats)
	handle("GET /v1/mine", s.handleMine)
	handle("POST /v1/query", s.handleQuery)
	handle("POST /v1/mine-jobs", s.handleSubmitJob)
	handle("GET /v1/mine-jobs", s.handleListJobs)
	handle("GET /v1/mine-jobs/{id}", s.handleGetJob)
	handle("GET /v1/replicate", s.handleReplicate)
	return mux
}

// SchemaResponse is the published contract clients need to perturb
// locally: the full schema, the privacy parameters, and the active
// perturbation scheme with its derived parameters. Clients re-derive
// the scheme from (schema, γ) and verify the advertised parameters
// satisfy the privacy contract before submitting anything.
type SchemaResponse struct {
	Name       string          `json:"name"`
	Attributes []AttributeJSON `json:"attributes"`
	Privacy    PrivacyJSON     `json:"privacy"`
	Scheme     SchemeJSON      `json:"scheme"`
}

// SchemeJSON advertises the active perturbation scheme. An absent or
// empty name (responses from pre-scheme servers) means gamma.
type SchemeJSON struct {
	Name string `json:"name"`
	// MaskP is MASK's bit-retention probability (scheme "mask" only).
	MaskP float64 `json:"mask_p,omitempty"`
	// CutK and CutRho are the cut-and-paste operator parameters (scheme
	// "cutpaste" only).
	CutK   int     `json:"cut_k,omitempty"`
	CutRho float64 `json:"cut_rho,omitempty"`
}

// AttributeJSON is one attribute of the published schema.
type AttributeJSON struct {
	Name       string   `json:"name"`
	Categories []string `json:"categories"`
}

// PrivacyJSON carries the privacy contract.
type PrivacyJSON struct {
	Rho1  float64 `json:"rho1"`
	Rho2  float64 `json:"rho2"`
	Gamma float64 `json:"gamma"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	resp := SchemaResponse{
		Name:    s.schema.Name,
		Privacy: PrivacyJSON{Rho1: s.spec.Rho1, Rho2: s.spec.Rho2, Gamma: s.gamma},
		Scheme:  s.schemeJSON(),
	}
	for _, a := range s.schema.Attrs {
		resp.Attributes = append(resp.Attributes, AttributeJSON{Name: a.Name, Categories: a.Categories})
	}
	writeJSON(w, http.StatusOK, resp)
}

// schemeJSON renders the active scheme contract for the wire.
func (s *Server) schemeJSON() SchemeJSON {
	out := SchemeJSON{Name: s.scheme.Name()}
	switch sc := s.scheme.(type) {
	case *mining.MaskCounterScheme:
		out.MaskP = sc.Mask().P
	case *mining.CutPasteCounterScheme:
		out.CutK = sc.CutPaste().K
		out.CutRho = sc.CutPaste().Rho
	}
	return out
}

// RecordJSON is the wire form of one gamma-perturbed record: attribute
// name → category. The gamma scheme perturbs within the categorical
// domain, so every submission is a complete record.
type RecordJSON map[string]string

// BoolRecordJSON is the wire form of one boolean-perturbed record (MASK
// and cut-and-paste): attribute name → list of asserted categories. A
// perturbed boolean record may assert zero, one, or several categories
// per attribute, and attributes may be absent entirely.
type BoolRecordJSON map[string][]string

// decodeRecord validates and converts a wire record.
func (s *Server) decodeRecord(rj RecordJSON) (dataset.Record, error) {
	if len(rj) != s.schema.M() {
		return nil, fmt.Errorf("%w: record has %d attributes, schema has %d", ErrService, len(rj), s.schema.M())
	}
	rec := make(dataset.Record, s.schema.M())
	for j, a := range s.schema.Attrs {
		cat, ok := rj[a.Name]
		if !ok {
			return nil, fmt.Errorf("%w: missing attribute %q", ErrService, a.Name)
		}
		v := a.CategoryIndex(cat)
		if v < 0 {
			return nil, fmt.Errorf("%w: unknown category %q for attribute %q", ErrService, cat, a.Name)
		}
		rec[j] = v
	}
	return rec, nil
}

// decodeSubmission converts one wire submission into an ingest closure
// per the active scheme: gamma submissions are complete records
// (RecordJSON) fed through the counter's record path — one validation
// in decodeRecord, one in Add, no intermediate item list — and boolean
// submissions are item sets (BoolRecordJSON) fed through Ingest.
func (s *Server) decodeSubmission(raw json.RawMessage) (func(mining.LiveCounter) error, error) {
	if s.scheme.Name() == mining.SchemeGamma {
		var rj RecordJSON
		if err := json.Unmarshal(raw, &rj); err != nil {
			return nil, fmt.Errorf("%w: bad JSON: %v", ErrService, err)
		}
		rec, err := s.decodeRecord(rj)
		if err != nil {
			return nil, err
		}
		return func(c mining.LiveCounter) error { return c.Add(rec) }, nil
	}
	items, err := s.decodeBoolSubmission(raw)
	if err != nil {
		return nil, err
	}
	return func(c mining.LiveCounter) error { return c.Ingest(items) }, nil
}

// walkAttrObject parses a JSON object keyed by attribute names token by
// token — encoding/json would silently keep only the last of two
// duplicate keys, and both decoders built on this (query filters and
// boolean submissions) must reject that collapse, not rewrite the
// request. visit is called once per entry with the resolved attribute
// index and the decoder positioned at the entry's value.
func (s *Server) walkAttrObject(raw json.RawMessage, kind string, visit func(attr int, name string, dec *json.Decoder) error) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("%w: bad %s JSON: %v", ErrService, kind, err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("%w: %s must be an object keyed by attribute names", ErrService, kind)
	}
	seen := make(map[int]bool)
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return fmt.Errorf("%w: bad %s JSON: %v", ErrService, kind, err)
		}
		name := keyTok.(string) // object keys are always strings
		j := s.attrIndex(name)
		if j < 0 {
			return fmt.Errorf("%w: unknown attribute %q", ErrService, name)
		}
		if seen[j] {
			return fmt.Errorf("%w: duplicate attribute %q in %s", ErrService, name, kind)
		}
		seen[j] = true
		if err := visit(j, name, dec); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil { // consume the closing '}'
		return fmt.Errorf("%w: bad %s JSON: %v", ErrService, kind, err)
	}
	return nil
}

// decodeBoolSubmission parses one boolean-scheme wire record through
// the duplicate-rejecting attribute walk: on the WRITE path a silently
// dropped category list corrupts the counts permanently, so a
// duplicate attribute is a 400, never a truncated ingest.
func (s *Server) decodeBoolSubmission(raw json.RawMessage) ([]mining.Item, error) {
	var items []mining.Item
	err := s.walkAttrObject(raw, "submission", func(j int, name string, dec *json.Decoder) error {
		var cats []string
		if err := dec.Decode(&cats); err != nil {
			return fmt.Errorf("%w: attribute %q must carry a category list: %v", ErrService, name, err)
		}
		seenVal := make(map[int]bool, len(cats))
		for _, cat := range cats {
			v := s.schema.Attrs[j].CategoryIndex(cat)
			if v < 0 {
				return fmt.Errorf("%w: unknown category %q for attribute %q", ErrService, cat, name)
			}
			if seenVal[v] {
				return fmt.Errorf("%w: duplicate category %q for attribute %q", ErrService, cat, name)
			}
			seenVal[v] = true
			items = append(items, mining.Item{Attr: j, Value: v})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return items, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Federated() {
		httpError(w, http.StatusForbidden, errFederated)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var raw json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&raw); err != nil {
		httpBodyError(w, err, "bad JSON")
		return
	}
	ingest, err := s.decodeSubmission(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := ingest(s.ctr()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// handleSubmitBatch ingests a batch of perturbed records atomically —
// all records or none, whichever wire form. Both paths decode the
// whole batch into item lists and hand them to the counter's
// IngestBatch, which validates every record before touching any shard:
// the atomicity guarantee is the counter's, not handler bookkeeping,
// so a record the decoder accepts but the counter rejects can no
// longer leave earlier records of the batch applied.
func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	if s.Federated() {
		httpError(w, http.StatusForbidden, errFederated)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if mediaType(r.Header.Get("Content-Type")) == BatchContentTypeBinary {
		s.handleSubmitBatchBinary(w, r)
		return
	}
	var batch []json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		httpBodyError(w, err, "bad JSON")
		return
	}
	records := make([][]mining.Item, len(batch))
	for i, raw := range batch {
		items, err := s.decodeSubmissionItems(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("record %d: %w", i, err))
			return
		}
		records[i] = items
	}
	if err := s.ctr().IngestBatch(records); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// handleSubmitBatchBinary is the binary fast path: fingerprint check,
// pooled zero-copy decode, one IngestBatch. The fingerprint header is
// mandatory here (unlike JSON, whose category names are self-checking
// against the schema): binary records are bare indexes, and indexes
// perturbed under a different contract would count silently wrong.
func (s *Server) handleSubmitBatchBinary(w http.ResponseWriter, r *http.Request) {
	fp := r.Header.Get(FingerprintHeader)
	if fp == "" {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: binary batch without %s header", ErrService, FingerprintHeader))
		return
	}
	if want := s.scheme.Fingerprint(); fp != want {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("%w: scheme fingerprint %q does not match the server contract %q", ErrService, fp, want))
		return
	}
	scratch := batchPool.Get().(*batchScratch)
	defer scratch.release()
	records, err := scratch.decode(r.Body)
	if err != nil {
		httpBodyError(w, err, "bad binary batch")
		return
	}
	if err := s.ctr().IngestBatch(records); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"records": s.N()})
}

// decodeSubmissionItems converts one JSON wire submission into the
// item list IngestBatch consumes: gamma submissions (complete records)
// become one item per attribute, boolean submissions decode through
// the duplicate-rejecting attribute walk.
func (s *Server) decodeSubmissionItems(raw json.RawMessage) ([]mining.Item, error) {
	if s.scheme.Name() == mining.SchemeGamma {
		var rj RecordJSON
		if err := json.Unmarshal(raw, &rj); err != nil {
			return nil, fmt.Errorf("%w: bad JSON: %v", ErrService, err)
		}
		rec, err := s.decodeRecord(rj)
		if err != nil {
			return nil, err
		}
		items := make([]mining.Item, len(rec))
		for j, v := range rec {
			items[j] = mining.Item{Attr: j, Value: v}
		}
		return items, nil
	}
	return s.decodeBoolSubmission(raw)
}

// StatsResponse summarizes the collection state.
type StatsResponse struct {
	Records int     `json:"records"`
	Gamma   float64 `json:"gamma"`
	// Scheme is the active perturbation scheme (empty responses from
	// pre-scheme servers mean gamma); ConditionNumber is that scheme's
	// full-record reconstruction condition number — the paper's accuracy
	// figure of merit, directly comparable across schemes.
	Scheme          string  `json:"scheme"`
	ConditionNumber float64 `json:"condition_number"`
	DomainSize      int     `json:"domain_size"`
	Shards          int     `json:"shards"`
	// SnapshotVersion is the counter's current content version — mining
	// and query results stamped with the same version AND the same
	// counter generation are exact for this state.
	SnapshotVersion uint64 `json:"snapshot_version"`
	// CounterGeneration counts counter swaps; a swap restarts the
	// version line, so version comparisons are only meaningful within
	// one generation.
	CounterGeneration uint64 `json:"counter_generation"`
	// MineWorkers and MineRuns describe the mining pool: pool size and
	// the number of Apriori executions so far (cache hits excluded).
	MineWorkers int   `json:"mine_workers"`
	MineRuns    int64 `json:"mine_runs"`
	// UptimeSeconds is how long this server instance has been up;
	// StartTime is when it was constructed (RFC 3339). Together they let
	// a poller distinguish a restart (start time moved) from a counter
	// reset.
	UptimeSeconds float64   `json:"uptime_seconds"`
	StartTime     time.Time `json:"start_time"`
	// Federation, present only on a federation coordinator, carries the
	// per-peer health table and the version vector of the published
	// global counter (see replicate.go).
	Federation *federation.Stats `json:"federation,omitempty"`
}

// conditionNumber reports the active scheme's full-record (length-M)
// reconstruction condition number, the quantity the paper compares
// schemes by: the gamma-diagonal matrix's closed-form condition number,
// MASK's (2p−1)^(−M), or the 1-norm condition of C&P's order-(M+1)
// partial-support matrix.
func (s *Server) conditionNumber() float64 {
	switch sc := s.scheme.(type) {
	case *mining.MaskCounterScheme:
		return sc.Mask().Cond(s.schema.M())
	case *mining.CutPasteCounterScheme:
		c, err := sc.CutPaste().Cond(s.schema.M())
		if err != nil {
			return math.Inf(1)
		}
		return c
	default:
		return s.matrix.Cond()
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One load yields a consistent (counter, generation) pair even if a
	// counter swap lands mid-request. The version is read BEFORE the
	// record count (Add bumps the count before the version), so the
	// records >= snapshot_version relation of the query path holds here
	// too under concurrent ingestion.
	ref := s.counter.Load()
	version := ref.counter.Version()
	resp := StatsResponse{
		Records:           ref.counter.N(),
		Gamma:             s.gamma,
		Scheme:            s.scheme.Name(),
		ConditionNumber:   s.conditionNumber(),
		DomainSize:        s.schema.DomainSize(),
		Shards:            ref.counter.Shards(),
		SnapshotVersion:   version,
		CounterGeneration: ref.gen,
		MineWorkers:       s.MineWorkers(),
		MineRuns:          s.AprioriRuns(),
		UptimeSeconds:     time.Since(s.start).Seconds(),
		StartTime:         s.start.UTC(),
	}
	if fed := s.fed.Load(); fed != nil {
		resp.Federation = fed.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// MineResponse is the reconstructed mining model.
type MineResponse struct {
	Records    int     `json:"records"`
	MinSupport float64 `json:"min_support"`
	// SnapshotVersion is the counter version this model is exact for;
	// Cached reports that the frequent itemsets came from the
	// version-keyed result cache rather than a fresh Apriori run.
	SnapshotVersion uint64 `json:"snapshot_version"`
	Cached          bool   `json:"cached,omitempty"`
	// Window echoes the request's window restriction on a windowed
	// collection: the model was mined from only the records of the last
	// Window, rounded up to whole ring buckets. Absent on full mines.
	Window string `json:"window,omitempty"`
	// VersionVector, present only on a federation coordinator, maps peer
	// URL → replication position: exactly which per-site states the
	// merged counter this model was mined from reflects.
	VersionVector map[string]uint64 `json:"version_vector,omitempty"`
	Counts        []int             `json:"counts_by_length"`
	Itemsets      []ItemsetJSON     `json:"itemsets"`
	Rules         []RuleJSON        `json:"rules,omitempty"`
}

// ItemsetJSON is one frequent itemset on the wire.
type ItemsetJSON struct {
	Items   map[string]string `json:"items"`
	Support float64           `json:"support"`
}

// RuleJSON is one association rule on the wire.
type RuleJSON struct {
	Antecedent map[string]string `json:"antecedent"`
	Consequent map[string]string `json:"consequent"`
	Support    float64           `json:"support"`
	Confidence float64           `json:"confidence"`
}

// mineParamsFromQuery parses the synchronous endpoint's query string.
func mineParamsFromQuery(r *http.Request) (MineParams, error) {
	var p MineParams
	var err error
	if p.MinSupport, err = queryFloat(r, "minsup", defaultMinSupport); err != nil {
		return p, err
	}
	if p.MinConf, err = queryFloat(r, "minconf", 0); err != nil {
		return p, err
	}
	if p.Limit, err = queryInt(r, "limit", defaultMineLimit); err != nil {
		return p, err
	}
	if p.MaxLen, err = queryInt(r, "maxlen", 0); err != nil {
		return p, err
	}
	p.Window = r.URL.Query().Get("window")
	// Defaults were applied for ABSENT parameters only (above), so an
	// explicit minsup=0 is rejected and an explicit limit=0 still means
	// "no itemsets in the response" — the endpoint's pre-job semantics.
	return p, p.validate()
}

// handleMine is the synchronous mining endpoint, kept as a thin wrapper
// that submits a job and awaits it: synchronous miners share the bounded
// worker pool (and the result cache) with asynchronous ones, so a burst
// of /v1/mine traffic can no longer monopolize the machine.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	p, err := mineParamsFromQuery(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.N() == 0 {
		httpError(w, http.StatusConflict, errNoSubmissions)
		return
	}
	j, err := s.jobs.submit(p)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	if err := j.await(r.Context()); err != nil {
		// Client went away; the job still completes and stays pollable.
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("%w: canceled while awaiting job %s", ErrService, j.id))
		return
	}
	resp, out := s.jobs.snapshot(j)
	switch resp.State {
	case JobDone:
		writeJSON(w, http.StatusOK, s.renderMine(j.params, out))
	default:
		status := http.StatusBadRequest
		switch {
		case errors.Is(j.err, errNoSubmissions):
			status = http.StatusConflict
		case errors.Is(j.err, errServerClosed):
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, j.err)
	}
}

// handleSubmitJob enqueues an asynchronous mining job. The body is an
// optional JSON MineParams object; an empty body means defaults.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var p MineParams
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&p); err != nil && !errors.Is(err, io.EOF) {
		httpBodyError(w, err, "bad JSON")
		return
	}
	// In the JSON API an absent field decodes to zero, so zero values
	// mean defaults here (documented in docs/http-api.md).
	p.applyDefaults()
	if err := p.validate(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.jobs.submit(p)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	resp, _ := s.jobs.snapshot(j)
	writeJSON(w, http.StatusAccepted, resp)
}

// handleGetJob reports one job, including its result when done. Unknown
// and TTL-evicted ids both return 404 — an evicted job is
// indistinguishable from one that never existed.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("%w: unknown job %q", ErrService, r.PathValue("id")))
		return
	}
	resp, out := s.jobs.snapshot(j)
	if out != nil {
		resp.Result = s.renderMine(j.params, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleListJobs reports all retained jobs in submission order, without
// result payloads (poll the individual job for those).
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]JobResponse, 0, len(jobs))
	for _, j := range jobs {
		resp, _ := s.jobs.snapshot(j)
		out = append(out, resp)
	}
	writeJSON(w, http.StatusOK, out)
}

// executeMine runs one mining request on a worker: serve from the
// snapshot-versioned cache when the counter hasn't changed since an
// identical computation, otherwise snapshot, run Apriori, and cache the
// result under the snapshot's version. Returns the outcome the job
// retains: the result, its rules, the version it is exact for, and
// whether it was a cache hit.
func (s *Server) executeMine(p MineParams) (*mineOutcome, error) {
	// One atomic load yields a consistent (counter, generation) pair;
	// ReplaceCounter clears the cache and bumps the generation BEFORE
	// publishing the new pair, so a worker still holding the old pair
	// can only touch old-generation cache keys — its results linearize
	// before the swap and can never poison the new counter's version
	// line (which restarts at the new counter's count and would
	// otherwise collide with the old counter's cached versions).
	ref := s.counter.Load()
	counter, gen := ref.counter, ref.gen
	// A window restriction is only meaningful on a windowed collection.
	// The parsed duration (not the request spelling) keys the cache, so
	// "60m" and "1h" share one entry; a windowed counter bumps its
	// version on every ring rotation, so equal (generation, version)
	// implies the same bucket union for every window and the cache
	// discipline below carries over unchanged.
	window, err := p.windowDuration()
	if err != nil {
		return nil, err
	}
	var wv mining.WindowView
	if window > 0 {
		var ok bool
		if wv, ok = counter.(mining.WindowView); !ok {
			return nil, fmt.Errorf("%w: collection is not windowed; mine without the window parameter", ErrService)
		}
	}
	key := mineKey{gen: gen, version: counter.Version(), minsup: p.MinSupport, scheme: s.scheme.Name(), maxlen: p.MaxLen, window: window}
	if e := s.jobs.cacheGet(key); e != nil {
		if s.met != nil {
			s.met.jobs.cacheHits.Inc()
		}
		return newMineOutcome(e, p, key.version, true, ref.vector)
	}
	defer s.jobs.unpin(key)
	// Mine a frozen snapshot so every Apriori pass sees one consistent
	// record count even while submissions keep arriving. A windowed mine
	// folds only the requested bucket suffix of the ring.
	var (
		snapshot mining.SupportCounter
		version  uint64
	)
	if window > 0 {
		snapshot, version = wv.SnapshotWindowVersioned(window)
	} else {
		snapshot, version = counter.SnapshotVersioned()
	}
	n := snapshot.N()
	if n == 0 {
		if window > 0 {
			return nil, fmt.Errorf("%w (no records in the last %s)", errNoSubmissions, p.Window)
		}
		return nil, errNoSubmissions
	}
	res, err := mining.AprioriWithOptions(snapshot, p.MinSupport, mining.Options{CandidateRelaxation: 1, MaxLen: p.MaxLen})
	if err != nil {
		return nil, err
	}
	s.jobs.runs.Add(1)
	if s.met != nil {
		s.met.jobs.cacheMiss.Inc()
	}
	// Adopt the canonical entry: if another worker raced us to the same
	// key (both snapshots valid for this version, possibly with a few
	// more folded-in records each), the first store wins and every job
	// reporting this (generation, version, params) returns its result.
	entry := s.jobs.cachePut(mineKey{gen: gen, version: version, minsup: p.MinSupport, scheme: s.scheme.Name(), maxlen: p.MaxLen, window: window},
		&cacheEntry{records: n, result: res})
	return newMineOutcome(entry, p, version, false, ref.vector)
}

// newMineOutcome keeps what one request's response needs from a
// (possibly cached, therefore read-only) mining result: the first
// p.Limit itemsets and, with minconf, the first p.Limit rules. Rule
// generation and truncation are per-request post-processing, so one
// cached Apriori run serves any combination of minconf and limit.
func newMineOutcome(e *cacheEntry, p MineParams, version uint64, cached bool, vector map[string]uint64) (*mineOutcome, error) {
	out := &mineOutcome{counts: e.result.Counts(), records: e.records, version: version, cached: cached, vector: vector}
	kept, items := 0, 0
	for k, n := range out.counts {
		take := min(n, p.Limit-kept)
		kept += take
		items += take * (k + 1)
	}
	out.items = make([]keptItem, 0, items)
	out.supports = make([]float64, 0, kept)
	for _, level := range e.result.ByLength {
		for _, fi := range level[:min(len(level), kept-len(out.supports))] {
			out.items = keepItems(fi.Items, out.items)
			out.supports = append(out.supports, fi.Support)
		}
	}
	if p.MinConf > 0 {
		rules, err := mining.GenerateRules(e.result, p.MinConf)
		if err != nil {
			return nil, err
		}
		rules = rules[:min(len(rules), p.Limit)]
		out.rules = make([]keptRule, len(rules))
		for i, r := range rules {
			out.rules[i] = keptRule{
				antecedent: keepItems(r.Antecedent, nil),
				consequent: keepItems(r.Consequent, nil),
				support:    r.Support,
				confidence: r.Confidence,
			}
		}
	}
	return out, nil
}

// renderMine converts a job's outcome into the wire response.
func (s *Server) renderMine(p MineParams, out *mineOutcome) *MineResponse {
	resp := &MineResponse{
		Records:         out.records,
		MinSupport:      p.MinSupport,
		SnapshotVersion: out.version,
		Cached:          out.cached,
		Window:          p.Window,
		VersionVector:   out.vector,
		Counts:          out.counts,
	}
	items := out.items
	for k, n := range out.counts {
		for j := 0; j < n && len(resp.Itemsets) < len(out.supports); j++ {
			resp.Itemsets = append(resp.Itemsets, ItemsetJSON{
				Items:   s.itemsToJSON(items[:k+1]),
				Support: out.supports[len(resp.Itemsets)],
			})
			items = items[k+1:]
		}
	}
	for _, r := range out.rules {
		resp.Rules = append(resp.Rules, RuleJSON{
			Antecedent: s.itemsToJSON(r.antecedent),
			Consequent: s.itemsToJSON(r.consequent),
			Support:    r.support,
			Confidence: r.confidence,
		})
	}
	return resp
}

func (s *Server) itemsToJSON(set []keptItem) map[string]string {
	out := make(map[string]string, len(set))
	for _, it := range set {
		a := s.schema.Attrs[it.attr]
		out[a.Name] = a.Categories[it.value]
	}
	return out
}

func queryFloat(r *http.Request, key string, def float64) (float64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s=%q", ErrService, key, raw)
	}
	return v, nil
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%w: bad %s=%q", ErrService, key, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
