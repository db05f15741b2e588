package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The traced run replays a workload's generated inputs (same seed,
// batches, filters, and minsups) in process through each layer's public
// functions, timing every call from the benchmark's own code:
//
//	core     perturbers                        perturb cost per record
//	service  Client.PrepareBatchWire,          client prepare; handler self
//	         Server.Handler().ServeHTTP        time = handler − twin layer
//	mining   twin ShardedCounter: IngestBatch, ingest, lock wait, gather,
//	         Ingest, PerturbedSupports,        estimate, and per-level
//	         Estimates, AprioriWithOptions     Apriori time
//	query    Estimates minus the gather        estimator time per filter
//	store    FileStore Attach/Append/          WAL, fsync, checkpoint,
//	         Checkpoint/Recover                recovery
//
// Every workload's records go through both the batch and the
// single-record submit path, so every layer metric exists on every
// workload. The replay runs three times, without spans, with spans, and
// without again; the wall-time difference between the traced replay and
// the mean of the other two is the tracing overhead. Self times that are
// a difference of two calls use the median of the per-step differences,
// which a GC pause in one call cannot swing.

// replaySpec sizes one workload's replay.
type replaySpec struct {
	schema, scheme string
	popSize        int
	batchSize      int
	batches        int     // batches replayed through submit-batch
	singles        int     // records replayed through /v1/submit
	nominalRate    float64 // records/s the workload ingests at: sets WAL flush size
	queryReps      int     // passes over the filter pool
	mines, maxlen  int
	lockWaitUnit   int // records per IngestBatch in the lock-wait loop
	lockWaitRecs   int // records ingested in the lock-wait loop
}

var replays = map[string]replaySpec{
	"ingest-census":  {schema: "census", scheme: mining.SchemeGamma, popSize: ingestPopSize, batchSize: ingestBatch, batches: 800, singles: 2000, nominalRate: latencyRate, queryReps: 4, mines: 20, lockWaitUnit: ingestBatch, lockWaitRecs: 800 * ingestBatch},
	"analyst-health": {schema: "health", scheme: mining.SchemeGamma, popSize: healthRecords, batchSize: prefillBatch, batches: healthRecords / prefillBatch, singles: 2000, nominalRate: 250_000, queryReps: 4, mines: 20, lockWaitUnit: prefillBatch, lockWaitRecs: healthRecords},
	"mixed-mask":     {schema: "census", scheme: mining.SchemeMask, popSize: 9_000, batchSize: 250, batches: 36, singles: 9_000, nominalRate: mixedWriteRate, queryReps: 3, mines: 20, maxlen: mixedMaxLen, lockWaitUnit: 1, lockWaitRecs: 3000},
}

// span is one timed call. Parent 0 is the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Records int    `json:"records,omitempty"`
}

// tracer keeps spans in memory; a nil tracer records nothing. It is
// used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id, records int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	s.Records = records
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	Records int     `json:"records"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// table aggregates spans by name; a span's self time is its duration
// minus its children's.
func (t *tracer) table() map[string]*layerRow {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.Records += s.Records
		r.TotalMs += float64(d) / 1e6
		r.SelfMs += float64(d-child[s.ID]) / 1e6
	}
	return rows
}

// sink is a reusable in-process ResponseWriter.
type sink struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (s *sink) Header() http.Header { return s.hdr }
func (s *sink) WriteHeader(c int)   { s.code = c }
func (s *sink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return s.buf.Write(b)
}

// serve calls the handler in process and checks the status.
func (s *sink) serve(h http.Handler, method, path, ctype, fingerprint string, body []byte, want int) error {
	clear(s.hdr)
	s.code = 0
	s.buf.Reset()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://inproc"+path, rd)
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if fingerprint != "" {
		req.Header.Set(service.FingerprintHeader, fingerprint)
	}
	h.ServeHTTP(s, req)
	if s.code != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, s.code, bytes.TrimSpace(s.buf.Bytes()))
	}
	return nil
}

// inprocTransport lets service.Client talk to an in-process handler.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// lockWaits is the benchmark's own mining.IngestObserver.
type lockWaits struct{ waits []time.Duration }

func (l *lockWaits) ObserveIngest(_, _ int, wait time.Duration) { l.waits = append(l.waits, wait) }

// storeObs is the benchmark's own store.Observer.
type storeObs struct {
	appendBytes, appendRecords, fsyncs int
	ckptBytes                          int
}

func (o *storeObs) ObserveAppend(bytes, records int, fsync, _ time.Duration, _ error) {
	o.appendBytes += bytes
	o.appendRecords += records
	if fsync > 0 {
		o.fsyncs++
	}
}
func (o *storeObs) ObserveCheckpoint(stateBytes int, _ time.Duration, err error) {
	if err == nil {
		o.ckptBytes = stateBytes
	}
}
func (o *storeObs) ObserveWALSize(int64)             {}
func (o *storeObs) ObserveRecovery(int, bool, error) {}

// levelCounter wraps the SupportCounter Apriori runs on and times each
// level's Supports call as a child span of the Apriori span.
type levelCounter struct {
	mining.SupportCounter
	tr        *tracer
	parent    int
	threshold float64
	levels    []levelStat
}

type levelStat struct {
	Candidates int           `json:"candidates"`
	Frequent   int           `json:"frequent"`
	Dur        time.Duration `json:"supports_ns"`
}

func (l *levelCounter) Supports(cands []mining.Itemset) ([]float64, error) {
	id := l.tr.begin("mining.apriori.supports.L"+strconv.Itoa(len(l.levels)+1), l.parent)
	t0 := time.Now()
	out, err := l.SupportCounter.Supports(cands)
	d := time.Since(t0)
	l.tr.end(id, len(cands))
	st := levelStat{Candidates: len(cands), Dur: d}
	for _, c := range out {
		if c >= l.threshold {
			st.Frequent++
		}
	}
	l.levels = append(l.levels, st)
	return out, err
}

// replayOut carries what the traced replay measured beyond its spans.
type replayOut struct {
	records, wireBytes int
	mallocs            uint64
	perturbed          int
	lockWaits          []time.Duration
	store              storeObs
	levels             [][]levelStat // per mine
	exposition         *telemetry.Exposition
	// instrumented is the wall time of the span-instrumented part (all
	// but the lock-wait loop, whose timing depends on interleaving).
	instrumented time.Duration
}

func runTraced(cfg *config, rep *report) error {
	spec := replays[cfg.workload]
	// The replay keeps every input in this process's heap. Collect
	// between phases and less often within them, so that GC assists
	// charged to whichever call happens to allocate do not decide the
	// sign of a self-time difference.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	// Untraced replays before and after the traced one, so that warm-up
	// is not counted as (negative) tracing overhead.
	untraced := func(tag string) (time.Duration, error) {
		o, err := replay(cfg, spec, nil, tag)
		if err != nil {
			return 0, err
		}
		return o.instrumented, nil
	}
	before, err := untraced("untraced-1")
	if err != nil {
		return err
	}
	tr := &tracer{t0: time.Now()}
	out, err := replay(cfg, spec, tr, "traced")
	if err != nil {
		return err
	}
	traced := out.instrumented
	after, err := untraced("untraced-2")
	if err != nil {
		return err
	}
	plain := (before + after) / 2
	layerMetrics(rep, spec, tr, out)
	rep.set("bench.trace_overhead_pct", 100*(traced.Seconds()-plain.Seconds())/plain.Seconds(), "%", 0)
	rep.Attempted = int64(spec.batches + spec.singles + spec.queryReps*queryBatches + spec.mines)

	rows := tr.table()
	fmt.Printf("%-40s %8s %10s %12s %12s\n", "layer span", "count", "records", "total_ms", "self_ms")
	for _, name := range sortedKeys(rows) {
		r := rows[name]
		fmt.Printf("%-40s %8d %10d %12.3f %12.3f\n", name, r.Count, r.Records, r.TotalMs, r.SelfMs)
	}
	fmt.Printf("replay wall: untraced %.3f s, traced %.3f s\n", plain.Seconds(), traced.Seconds())
	rep.detail["self_time_table"] = rows
	rep.detail["apriori_levels"] = out.levels
	rep.detail["replay_wall_s"] = map[string]float64{"untraced": plain.Seconds(), "traced": traced.Seconds()}
	dir := filepath.Join(filepath.Dir(cfg.workdir), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))
	if err := writeJSON(name, tr.spans); err != nil {
		return err
	}
	rep.detail["spans_file"] = name
	return nil
}

// inproc is one in-process frapp-server plus a client bound to it.
type inproc struct {
	srv    *service.Server
	h      http.Handler
	client *service.Client
	reg    *telemetry.Registry
}

func newInproc(schema *dataset.Schema, scheme string) (*inproc, error) {
	reg := telemetry.NewRegistry()
	srv, err := service.NewServer(schema, core.PrivacySpec{Rho1: 0.05, Rho2: 0.50}, service.WithScheme(scheme), service.WithTelemetry(reg))
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	c, err := service.NewClient("http://inproc", service.WithHTTPClient(&http.Client{Transport: inprocTransport{h}}))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &inproc{srv: srv, h: h, client: c, reg: reg}, nil
}

// twin builds a counter under the client's contract with the server's
// default shard count.
func twin(c *service.Client) (*mining.ShardedCounter, mining.CounterScheme, error) {
	scheme, err := mining.SchemeForContract(c.Scheme(), c.Schema(), c.Gamma())
	if err != nil {
		return nil, nil, err
	}
	ctr, err := mining.NewShardedCounter(scheme, runtime.GOMAXPROCS(0))
	return ctr, scheme, err
}

func replay(cfg *config, spec replaySpec, tr *tracer, tag string) (*replayOut, error) {
	out := &replayOut{}
	start := time.Now()
	db, err := population(spec.schema, spec.popSize)
	if err != nil {
		return nil, err
	}
	pop := db.Records
	a, err := newInproc(db.Schema, spec.scheme)
	if err != nil {
		return nil, err
	}
	defer a.srv.Close()
	single, err := newInproc(db.Schema, spec.scheme)
	if err != nil {
		return nil, err
	}
	defer single.srv.Close()
	c := a.client

	// core: the perturbation itself, on every population record.
	rng := rand.New(rand.NewSource(subSeed(dataSeed, streamPerturb)))
	id := tr.begin("core.perturb", 0)
	if c.Scheme() == mining.SchemeGamma {
		m, err := core.NewGammaDiagonal(c.Schema().DomainSize(), c.Gamma())
		if err != nil {
			return nil, err
		}
		p, err := core.NewGammaPerturber(c.Schema(), m)
		if err != nil {
			return nil, err
		}
		for _, r := range pop {
			if _, err := p.Perturb(r, rng); err != nil {
				return nil, err
			}
		}
	} else {
		bm, err := core.NewBoolMapping(c.Schema())
		if err != nil {
			return nil, err
		}
		ms, err := core.NewMaskSchemeForPrivacy(bm, c.Gamma())
		if err != nil {
			return nil, err
		}
		for _, r := range pop {
			if _, err := ms.PerturbRecord(r, rng); err != nil {
				return nil, err
			}
		}
	}
	tr.end(id, len(pop))
	out.perturbed = len(pop)

	// service: client-side prepare, batch form (sequential, one span per
	// batch) and single-record form.
	batches := make([]*service.PreparedBatch, spec.batches)
	recs := make([]dataset.Record, spec.batchSize)
	for b := range batches {
		for i := range recs {
			recs[i] = pop[(b*spec.batchSize+i)%len(pop)]
		}
		rng := rand.New(rand.NewSource(batchSeed(b)))
		id := tr.begin("service.prepare", 0)
		if batches[b], err = c.PrepareBatchWire(recs, rng, service.WireBinary); err != nil {
			return nil, err
		}
		tr.end(id, spec.batchSize)
	}
	singles, err := prepareSingles(single.client, pop[:spec.singles])
	if err != nil {
		return nil, err
	}
	decoded := make([][][]mining.Item, len(batches))
	for b, p := range batches {
		if decoded[b], err = decodeBinaryBatch(p.Body()); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	// service: the submit-batch handler.
	w := &sink{hdr: http.Header{}}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, p := range batches {
		id := tr.begin("service.submit_batch", 0)
		if err := w.serve(a.h, http.MethodPost, "/v1/submit-batch", p.ContentType(), p.Fingerprint(), p.Body(), http.StatusAccepted); err != nil {
			return nil, err
		}
		tr.end(id, p.Len())
		out.records += p.Len()
		out.wireBytes += p.WireSize()
	}
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs

	runtime.GC()
	// mining: the twin ingests the same batches.
	b, scheme, err := twin(c)
	if err != nil {
		return nil, err
	}
	var all [][]mining.Item
	for _, recs := range decoded {
		id := tr.begin("mining.ingest_batch", 0)
		if err := b.IngestBatch(recs); err != nil {
			return nil, err
		}
		tr.end(id, len(recs))
		all = append(all, recs...)
	}
	if err := replayStore(filepath.Join(cfg.workdir, "trace-store-"+tag), tr, c, scheme, spec, all, &out.store); err != nil {
		return nil, err
	}

	runtime.GC()
	// service + mining: the single-record path on its own server/twin.
	b2, _, err := twin(c)
	if err != nil {
		return nil, err
	}
	for _, body := range singles {
		id := tr.begin("service.submit_single", 0)
		if err := w.serve(single.h, http.MethodPost, "/v1/submit", "application/json", "", body, http.StatusAccepted); err != nil {
			return nil, err
		}
		tr.end(id, 1)
		items, err := decodeSingle(c.Schema(), c.Scheme(), body)
		if err != nil {
			return nil, err
		}
		id = tr.begin("mining.ingest_single", 0)
		if err := b2.Ingest(items); err != nil {
			return nil, err
		}
		tr.end(id, 1)
	}

	runtime.GC()
	// Reads: query batches and mines against the batch-ingested server
	// and twin.
	pool, err := newQueryPool(c.Schema(), pop, queryBatches, queryBatch, cfg.seed)
	if err != nil {
		return nil, err
	}
	// The calls of each step rotate their order, so cache warmth does not
	// favour one side of a subtraction.
	for rep := range spec.queryReps {
		for q, body := range pool.bodies {
			filters := pool.filters[q*queryBatch : (q+1)*queryBatch]
			calls := []func() error{
				func() error {
					id := tr.begin("service.query", 0)
					defer tr.end(id, len(filters))
					return w.serve(a.h, http.MethodPost, "/v1/query", "application/json", "", body, http.StatusOK)
				},
				func() error {
					id := tr.begin("mining.gather", 0)
					defer tr.end(id, len(filters))
					_, _, err := b.PerturbedSupports(filters)
					return err
				},
				func() error {
					id := tr.begin("mining.estimates", 0)
					defer tr.end(id, len(filters))
					_, _, err := b.Estimates(filters)
					return err
				},
			}
			for i := range calls {
				if err := calls[(i+rep+q)%len(calls)](); err != nil {
					return nil, err
				}
			}
		}
	}
	runtime.GC()
	minsups := minsupSequence(spec.mines, cfg.seed)
	for m, minsup := range minsups {
		path := fmt.Sprintf("/v1/mine?minsup=%s&limit=%d", strconv.FormatFloat(minsup, 'g', -1, 64), timedLimit)
		if spec.maxlen > 0 {
			path += "&maxlen=" + strconv.Itoa(spec.maxlen)
		}
		calls := []func() error{
			func() error {
				id := tr.begin("service.mine", 0)
				defer tr.end(id, 0)
				return w.serve(a.h, http.MethodGet, path, "", "", nil, http.StatusOK)
			},
			func() error {
				id := tr.begin("mining.snapshot", 0)
				snap := b.Snapshot()
				tr.end(id, snap.N())
				id = tr.begin("mining.apriori", 0)
				defer tr.end(id, 0)
				lc := &levelCounter{SupportCounter: snap, tr: tr, parent: id, threshold: minsup * float64(snap.N())}
				_, err := mining.AprioriWithOptions(lc, minsup, mining.Options{CandidateRelaxation: 1, MaxLen: spec.maxlen})
				out.levels = append(out.levels, lc.levels)
				return err
			},
		}
		for i := range calls {
			if err := calls[(i+m)%len(calls)](); err != nil {
				return nil, err
			}
		}
	}
	if err := w.serve(telemetry.OpsHandler(a.reg, nil), http.MethodGet, "/metrics", "", "", nil, http.StatusOK); err != nil {
		return nil, err
	}
	if out.exposition, err = telemetry.ParseExposition(w.buf.Bytes()); err != nil {
		return nil, err
	}

	out.instrumented = time.Since(start)

	// mining: lock wait of ingest beside a reader that keeps gathering,
	// on a third twin.
	b3, _, err := twin(c)
	if err != nil {
		return nil, err
	}
	waits := &lockWaits{}
	b3.SetIngestObserver(waits)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var gatherErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for q := 0; !stop.Load(); q++ {
			k := q % queryBatches
			if _, _, err := b3.PerturbedSupports(pool.filters[k*queryBatch : (k+1)*queryBatch]); err != nil {
				gatherErr = err
				return
			}
		}
	}()
	lw := all[:min(len(all), spec.lockWaitRecs)]
	for i := 0; i < len(lw); i += spec.lockWaitUnit {
		if err := b3.IngestBatch(lw[i:min(i+spec.lockWaitUnit, len(lw))]); err != nil {
			stop.Store(true)
			wg.Wait()
			return nil, err
		}
	}
	stop.Store(true)
	wg.Wait()
	if gatherErr != nil {
		return nil, gatherErr
	}
	out.lockWaits = waits.waits
	return out, nil
}

// replayStore logs a fresh twin through a FileStore the way the server
// does: one Append per 200 ms of the workload's nominal ingest rate, a
// checkpoint once 10000 records have accumulated and one at the end,
// and a recovery that must give back every record.
func replayStore(dir string, tr *tracer, c *service.Client, scheme mining.CounterScheme, spec replaySpec, all [][]mining.Item, obs *storeObs) error {
	ctr, _, err := twin(c)
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.WithSyncMode(store.SyncAlways))
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetObserver(obs)
	id := tr.begin("store.attach", 0)
	if err := st.Attach(ctr); err != nil {
		return err
	}
	tr.end(id, 0)
	flushEvery := max(1, int(spec.nominalRate*walFlush.Seconds()))
	for lo := 0; lo < len(all); lo += flushEvery {
		chunk := all[lo:min(lo+flushEvery, len(all))]
		if err := ctr.IngestBatch(chunk); err != nil {
			return err
		}
		id := tr.begin("store.append", 0)
		if err := st.Append(); err != nil {
			return err
		}
		tr.end(id, len(chunk))
		if st.SinceCheckpoint() >= 10_000 {
			id := tr.begin("store.checkpoint", 0)
			if err := st.Checkpoint(); err != nil {
				return err
			}
			tr.end(id, 0)
		}
	}
	// The final checkpoint a graceful shutdown writes.
	id = tr.begin("store.checkpoint", 0)
	if err := st.Checkpoint(); err != nil {
		return err
	}
	tr.end(id, 0)
	if err := st.Close(); err != nil {
		return err
	}
	st2, err := store.Open(dir, store.WithSyncMode(store.SyncAlways))
	if err != nil {
		return err
	}
	defer st2.Close()
	id = tr.begin("store.recover", 0)
	rec, err := st2.Recover(scheme, runtime.GOMAXPROCS(0))
	tr.end(id, 0)
	if err != nil {
		return err
	}
	if rec == nil || rec.N() != ctr.N() {
		return fmt.Errorf("store recovered %v records, the logged counter holds %d", rec, ctr.N())
	}
	return nil
}

// durations returns the durations (ns) of every span with the name, in
// the order they were recorded.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfPerUnit is the median over steps i of
// (outer_i − Σ inner_i) / units, where the i-th spans of outer and of
// each inner name belong to step i.
func (t *tracer) selfPerUnit(outer string, units float64, inner ...string) float64 {
	diffs := t.durations(outer)
	for _, name := range inner {
		for i, d := range t.durations(name) {
			if i < len(diffs) {
				diffs[i] -= d
			}
		}
	}
	for i := range diffs {
		diffs[i] /= units
	}
	return median(diffs)
}

// layerMetrics turns the traced replay into the per-layer metrics.
func layerMetrics(rep *report, spec replaySpec, tr *tracer, out *replayOut) {
	rows := tr.table()
	total := func(name string) float64 { // ns
		if r := rows[name]; r != nil {
			return r.TotalMs * 1e6
		}
		return 0
	}
	count := func(name string) int {
		if r := rows[name]; r != nil {
			return r.Count
		}
		return 0
	}
	recs := float64(out.records)
	singles := float64(spec.singles)
	filters := float64(spec.queryReps * queryBatches * queryBatch)
	mines := float64(spec.mines)

	rep.set("core.perturb_ns_per_record", total("core.perturb")/float64(out.perturbed), "ns", out.perturbed)
	rep.set("service.prepare_ns_per_record", total("service.prepare")/recs, "ns", int(recs))
	rep.set("service.submit_batch_self_ns_per_record", tr.selfPerUnit("service.submit_batch", float64(spec.batchSize), "mining.ingest_batch"), "ns", int(recs))
	rep.set("service.allocs_per_record", float64(out.mallocs)/recs, "count", int(recs))
	rep.set("service.wire_bytes_per_record", float64(out.wireBytes)/recs, "bytes", int(recs))
	rep.set("service.submit_single_self_us", tr.selfPerUnit("service.submit_single", 1e3, "mining.ingest_single"), "us", int(singles))
	rep.set("service.query_self_us_per_filter", tr.selfPerUnit("service.query", queryBatch*1e3, "mining.estimates"), "us", int(filters))
	rep.set("service.mine_self_ms", tr.selfPerUnit("service.mine", 1e6, "mining.snapshot", "mining.apriori"), "ms", int(mines))
	hits, _ := out.exposition.Value("frapp_mine_cache_hits_total", nil)
	misses, _ := out.exposition.Value("frapp_mine_cache_misses_total", nil)
	queued, _ := out.exposition.Value("frapp_job_state_seconds", map[string]string{"state": service.JobQueued, "quantile": "0.99"})
	rep.set("service.mine_cache_hits", hits, "count", 0)
	rep.set("service.mine_cache_misses", misses, "count", 0)
	rep.set("service.jobs.queue_wait_p99_ms", queued*1e3, "ms", int(mines))

	rep.set("mining.ingest_single_ns", total("mining.ingest_single")/singles, "ns", int(singles))
	rep.set("mining.ingest_batch_ns_per_record", total("mining.ingest_batch")/recs, "ns", int(recs))
	waits := make([]float64, len(out.lockWaits))
	for i, w := range out.lockWaits {
		waits[i] = ms(w)
	}
	rep.set("mining.ingest_lock_wait_p99_ms", percentile(waits, 0.99), "ms", len(waits))
	rep.set("mining.gather_us_per_filter", total("mining.gather")/filters/1e3, "us", int(filters))
	rep.set("query.estimate_us_per_filter", tr.selfPerUnit("mining.estimates", queryBatch*1e3, "mining.gather"), "us", int(filters))

	var cands, freq [2]float64
	var allCands, allFreq float64
	var levelNs [2]time.Duration
	var supportsNs time.Duration
	for _, levels := range out.levels {
		for k, l := range levels {
			if k < 2 {
				cands[k] += float64(l.Candidates)
				freq[k] += float64(l.Frequent)
				levelNs[k] += l.Dur
			}
			allCands += float64(l.Candidates)
			allFreq += float64(l.Frequent)
			supportsNs += l.Dur
		}
	}
	for k := range 2 {
		lvl := strconv.Itoa(k + 1)
		rep.set("mining.apriori.candidates.L"+lvl, cands[k]/mines, "count", int(mines))
		rep.set("mining.apriori.frequent.L"+lvl, freq[k]/mines, "count", int(mines))
		rep.set("mining.apriori.supports_ms.L"+lvl, ms(levelNs[k])/mines, "ms", int(mines))
	}
	rep.set("mining.apriori.useful_frac", allFreq/allCands, "frac", int(allCands))
	rep.set("mining.apriori.supports_ms", ms(supportsNs)/mines, "ms", int(mines))
	rep.set("mining.apriori.self_ms", (total("mining.apriori")/1e6-ms(supportsNs))/mines, "ms", int(mines))

	rep.set("store.append_us", total("store.append")/float64(count("store.append"))/1e3, "us", count("store.append"))
	rep.set("store.wal_bytes_per_record", float64(out.store.appendBytes)/float64(out.store.appendRecords), "bytes", out.store.appendRecords)
	rep.set("store.fsyncs_per_s", float64(out.store.fsyncs)/(recs/spec.nominalRate), "1/s", out.store.fsyncs)
	rep.set("store.checkpoint_ms", total("store.checkpoint")/float64(count("store.checkpoint"))/1e6, "ms", count("store.checkpoint"))
	rep.set("store.checkpoint_bytes", float64(out.store.ckptBytes), "bytes", 0)
	rep.set("store.recover_ms", total("store.recover")/1e6, "ms", 1)
}
