package service

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mining"
)

// Job lifecycle states. A job moves queued → running → done|failed and
// never backwards; terminal jobs are retained for the configured TTL so
// clients can poll results, then evicted.
const (
	JobQueued  = "queued"
	JobRunning = "running"
	JobDone    = "done"
	JobFailed  = "failed"
)

// MineParams are the parameters of one mining request, shared by the
// synchronous endpoint and the job API. Zero values mean defaults
// (minsup 0.02, limit 100); MaxLen 0 means unbounded itemset length.
type MineParams struct {
	MinSupport float64 `json:"minsup"`
	MinConf    float64 `json:"minconf"`
	Limit      int     `json:"limit"`
	MaxLen     int     `json:"maxlen"`
	// Window restricts the mine to the records of the last Window of
	// wall-clock time (a Go duration string, e.g. "24h"), rounded up to
	// whole ring buckets. Only valid on a windowed collection; empty
	// means the full collection.
	Window string `json:"window,omitempty"`
}

// windowDuration parses the Window parameter; ("", 0) when absent.
func (p MineParams) windowDuration() (time.Duration, error) {
	if p.Window == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(p.Window)
	if err != nil {
		return 0, fmt.Errorf("%w: bad window %q: %v", ErrService, p.Window, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("%w: window %q must be positive", ErrService, p.Window)
	}
	return d, nil
}

// applyDefaults replaces zero values with the endpoint defaults — used
// by the JSON job API, where an absent field decodes to zero. The query
// endpoint applies defaults only for ABSENT parameters (see
// mineParamsFromQuery), so an explicit minsup=0 there is still rejected
// and an explicit limit=0 still means "no itemsets in the response".
func (p *MineParams) applyDefaults() {
	if p.MinSupport == 0 {
		p.MinSupport = defaultMinSupport
	}
	if p.Limit == 0 {
		p.Limit = defaultMineLimit
	}
}

// validate checks ranges without touching values.
func (p MineParams) validate() error {
	if !(p.MinSupport > 0 && p.MinSupport <= 1) {
		return fmt.Errorf("%w: minsup %v not in (0,1]", ErrService, p.MinSupport)
	}
	if p.MinConf < 0 || p.MinConf > 1 {
		return fmt.Errorf("%w: minconf %v not in [0,1]", ErrService, p.MinConf)
	}
	if p.Limit < 0 {
		return fmt.Errorf("%w: negative limit %d", ErrService, p.Limit)
	}
	if p.MaxLen < 0 {
		return fmt.Errorf("%w: negative maxlen %d", ErrService, p.MaxLen)
	}
	_, err := p.windowDuration()
	return err
}

const (
	defaultMinSupport = 0.02
	defaultMineLimit  = 100
	defaultJobTTL     = 15 * time.Minute
	defaultJobWorkers = 2
	jobQueueCapacity  = 1024
	// maxRetainedJobs caps the finished jobs held for polling: the queue
	// capacity bounds pending work, but cache-hit jobs complete in
	// microseconds and would otherwise accumulate result payloads for
	// the whole TTL under a submission flood.
	maxRetainedJobs = 4096
	// maxCacheEntries bounds the result cache: version pruning handles a
	// changing collection, but on an UNCHANGED one every distinct
	// (minsup, maxlen) pair is a separate entry holding a full frequent-
	// itemset result, so a param-varying request stream needs a cap.
	maxCacheEntries = 64
)

// errServerClosed marks jobs failed because the server is shutting
// down — a server condition (503), not a bad request.
var errServerClosed = fmt.Errorf("%w: server shutting down", ErrService)

// JobResponse is the wire form of a mining job.
type JobResponse struct {
	ID     string     `json:"id"`
	State  string     `json:"state"`
	Params MineParams `json:"params"`
	// SnapshotVersion is the counter version the result is exact for
	// (set once the job ran).
	SnapshotVersion uint64 `json:"snapshot_version,omitempty"`
	// Cached reports that the result was served from the version-keyed
	// cache instead of a fresh Apriori run.
	Cached     bool          `json:"cached,omitempty"`
	CreatedAt  time.Time     `json:"created_at"`
	FinishedAt *time.Time    `json:"finished_at,omitempty"`
	Result     *MineResponse `json:"result,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// job is the in-store representation. Fields past done are guarded by
// the store mutex.
type job struct {
	id      string
	params  MineParams
	done    chan struct{} // closed on terminal state
	state   string
	created time.Time
	// started is when a worker picked the job up — the boundary between
	// the queued and running durations the state-latency metrics record.
	started time.Time
	// finished is the eviction clock: TTL counts from terminal state.
	finished time.Time
	out      *mineOutcome
	err      error
}

// mineOutcome is a finished mine in compact form — what a job retains
// for its TTL instead of the rendered response, which costs one
// category-name map per itemset. The response is rendered from it each
// time it is served (see Server.renderMine).
type mineOutcome struct {
	// counts is the number of frequent itemsets of each length.
	counts []int
	// items and supports hold the first limit frequent itemsets in
	// response order (by length, then key): itemset i has support
	// supports[i], and its items follow those of itemset i-1 in items.
	// Itemsets of length-index k have k+1 items, so counts delimits them.
	items    []keptItem
	supports []float64
	// rules are the association rules at the job's minconf, truncated to
	// its limit; nil without minconf. They are generated when the job
	// runs, so a rule-generation error fails the job.
	rules   []keptRule
	records int
	// version is the counter version the result is exact for; cached
	// reports a result-cache hit.
	version uint64
	cached  bool
	// vector is a federation coordinator's replication position vector.
	vector map[string]uint64
}

// keptItem is a mining.Item packed to half its size for retention.
type keptItem struct{ attr, value int32 }

// keptRule is a mining.Rule as a job retains it.
type keptRule struct {
	antecedent, consequent []keptItem
	support, confidence    float64
}

// keepItems packs an itemset for retention.
func keepItems(set mining.Itemset, dst []keptItem) []keptItem {
	for _, it := range set {
		dst = append(dst, keptItem{attr: int32(it.Attr), value: int32(it.Value)})
	}
	return dst
}

// mineKey identifies one cacheable mining computation: the counter
// generation (bumped whenever the counter OBJECT is replaced by a state
// restore, which resets the version line), the counter content
// (snapshot version), and every parameter that changes the Apriori run
// itself. MinConf and Limit are deliberately absent — rule generation
// and truncation are cheap per-request post-processing over the cached
// frequent-itemset result.
type mineKey struct {
	gen     uint64
	version uint64
	minsup  float64
	scheme  string
	maxlen  int
	// window distinguishes computations over different time windows of
	// one windowed counter. The version alone does not: rotation bumps
	// the version, but two requests at the SAME version with different
	// windows mine different bucket unions.
	window time.Duration
}

// cacheEntry is one computed Apriori result.
type cacheEntry struct {
	records int
	result  *mining.Result
}

// jobStore owns the mining jobs, the bounded worker pool that executes
// them, and the snapshot-versioned result cache.
type jobStore struct {
	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for stable listing and TTL sweeps
	cache  map[mineKey]*cacheEntry
	pins   []mineKey // keys of in-flight computations; see cacheGet
	closed bool

	nextID atomic.Uint64
	runs   atomic.Int64  // actual Apriori executions (cache misses)
	gen    atomic.Uint64 // counter generation; see mineKey
	// met, when set (WithTelemetry), receives rejection counts and
	// state-duration observations. Guarded by mu like the job state it
	// describes.
	met     *jobMetrics
	ttl     time.Duration
	now     func() time.Time // injectable for TTL tests
	queue   chan *job
	quit    chan struct{}
	workers int
	wg      sync.WaitGroup
}

// newJobStore starts the worker pool; run executes one mining request.
func newJobStore(workers int, ttl time.Duration, run func(MineParams) (*mineOutcome, error)) *jobStore {
	if workers <= 0 {
		workers = defaultJobWorkers
	}
	if ttl <= 0 {
		ttl = defaultJobTTL
	}
	st := &jobStore{
		jobs:    make(map[string]*job),
		cache:   make(map[mineKey]*cacheEntry),
		ttl:     ttl,
		now:     time.Now,
		queue:   make(chan *job, jobQueueCapacity),
		quit:    make(chan struct{}),
		workers: workers,
	}
	st.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go st.worker(run)
	}
	return st
}

func (st *jobStore) worker(run func(MineParams) (*mineOutcome, error)) {
	defer st.wg.Done()
	for {
		select {
		case <-st.quit:
			return
		case j := <-st.queue:
			st.setRunning(j)
			out, err := run(j.params)
			st.finish(j, out, err)
		}
	}
}

// close stops the workers and fails any still-queued jobs so awaiting
// clients unblock instead of hanging on a dead queue. Setting closed
// under the mutex first — the same mutex submit enqueues under — means
// no job can slip into the queue after the drain below.
func (st *jobStore) close() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.closed = true
	st.mu.Unlock()
	close(st.quit)
	st.wg.Wait()
	for {
		select {
		case j := <-st.queue:
			st.finish(j, nil, errServerClosed)
		default:
			return
		}
	}
}

// submit validates nothing (callers validate params first), enqueues
// the job, and registers it only once the enqueue succeeded — a full
// queue rejects the submission without leaving an orphan failed job in
// the listing or burning a retention slot. Enqueue and registration
// happen under one lock acquisition so a concurrent close() either
// sees the job in the queue or fails the submission — never a job
// stranded on a queue no worker will drain. (Workers also need the
// lock to touch the job, so registration completes before any worker
// state transition.)
func (st *jobStore) submit(p MineParams) (*job, error) {
	j := &job{
		id:      fmt.Sprintf("mj-%d", st.nextID.Add(1)),
		params:  p,
		done:    make(chan struct{}),
		state:   JobQueued,
		created: st.now(),
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, errServerClosed
	}
	st.evictExpiredLocked()
	select {
	case st.queue <- j:
	default:
		if st.met != nil {
			st.met.rejected.Inc()
		}
		return nil, fmt.Errorf("%w: job queue full (%d pending)", ErrService, jobQueueCapacity)
	}
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	return j, nil
}

// setMetrics installs the job instruments; taken under mu so workers
// already running observe the write.
func (st *jobStore) setMetrics(m *jobMetrics) {
	st.mu.Lock()
	st.met = m
	st.mu.Unlock()
}

func (st *jobStore) setRunning(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.state == JobQueued {
		j.state = JobRunning
		j.started = st.now()
		if st.met != nil {
			st.met.queuedDur.Record(j.started.Sub(j.created))
		}
	}
}

func (st *jobStore) finish(j *job, out *mineOutcome, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed {
		return
	}
	j.finished = st.now()
	if st.met != nil {
		if !j.started.IsZero() {
			st.met.runningDur.Record(j.finished.Sub(j.started))
		}
		if err != nil {
			st.met.failed.Inc()
		} else {
			st.met.done.Inc()
		}
	}
	if err != nil {
		j.state = JobFailed
		j.err = err
	} else {
		j.state = JobDone
		j.out = out
	}
	close(j.done)
}

// get returns the job by id, nil if unknown or TTL-expired. Polling is
// the hottest store operation (every awaiting client, every interval),
// so it checks only the requested job's expiry instead of sweeping the
// whole store — full sweeps happen on submit and list, where they are
// amortized against rarer, heavier work.
func (st *jobStore) get(id string) *job {
	st.mu.Lock()
	defer st.mu.Unlock()
	j := st.jobs[id]
	if j == nil {
		return nil
	}
	if (j.state == JobDone || j.state == JobFailed) && j.finished.Before(st.now().Add(-st.ttl)) {
		// Drop the payload now — a poll-only workload would otherwise
		// keep expired results resident until the next submit or list.
		// The stale id in st.order is reaped by the next full sweep.
		delete(st.jobs, id)
		return nil
	}
	return j
}

// list returns all retained jobs in submission order.
func (st *jobStore) list() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.evictExpiredLocked()
	out := make([]*job, 0, len(st.order))
	for _, id := range st.order {
		out = append(out, st.jobs[id])
	}
	return out
}

// evictExpiredLocked drops terminal jobs whose TTL elapsed, then — if a
// flood of instantly-completing submissions outran the TTL — the oldest
// terminal jobs beyond maxRetainedJobs. Queued and running jobs are
// never evicted. Called under st.mu on every store access, so no
// janitor goroutine is needed.
func (st *jobStore) evictExpiredLocked() {
	cutoff := st.now().Add(-st.ttl)
	kept := st.order[:0]
	for _, id := range st.order {
		j := st.jobs[id]
		if j == nil { // already evicted by a poll (see get)
			continue
		}
		if (j.state == JobDone || j.state == JobFailed) && j.finished.Before(cutoff) {
			delete(st.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	st.order = kept
	if over := len(st.order) - maxRetainedJobs; over > 0 {
		kept = st.order[:0]
		for _, id := range st.order {
			j := st.jobs[id]
			if over > 0 && (j.state == JobDone || j.state == JobFailed) {
				delete(st.jobs, id)
				over--
				continue
			}
			kept = append(kept, id)
		}
		st.order = kept
	}
}

// cacheGet returns the cached Apriori result for key, if present. A
// miss pins key until unpin: the caller's snapshot reports a version
// at or above key.version, for which another job may already have
// reported a result, so no entry with key's params from key.version up
// is pruned meanwhile. A prune before the pin precedes the snapshot,
// which therefore reports no older a version than that prune kept.
func (st *jobStore) cacheGet(key mineKey) *cacheEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.cache[key]; e != nil {
		return e
	}
	st.pins = append(st.pins, key)
	return nil
}

// unpin releases one pin taken by a cacheGet miss.
func (st *jobStore) unpin(key mineKey) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i, p := range st.pins {
		if p == key {
			st.pins[i] = st.pins[len(st.pins)-1]
			st.pins = st.pins[:len(st.pins)-1]
			return
		}
	}
}

// pinnedLocked reports whether an in-flight computation may still
// report k: one with k's params that read a version at or below k's.
func (st *jobStore) pinnedLocked(k mineKey) bool {
	for _, p := range st.pins {
		if p.version <= k.version {
			p.version = k.version
			if p == k {
				return true
			}
		}
	}
	return false
}

// cachePut stores a computed result and returns the canonical entry
// for the key: when two workers race to compute the same key, the first
// store wins and the loser adopts it, so every result reported for one
// (generation, version, params) is identical. A put from a superseded
// generation (the computation started before a counter swap) is
// dropped without storing — its result is valid for the counter it was
// computed on, but that counter is gone and the entry could never be
// served. Every stored entry therefore carries the current generation,
// and the prune below only needs to drop older snapshot versions (the
// counter only moves forward, so new requests never ask for them) that
// no pinned computation may still report.
func (st *jobStore) cachePut(key mineKey, e *cacheEntry) *cacheEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	if existing := st.cache[key]; existing != nil {
		return existing
	}
	if key.gen != st.gen.Load() {
		return e
	}
	for k := range st.cache {
		if k.version < key.version && !st.pinnedLocked(k) {
			delete(st.cache, k)
		}
	}
	// Same-version entries (distinct params on an unchanged collection)
	// survive the prune above, so enforce the cap by dropping arbitrary
	// unpinned entries. An evicted key is recomputed on its next miss,
	// so a flood of more than maxCacheEntries parameter sets at one
	// version can still see two results for one key; pinned entries may
	// hold the cache over the cap until their computations finish.
	for k := range st.cache {
		if len(st.cache) < maxCacheEntries {
			break
		}
		if !st.pinnedLocked(k) {
			delete(st.cache, k)
		}
	}
	st.cache[key] = e
	return e
}

// invalidateCache drops every entry and advances the generation,
// returning the new one — required when the counter object itself is
// replaced (ReplaceCounter), which resets the version line. Callers
// publish the new counter together with the returned generation only
// AFTER this completes.
func (st *jobStore) invalidateCache() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cache = make(map[mineKey]*cacheEntry)
	return st.gen.Add(1)
}

// snapshot returns the job's wire form without its result, plus the
// outcome to render the result from (nil unless the job is done). It
// only copies under the store lock; rendering happens outside it.
func (st *jobStore) snapshot(j *job) (JobResponse, *mineOutcome) {
	st.mu.Lock()
	defer st.mu.Unlock()
	resp := JobResponse{
		ID:        j.id,
		State:     j.state,
		Params:    j.params,
		CreatedAt: j.created,
	}
	switch j.state {
	case JobDone:
		resp.SnapshotVersion = j.out.version
		resp.Cached = j.out.cached
		fin := j.finished
		resp.FinishedAt = &fin
		return resp, j.out
	case JobFailed:
		fin := j.finished
		resp.FinishedAt = &fin
		resp.Error = j.err.Error()
	}
	return resp, nil
}

// await blocks until the job reaches a terminal state or ctx ends.
func (j *job) await(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
