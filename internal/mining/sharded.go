package mining

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// ShardedCounter is the scheme-generic lock-striped live counter behind
// the collection service's hot path — the one implementation of
// LiveCounter, striping any scheme's CounterCore. A single core
// serializes every submission on one mutex held across its histogram
// update, so a busy server cannot use more than one core for ingestion.
// Sharding splits the counter into S independent cores, each with its
// own lock and its own copy of the scheme's materialized state;
// submissions are routed round-robin, so concurrent submitters contend
// only when they land on the same shard at the same instant (probability
// ~1/S). Because every record lands entirely in exactly one shard,
// summing per-shard state reproduces the single-core state exactly — the
// per-scheme reconstruction arithmetic over integer-valued counts is
// bit-identical.
//
// Reads merge on demand: Supports, PerturbedSupports, and Estimates
// prepare a candidate batch once, gather each shard's contribution under
// that shard's own lock, and resolve from the merged observables;
// SnapshotVersioned folds all shards into one frozen core for consistent
// multi-pass mining.
type ShardedCounter struct {
	scheme CounterScheme
	shards []CounterCore
	next   atomic.Uint64
	// total mirrors the sum of shard record counts so N() — called on
	// every submit response — stays lock-free instead of sweeping all
	// shard mutexes.
	total atomic.Int64
	// version is a monotonic counter-content version: it advances after
	// every record is fully ingested into its shard, and state restore
	// initializes it to the restored record count. Two reads returning
	// the same version therefore bracket an interval in which no new
	// record became visible — the invariant the service's mining-result
	// cache is keyed on.
	version atomic.Uint64

	// Replication baselines for DeltaSince (see delta.go): sparse joint
	// histograms retained per issued stream token so the next pull diffs
	// against exactly the state the puller holds. The ring lives and dies
	// with the counter object — a restored counter starts empty, which is
	// what forces pullers into a clean full resync. deltaEpoch is a
	// random per-object nonce carried as the delta Generation: two
	// counter objects (across restarts, restores, or publishes) can
	// never share one, so a stream token can never alias a different
	// object's state even if version lines and token values collide.
	deltaEpoch     uint64
	ckptMu         sync.Mutex
	ckpts          map[uint64]*deltaCheckpoint
	ckptOrder      []uint64
	lastDeltaToken uint64

	// obs receives per-shard ingest telemetry. It is set once via
	// SetIngestObserver before the counter starts taking traffic and read
	// without synchronization on the hot path; a nil observer costs one
	// predictable branch per shard span.
	obs IngestObserver
}

// IngestObserver receives ingest telemetry from the counter hot path:
// which shard a span of records landed on, how many records it carried,
// and how long the span waited for the shard lock (zero for the
// single-record path, which cannot separate wait from apply without
// taxing every submit). Implementations must be allocation-free and
// cheap — they run inside IngestBatch.
type IngestObserver interface {
	ObserveIngest(shard, records int, lockWait time.Duration)
}

// SetIngestObserver installs the ingest telemetry hook. Call it before
// the counter is exposed to traffic; the field is read unsynchronized
// on the hot path.
func (c *ShardedCounter) SetIngestObserver(o IngestObserver) { c.obs = o }

// Compile-time check: ShardedCounter is the LiveCounter implementation.
var _ LiveCounter = (*ShardedCounter)(nil)

// NewShardedCounter builds a live counter for the given scheme with the
// given shard count; shards <= 0 defaults to runtime.GOMAXPROCS(0).
func NewShardedCounter(scheme CounterScheme, shards int) (*ShardedCounter, error) {
	if scheme == nil {
		return nil, fmt.Errorf("%w: nil scheme contract", ErrMining)
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	c := &ShardedCounter{
		scheme:     scheme,
		shards:     make([]CounterCore, shards),
		deltaEpoch: rand.Uint64(),
		ckpts:      make(map[uint64]*deltaCheckpoint),
	}
	for i := range c.shards {
		c.shards[i] = scheme.NewCore()
	}
	return c, nil
}

// NewShardedGammaCounter builds a gamma-diagonal sharded counter — the
// historical constructor, kept as a convenience over NewShardedCounter
// with a GammaScheme.
func NewShardedGammaCounter(schema *dataset.Schema, m core.UniformMatrix, shards int) (*ShardedCounter, error) {
	scheme, err := NewGammaScheme(schema, m)
	if err != nil {
		return nil, err
	}
	return NewShardedCounter(scheme, shards)
}

// NewLiveFromCore wraps a frozen merged core as a single-shard live
// counter, so a federation coordinator's global view plugs into
// everything built for the ingestion counter (service handlers, query
// engine, Apriori) unchanged. The caller must hand over ownership: the
// core becomes the counter's only shard. Its version line starts at the
// record count, mirroring a state restore.
func NewLiveFromCore(scheme CounterScheme, core CounterCore) *ShardedCounter {
	if scheme == nil || core == nil {
		panic("mining: NewLiveFromCore requires a scheme contract and a core")
	}
	c := &ShardedCounter{
		scheme:     scheme,
		shards:     []CounterCore{core},
		deltaEpoch: rand.Uint64(),
		ckpts:      make(map[uint64]*deltaCheckpoint),
	}
	n := core.N()
	c.next.Store(uint64(n))
	c.total.Store(int64(n))
	c.version.Store(uint64(n))
	return c
}

// NewShardedFromSnapshot wraps a frozen merged gamma counter as a
// single-shard live counter — the gamma convenience over
// NewLiveFromCore.
func NewShardedFromSnapshot(snap *MaterializedGammaCounter) *ShardedCounter {
	scheme, err := NewGammaScheme(snap.schema, snap.matrix)
	if err != nil {
		// Unreachable: the snapshot was built under these exact
		// parameters.
		panic("mining: snapshot carries invalid gamma contract: " + err.Error())
	}
	return NewLiveFromCore(scheme, snap)
}

// Scheme names the counter's perturbation scheme.
func (c *ShardedCounter) Scheme() string { return c.scheme.Name() }

// CounterScheme returns the counter's full scheme contract.
func (c *ShardedCounter) CounterScheme() CounterScheme { return c.scheme }

// Shards returns the number of stripes.
func (c *ShardedCounter) Shards() int { return len(c.shards) }

// Schema returns the counter's schema.
func (c *ShardedCounter) Schema() *dataset.Schema { return c.scheme.Schema() }

// Fingerprint returns the counter's compatibility fingerprint.
func (c *ShardedCounter) Fingerprint() string { return c.scheme.Fingerprint() }

// Ingest adds one (already perturbed) record, given as its item list,
// into the next shard in round-robin order. The atomic routing counter
// is the only state shared between concurrent submitters.
func (c *ShardedCounter) Ingest(items []Item) error {
	shard := c.next.Add(1) % uint64(len(c.shards))
	if err := c.shards[shard].Ingest(items); err != nil {
		return err
	}
	c.total.Add(1)
	c.version.Add(1)
	if c.obs != nil {
		c.obs.ObserveIngest(int(shard), 1, 0)
	}
	return nil
}

// IngestBatch adds a batch of (already perturbed) records atomically.
// Every record is validated and converted to the scheme's apply form
// FIRST — before any shard is touched — so a malformed record rejects
// the whole batch with the counter provably unchanged (the service
// layer's batch-atomicity guarantee is this method, not handler
// bookkeeping). The validated batch is then partitioned across shards,
// continuing the round-robin assignment of single-record Ingest, and
// each partition is applied under a single lock acquisition of its
// shard: a B-record batch over S shards costs min(B, S) lock
// round-trips instead of B.
//
// total and version advance by the batch size only after every
// partition has landed. A snapshot taken mid-application may already
// include some of the batch's records — each record is still atomic
// within its shard, so the snapshot remains a consistent view that is
// strictly newer than its version, exactly the SnapshotVersioned
// contract.
func (c *ShardedCounter) IngestBatch(records [][]Item) error {
	n := len(records)
	if n == 0 {
		return nil
	}
	prep, err := c.shards[0].prepareIngest(records)
	if err != nil {
		return err
	}
	// Continue the round-robin cursor by n so batch and single-record
	// traffic interleave without skewing the shard balance: the batch
	// owns positions [start, start+n), and shard i receives exactly the
	// records round-robin would have routed to it, as one contiguous
	// span of the prepared batch.
	shards := uint64(len(c.shards))
	start := c.next.Add(uint64(n)) - uint64(n)
	base, extra := n/int(shards), n%int(shards)
	lo := 0
	for k := 0; k < int(shards) && lo < n; k++ {
		cnt := base
		if k < extra {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		shard := (start + uint64(k)) % shards
		wait := c.shards[shard].ingestPrepared(prep, lo, lo+cnt)
		if c.obs != nil {
			c.obs.ObserveIngest(int(shard), cnt, wait)
		}
		lo += cnt
	}
	c.total.Add(int64(n))
	c.version.Add(uint64(n))
	return nil
}

// Add ingests one perturbed categorical record — the item-per-attribute
// convenience over Ingest, valid for every scheme (a full categorical
// record is a legal perturbed record under each).
func (c *ShardedCounter) Add(rec dataset.Record) error {
	if err := c.Schema().Validate(rec); err != nil {
		return err
	}
	return c.Ingest(recordItems(rec))
}

// AddDatabase ingests every record of a perturbed database.
func (c *ShardedCounter) AddDatabase(db *dataset.Database) error {
	return addDatabase(c.Schema(), c.Add, db)
}

// N returns the total number of ingested records across all shards.
func (c *ShardedCounter) N() int {
	return int(c.total.Load())
}

// Version returns the current snapshot version. The version only moves
// forward, and it moves exactly when counter content changes, so equal
// versions imply identical counter state (mining results computed at
// version v remain exact answers for any later read that still observes
// v).
func (c *ShardedCounter) Version() uint64 {
	return c.version.Load()
}

// Snapshot folds every shard into one frozen SupportCounter. Shards are
// read one at a time under their own locks; a record is counted in every
// observable of its shard or in none, so the merged copy is always a
// consistent view of some set of fully ingested records even while
// submissions keep arriving.
func (c *ShardedCounter) Snapshot() SupportCounter {
	snap, _ := c.SnapshotVersioned()
	return snap
}

// SnapshotVersioned returns a merged frozen counter together with a
// version it is valid for. The version is read BEFORE the shard fold:
// every record ingested at or before that version is fully inside some
// shard and therefore inside the snapshot, so snap.N() >= version is
// guaranteed (records landing during the fold may or may not be
// included — the snapshot is then a strictly newer, still-consistent
// view, which only makes a cache entry keyed at the returned version
// fresher than advertised, never staler).
func (c *ShardedCounter) SnapshotVersioned() (SupportCounter, uint64) {
	core, version := c.snapshotCore()
	return core, version
}

// snapshotCore is SnapshotVersioned returning the concrete core, for
// package-internal callers that need core plumbing.
func (c *ShardedCounter) snapshotCore() (CounterCore, uint64) {
	version := c.version.Load()
	merged := c.scheme.NewCore()
	for _, s := range c.shards {
		s.foldInto(merged)
	}
	return merged, version
}

// batch prepares a candidate batch and gathers every shard's
// contribution — the read path shared by Supports, PerturbedSupports,
// and Estimates. Per-shard state is internally consistent, so the
// merged observables describe a valid set of fully ingested records.
func (c *ShardedCounter) batch(candidates []Itemset) (counterBatch, error) {
	b, err := c.shards[0].prepare(candidates)
	if err != nil {
		return nil, err
	}
	for _, s := range c.shards {
		s.gather(b)
	}
	return b, nil
}

// Supports merges only the observables the candidate batch touches and
// evaluates the scheme's reconstruction. The empty itemset is answered
// exactly (every record supports it).
func (c *ShardedCounter) Supports(candidates []Itemset) ([]float64, error) {
	if len(candidates) == 0 {
		return nil, nil
	}
	b, err := c.batch(candidates)
	if err != nil {
		return nil, err
	}
	return b.supports()
}

// PerturbedSupports returns each candidate's RAW full-match count in the
// perturbed data — before any reconstruction — together with the record
// count N observed in the same shard sweep, so (Y_L, N) pairs are
// mutually consistent. This is the substrate of the counter-backed
// interactive query path for the gamma scheme, whose estimator is a
// function of Y_L/N alone.
func (c *ShardedCounter) PerturbedSupports(candidates []Itemset) ([]float64, int, error) {
	if len(candidates) == 0 {
		return nil, c.N(), nil
	}
	b, err := c.batch(candidates)
	if err != nil {
		return nil, 0, err
	}
	ys, n := b.raw()
	return ys, n, nil
}

// Estimates answers a batch of filter-count queries with the scheme's
// estimator: every estimate is based on the same consistent sweep (one
// record count N for the whole batch), even while submissions keep
// arriving on the live counter.
func (c *ShardedCounter) Estimates(filters []Itemset) ([]PointEstimate, int, error) {
	if len(filters) == 0 {
		return nil, c.N(), nil
	}
	b, err := c.batch(filters)
	if err != nil {
		return nil, 0, err
	}
	ests, err := b.estimates()
	if err != nil {
		return nil, 0, err
	}
	return ests, b.records(), nil
}
