package mining

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// FRAPP's central claim is that gamma-diagonal, MASK, and cut-and-paste
// are all instances of one perturbation-matrix framework. This file is
// that claim turned into an API: LiveCounter is the scheme-polymorphic
// contract every layer of the stack (ingestion service, query engine,
// mining jobs, persistence, federation) programs against, CounterScheme
// names and constructs one scheme's counting machinery, and CounterCore
// is the per-shard engine a ShardedCounter stripes over. Gamma, MASK,
// and cut-and-paste each provide a core; everything above the core —
// lock-striped ingestion, merge-on-demand reads, snapshot versioning,
// replication deltas (which are also the persisted form) — is written
// once against these interfaces and works for all three.

// Scheme names. Gamma is the default and the paper's recommended scheme:
// the gamma-diagonal matrix minimizes the reconstruction condition
// number among all matrices satisfying the amplification bound, so MASK
// and cut-and-paste exist here as live baselines, not alternatives of
// equal standing.
const (
	SchemeGamma    = "gamma"
	SchemeMask     = "mask"
	SchemeCutPaste = "cutpaste"
)

// SchemeNames lists the supported schemes in presentation order.
func SchemeNames() []string { return []string{SchemeGamma, SchemeMask, SchemeCutPaste} }

// PointEstimate is one scheme-reconstructed count estimate: the point
// estimate of the number of ORIGINAL records matching a filter, plus the
// estimator's standard error (0 for exact zero-arity answers). Schemes
// differ in their estimator — gamma uses the Eq. 28 closed form with the
// Poisson-binomial standard error, the boolean schemes a linear
// estimator with a plug-in multinomial variance — but every scheme
// answers in this shape, which is what lets /v1/query serve all three.
type PointEstimate struct {
	Count  float64
	StdErr float64
}

// LiveCounter is the scheme-polymorphic live ingestion counter: the
// single interface the collection service, interactive query engine,
// async mining jobs, persistence, and federation all program against.
// Implemented by ShardedCounter for every scheme; which scheme a counter
// runs is observable (Scheme) and sealed into its compatibility
// fingerprint, so two counters under different schemes can never be
// merged.
type LiveCounter interface {
	// Scheme names the perturbation scheme the counter counts under.
	Scheme() string
	// Schema returns the categorical schema.
	Schema() *dataset.Schema
	// Shards returns the ingestion stripe count.
	Shards() int
	// N returns the number of ingested records.
	N() int
	// Version is the monotonic content version (see ShardedCounter).
	Version() uint64
	// Ingest adds one already-perturbed record, given as its item list:
	// a categorical scheme requires exactly one item per attribute; a
	// boolean scheme accepts any set of distinct items (perturbed boolean
	// records assert arbitrary item subsets).
	Ingest(items []Item) error
	// IngestBatch adds many already-perturbed records atomically: every
	// record is validated before any shard is touched, so a batch either
	// lands whole or leaves the counter untouched — and each shard's
	// partition is applied under a single lock acquisition, which is what
	// makes batched ingest the fast path (see ShardedCounter).
	IngestBatch(records [][]Item) error
	// Add is the categorical convenience over Ingest: one item per
	// attribute, valid under every scheme.
	Add(rec dataset.Record) error
	// Supports returns scheme-reconstructed support estimates.
	Supports(candidates []Itemset) ([]float64, error)
	// PerturbedSupports returns each candidate's RAW full-match count in
	// the perturbed data (before any reconstruction) plus the record
	// count of the same consistent sweep.
	PerturbedSupports(candidates []Itemset) ([]float64, int, error)
	// Estimates answers filter-count queries with the scheme's estimator:
	// one consistent sweep, per-filter point estimate and standard error,
	// and the record count every estimate is based on.
	Estimates(filters []Itemset) ([]PointEstimate, int, error)
	// SnapshotVersioned folds the counter into one frozen SupportCounter
	// (minable by Apriori) together with the version it is valid for.
	SnapshotVersioned() (SupportCounter, uint64)
	// Fingerprint is the compatibility fingerprint: a hash of the scheme
	// identifier, schema, and scheme parameters. Counters merge — via
	// federation deltas or state restores — only on exact match.
	Fingerprint() string
	// DeltaSince extracts a replication delta (see delta.go).
	DeltaSince(since uint64) (*CounterDelta, error)
	// DeltaEpoch is the counter object's random replication epoch.
	DeltaEpoch() uint64
}

// CounterScheme identifies one perturbation scheme's counting contract
// and constructs its cores. A scheme value is fully validated at
// construction, so NewCore never fails afterwards.
type CounterScheme interface {
	// Name returns the scheme identifier (SchemeGamma, SchemeMask,
	// SchemeCutPaste).
	Name() string
	// Schema returns the categorical schema the scheme counts over.
	Schema() *dataset.Schema
	// Fingerprint returns the scheme's compatibility fingerprint —
	// scheme identifier, schema, and scheme parameters.
	Fingerprint() string
	// NewCore builds one empty per-shard counting core.
	NewCore() CounterCore
}

// CounterCore is one shard (or one federation replica) of a live
// counter: an internally locked, incrementally materialized store of
// perturbed counts for one scheme. A frozen merged core is directly
// minable (it is a SupportCounter). The unexported methods seal the
// interface — cores live in this package, where the sharding, delta,
// and persistence plumbing can rely on their internals.
type CounterCore interface {
	SupportCounter
	// Scheme names the core's perturbation scheme.
	Scheme() string
	// Fingerprint returns the core's compatibility fingerprint.
	Fingerprint() string
	// Ingest adds one perturbed record given as its item list.
	Ingest(items []Item) error
	// PerturbedSupports returns raw full-match counts plus the record
	// count of the same locked read.
	PerturbedSupports(candidates []Itemset) ([]float64, int, error)
	// Merge additively combines another core of the same scheme and
	// fingerprint into this one.
	Merge(other CounterCore) error
	// ApplyDelta folds a replication delta into the core.
	ApplyDelta(d *CounterDelta) error

	// prepareIngest validates a batch of item-list records against the
	// scheme's contract and converts them into the scheme's compact
	// apply form WITHOUT touching counter state. Validation depends only
	// on the scheme (identical across shards of one counter), so one
	// prepared batch can be partitioned across shards. Errors name the
	// offending record index; a non-nil result is fully valid.
	prepareIngest(records [][]Item) (preparedIngest, error)
	// ingestPrepared applies records [lo, hi) of a prepared batch under
	// ONE lock acquisition. The records were pre-validated by
	// prepareIngest, so application cannot fail — the primitive that
	// makes batched ingest all-or-nothing by construction. It returns
	// how long the call waited to acquire the core's lock, measured at
	// the mutex itself, so contention telemetry sees pure wait time
	// rather than wait plus apply.
	ingestPrepared(p preparedIngest, lo, hi int) (lockWait time.Duration)

	// prepare validates and routes a candidate batch; gather folds this
	// core's contribution into it under the core's lock. Shard reads are
	// built on this pair: prepare once, gather per shard, resolve from
	// the batch.
	prepare(candidates []Itemset) (counterBatch, error)
	gather(b counterBatch)
	// foldInto adds this core's full state into dst (a fresh, unshared
	// core of the same scheme) under this core's read lock — the
	// snapshot primitive.
	foldInto(dst CounterCore)
	// addJointInto folds the core's full-domain joint histogram into the
	// sparse accumulator and returns the core's record count — the
	// replication-delta primitive.
	addJointInto(joint map[uint64]float64) int
}

// preparedIngest is a validated, scheme-specific batch of records ready
// for lock-held application: gamma cores prepare dense categorical
// records, boolean cores prepare row bitsets. Preparation allocates a
// constant number of slices per batch (never per record), which is what
// keeps the service's pooled decode path at O(1) allocations per batch.
type preparedIngest interface {
	recordCount() int
}

// counterBatch is a prepared candidate batch: validated and routed by a
// core's prepare, filled shard by shard via gather, then resolved into
// supports, raw counts, or query estimates. The record count accumulates
// across gathers, so every resolution is based on one consistent sweep.
type counterBatch interface {
	records() int
	supports() ([]float64, error)
	raw() ([]float64, int)
	estimates() ([]PointEstimate, error)
}

// recordItems converts a categorical record into its item list — one
// item per attribute — the shape Ingest accepts for every scheme.
func recordItems(rec dataset.Record) []Item {
	items := make([]Item, len(rec))
	for j, v := range rec {
		items[j] = Item{Attr: j, Value: v}
	}
	return items
}

// Cut-and-paste contract defaults: the paper's Section 7 operating
// point (K = 3, ρ = 0.494), with ρ re-derived against the γ constraint
// so the deployed parameters always satisfy the published privacy
// contract.
const (
	defaultCutPasteK         = 3
	defaultCutPasteRhoTarget = 0.494
)

// SchemeForContract derives a scheme's full counting contract from the
// published (schema, γ) privacy contract — the same derivation the
// collection server and its clients perform independently, so both
// sides arrive at identical parameters (and identical fingerprints)
// without trusting each other:
//
//   - gamma: the γ-diagonal matrix over the schema domain;
//   - mask: retention probability p from the strict privacy constraint
//     (MaskPForGamma);
//   - cutpaste: K = 3 with the feasible ρ closest to the paper's 0.494
//     under the γ bound.
//
// An empty name means gamma, the default and recommended scheme.
func SchemeForContract(name string, schema *dataset.Schema, gamma float64) (CounterScheme, error) {
	switch name {
	case SchemeGamma, "":
		m, err := core.NewGammaDiagonal(schema.DomainSize(), gamma)
		if err != nil {
			return nil, err
		}
		return NewGammaScheme(schema, m)
	case SchemeMask:
		bm, err := core.NewBoolMapping(schema)
		if err != nil {
			return nil, err
		}
		ms, err := core.NewMaskSchemeForPrivacy(bm, gamma)
		if err != nil {
			return nil, err
		}
		return NewMaskCounterScheme(ms)
	case SchemeCutPaste:
		bm, err := core.NewBoolMapping(schema)
		if err != nil {
			return nil, err
		}
		rho, err := core.FindRhoForGamma(bm, defaultCutPasteK, gamma, defaultCutPasteRhoTarget)
		if err != nil {
			return nil, err
		}
		cs, err := core.NewCutPasteScheme(bm, defaultCutPasteK, rho)
		if err != nil {
			return nil, err
		}
		return NewCutPasteCounterScheme(cs)
	default:
		return nil, fmt.Errorf("%w: unknown scheme %q (want %s, %s, or %s)",
			ErrMining, name, SchemeGamma, SchemeMask, SchemeCutPaste)
	}
}

// GammaScheme is the gamma-diagonal counting contract: categorical
// records perturbed through a UniformMatrix, counted in materialized
// subset histograms, reconstructed with the Eq. 28 closed form.
type GammaScheme struct {
	schema *dataset.Schema
	matrix core.UniformMatrix
}

// NewGammaScheme validates the matrix against the schema domain and the
// materialization cap, so NewCore can never fail.
func NewGammaScheme(schema *dataset.Schema, m core.UniformMatrix) (*GammaScheme, error) {
	if schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrMining)
	}
	if schema.M() > maxMaterializedAttrs {
		return nil, fmt.Errorf("%w: %d attributes exceeds materialization cap %d", ErrMining, schema.M(), maxMaterializedAttrs)
	}
	if m.N != schema.DomainSize() {
		return nil, fmt.Errorf("%w: matrix order %d vs domain %d", ErrMining, m.N, schema.DomainSize())
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &GammaScheme{schema: schema, matrix: m}, nil
}

// Name returns SchemeGamma.
func (g *GammaScheme) Name() string { return SchemeGamma }

// Schema returns the scheme's schema.
func (g *GammaScheme) Schema() *dataset.Schema { return g.schema }

// Matrix returns the perturbation matrix of the contract.
func (g *GammaScheme) Matrix() core.UniformMatrix { return g.matrix }

// Fingerprint returns the gamma compatibility fingerprint.
func (g *GammaScheme) Fingerprint() string { return CompatibilityFingerprint(g.schema, g.matrix) }

// NewCore builds one empty materialized gamma core.
func (g *GammaScheme) NewCore() CounterCore {
	c, err := NewMaterializedGammaCounter(g.schema, g.matrix)
	if err != nil {
		// Unreachable: NewGammaScheme validated every constructor input.
		panic(fmt.Sprintf("mining: gamma core construction failed after validation: %v", err))
	}
	return c
}

// MaskCounterScheme is the MASK counting contract: boolean-encoded
// records with independently flipped bits, counted in a sparse joint
// row histogram, reconstructed through the tensor-structured inverse.
type MaskCounterScheme struct {
	est maskEstimator
}

// NewMaskCounterScheme wraps a validated MASK scheme as a counting
// contract.
func NewMaskCounterScheme(s *core.MaskScheme) (*MaskCounterScheme, error) {
	if s == nil || s.Mapping == nil {
		return nil, fmt.Errorf("%w: nil MASK scheme", ErrMining)
	}
	if err := checkBoolMapping(s.Mapping); err != nil {
		return nil, err
	}
	return &MaskCounterScheme{est: maskEstimator{s: s}}, nil
}

// Name returns SchemeMask.
func (m *MaskCounterScheme) Name() string { return SchemeMask }

// Schema returns the scheme's schema.
func (m *MaskCounterScheme) Schema() *dataset.Schema { return m.est.mapping().Schema }

// Mask returns the underlying MASK scheme (the client-side perturber
// contract).
func (m *MaskCounterScheme) Mask() *core.MaskScheme { return m.est.s }

// Fingerprint returns the MASK compatibility fingerprint.
func (m *MaskCounterScheme) Fingerprint() string { return m.est.fingerprint() }

// NewCore builds one empty MASK core.
func (m *MaskCounterScheme) NewCore() CounterCore { return newBoolCore(m.est) }

// CutPasteCounterScheme is the cut-and-paste counting contract:
// boolean-encoded records through the C&P operator, counted in a sparse
// joint row histogram, reconstructed via the partial-support matrices.
type CutPasteCounterScheme struct {
	est cutPasteEstimator
}

// NewCutPasteCounterScheme wraps a validated C&P scheme as a counting
// contract.
func NewCutPasteCounterScheme(s *core.CutPasteScheme) (*CutPasteCounterScheme, error) {
	if s == nil || s.Mapping == nil {
		return nil, fmt.Errorf("%w: nil cut-and-paste scheme", ErrMining)
	}
	if err := checkBoolMapping(s.Mapping); err != nil {
		return nil, err
	}
	return &CutPasteCounterScheme{est: cutPasteEstimator{s: s}}, nil
}

// Name returns SchemeCutPaste.
func (c *CutPasteCounterScheme) Name() string { return SchemeCutPaste }

// Schema returns the scheme's schema.
func (c *CutPasteCounterScheme) Schema() *dataset.Schema { return c.est.mapping().Schema }

// CutPaste returns the underlying C&P scheme (the client-side perturber
// contract).
func (c *CutPasteCounterScheme) CutPaste() *core.CutPasteScheme { return c.est.s }

// Fingerprint returns the C&P compatibility fingerprint.
func (c *CutPasteCounterScheme) Fingerprint() string { return c.est.fingerprint() }

// NewCore builds one empty C&P core.
func (c *CutPasteCounterScheme) NewCore() CounterCore { return newBoolCore(c.est) }

// checkBoolMapping bounds the boolean item universe so joint row indexes
// fit the replication cell index (uint64) and the shift arithmetic: the
// BoolMapping itself caps Mb at 64, but live counters additionally need
// 1<<Mb representable for range validation.
func checkBoolMapping(m *core.BoolMapping) error {
	if m.Mb < 1 || m.Mb > 62 {
		return fmt.Errorf("%w: boolean item universe Mb=%d outside [1,62] supported by live counters", ErrMining, m.Mb)
	}
	return nil
}
