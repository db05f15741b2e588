package frapp

// Extension surfaces beyond the paper's core evaluation: privacy-
// preserving classification (the paper's stated future-work direction),
// the HTTP collection service realizing the client/miner trust model
// over a network, and continuous-attribute discretization (the paper's
// Section 1.1 conversion that produced the Tables 1–2 schemas).

import (
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/federation"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// Classification (see internal/classify).
type (
	// NaiveBayes is a categorical Naive Bayes model trainable on exact
	// or gamma-perturbed data.
	NaiveBayes = classify.NaiveBayes
)

var (
	// TrainExactNaiveBayes fits on unperturbed data (non-private baseline).
	TrainExactNaiveBayes = classify.TrainExact
	// TrainPerturbedNaiveBayes fits on gamma-perturbed data via Eq. 28
	// marginal reconstruction.
	TrainPerturbedNaiveBayes = classify.TrainPerturbed
	// ClassifierAccuracy scores a model on labeled data.
	ClassifierAccuracy = classify.Accuracy
	// MajorityBaseline is the trivial-classifier floor.
	MajorityBaseline = classify.MajorityBaseline
)

// Collection service (see internal/service).
type (
	// CollectionServer is the miner-side HTTP endpoint.
	CollectionServer = service.Server
	// CollectionClient perturbs locally and submits over HTTP.
	CollectionClient = service.Client
	// MineResponse is the wire form of a mining query result.
	MineResponse = service.MineResponse
	// MineParams are the mining-request parameters shared by the sync
	// endpoint and the asynchronous job API.
	MineParams = service.MineParams
	// MineJobResponse is the wire form of an asynchronous mining job.
	MineJobResponse = service.JobResponse
	// QueryFilter is one attribute=category conjunction on the query
	// wire (attribute names to category names; empty matches all).
	QueryFilter = service.QueryFilter
	// QueryResponse answers one POST /v1/query batch: estimates in
	// filter order, all based on one record count, stamped with the
	// snapshot version they are exact for.
	QueryResponse = service.QueryResponse
	// QueryEstimateJSON is one reconstructed count estimate on the wire.
	QueryEstimateJSON = service.QueryEstimate
)

var (
	// NewCollectionServer configures the miner-side service.
	NewCollectionServer = service.NewServer
	// NewCollectionClient fetches the contract and prepares local
	// perturbation.
	NewCollectionClient = service.NewClient
	// WithClientRandomization enables client-side RAN-GD.
	WithClientRandomization = service.WithClientRandomization
	// WithHTTPClient substitutes the client transport.
	WithHTTPClient = service.WithHTTPClient
	// WithCollectionShards sets the server's ingestion stripe count.
	WithCollectionShards = service.WithShards
	// WithCollectionScheme selects the server's perturbation scheme:
	// gamma (default), mask, or cutpaste.
	WithCollectionScheme = service.WithScheme
	// WithMineWorkers bounds concurrently executing mining jobs.
	WithMineWorkers = service.WithMineWorkers
	// WithJobTTL sets the retention of finished mining jobs.
	WithJobTTL = service.WithJobTTL
	// WithQueryLimit caps the filters of one /v1/query batch.
	WithQueryLimit = service.WithQueryLimit
	// WithCollectionStore makes the server durable: it recovers its
	// counter from the store at construction and logs every change.
	WithCollectionStore = service.WithStore
	// OpenStateStore opens (or creates) a durable state directory of
	// checkpoints plus a delta write-ahead log.
	OpenStateStore = store.Open
)

// Federation (see internal/federation and internal/mining/delta.go):
// multi-site counter replication — collector sites expose versioned
// counter deltas over GET /v1/replicate, and a coordinator merges them
// into one global counter serving queries and mining unchanged.
type (
	// FederationCoordinator pulls versioned deltas from peer collection
	// servers and publishes the merged global counter.
	FederationCoordinator = federation.Coordinator
	// FederationStats is the coordinator health block of /v1/stats:
	// per-peer sync state, lag, and the global version vector.
	FederationStats = federation.Stats
	// FederationPeerStatus is one peer's row in FederationStats.
	FederationPeerStatus = federation.PeerStatus
	// CounterDelta is one replication pull's payload: the sparse joint-
	// histogram change between two stream positions, fingerprinted with
	// the (scheme, schema, parameters) contract it was counted under.
	CounterDelta = mining.CounterDelta
	// DeltaCell is one changed joint-histogram cell of a CounterDelta.
	DeltaCell = mining.DeltaCell
)

var (
	// NewFederationCoordinator validates a peer registry and prepares the
	// sync loop; wire its publish hook to CollectionServer.ReplaceCounter.
	NewFederationCoordinator = federation.NewCoordinator
	// WithSyncInterval sets the coordinator's per-peer pull interval.
	WithSyncInterval = federation.WithSyncInterval
	// WithSyncRequestTimeout bounds one replication request.
	WithSyncRequestTimeout = federation.WithRequestTimeout
	// WithSyncMaxBackoff caps the per-peer failure backoff.
	WithSyncMaxBackoff = federation.WithMaxBackoff
	// WithFederationHTTPClient substitutes the coordinator's transport.
	WithFederationHTTPClient = federation.WithHTTPClient
	// CounterCompatibilityFingerprint hashes the gamma (schema, matrix)
	// contract two sites must share before their counters may merge; the
	// boolean schemes seal their parameters through CounterScheme
	// fingerprints instead.
	CounterCompatibilityFingerprint = mining.CompatibilityFingerprint
	// NewShardedFromSnapshot wraps a frozen merged gamma counter for
	// serving; NewLiveFromCore is the scheme-generic form.
	NewShardedFromSnapshot = mining.NewShardedFromSnapshot
)

// Discretization (see internal/dataset).
type (
	// Binner maps a continuous column to category indices.
	Binner = dataset.Binner
)

var (
	// NewEquiWidthBinner is the paper's fixed-length-interval partitioning.
	NewEquiWidthBinner = dataset.NewEquiWidthBinner
	// NewQuantileBinner balances bin mass on skewed columns.
	NewQuantileBinner = dataset.NewQuantileBinner
	// Discretize converts a continuous table into a categorical Database.
	Discretize = dataset.Discretize
	// Split randomly partitions a database into train and test sets.
	Split = dataset.Split
	// Sample draws a uniform subsample without replacement.
	Sample = dataset.Sample
	// StratifiedSplit preserves class shares across the split.
	StratifiedSplit = dataset.StratifiedSplit
)

// MiningOptions tunes Apriori; see AprioriWithOptions.
type MiningOptions = mining.Options

var (
	// AprioriWithOptions exposes the candidate-relaxation extension for
	// noisy reconstructed supports and the MaxLen level cap used by the
	// collection service's cached mining jobs.
	AprioriWithOptions = mining.AprioriWithOptions
	// BreachProbability is P(posterior > threshold) under RAN-GD
	// randomization (Section 4.1's distributional privacy statement).
	BreachProbability = core.BreachProbability
)

// Condensed itemset representations (see internal/mining).
var (
	// MaximalItemsets returns the frequent itemsets with no frequent
	// proper superset.
	MaximalItemsets = mining.Maximal
	// ClosedItemsets returns the frequent itemsets with no equal-support
	// frequent superset.
	ClosedItemsets = mining.Closed
)

// MaterializedCounter incrementally maintains every marginal histogram
// so repeated mining queries never rescan submissions.
type MaterializedCounter = mining.MaterializedGammaCounter

// NewMaterializedCounter builds the incremental counter.
var NewMaterializedCounter = mining.NewMaterializedGammaCounter

// PerturbDatabaseParallel perturbs with a worker pool; deterministic in
// (database, perturber, seed, workers).
var PerturbDatabaseParallel = core.PerturbDatabaseParallel

// Interactive queries (see internal/query).
type (
	// QueryEngine answers filter-count queries by scanning a perturbed
	// database, with variance-based confidence intervals.
	QueryEngine = query.Engine
	// CounterQueryEngine answers the same queries from an incrementally
	// materialized counter in O(#filters) merged-observable lookups — the
	// collection service's live /v1/query path, usable directly over any
	// live counter (NewLiveCounterQueryEngine, any scheme) or gamma
	// counter (NewCounterQueryEngine).
	CounterQueryEngine = query.CounterEngine
	// PerturbedSupportCounter is the counter surface the counter-backed
	// query engine needs: raw perturbed match counts plus the record
	// count of the same sweep.
	PerturbedSupportCounter = query.PerturbedCounter
	// CountEstimate is a reconstructed count with its 95% CI.
	CountEstimate = query.Estimate
)

var (
	// NewQueryEngine builds the record-scan engine for one perturbed
	// database.
	NewQueryEngine = query.NewEngine
	// NewCounterQueryEngine builds the counter-backed engine over a
	// gamma counter; NewLiveCounterQueryEngine builds the scheme-generic
	// engine over any LiveCounter.
	NewCounterQueryEngine     = query.NewCounterEngine
	NewLiveCounterQueryEngine = query.NewLiveCounterEngine
	// ReconstructCountEstimate is the shared estimator core: marginal
	// inversion of a perturbed match count with standard error and 95%
	// z-interval.
	ReconstructCountEstimate = query.Reconstruct
)
