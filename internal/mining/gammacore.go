package mining

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
)

// CounterCore implementation for the gamma-diagonal scheme. The core is
// MaterializedGammaCounter (see materialized.go); this file adds the
// scheme-generic plumbing: item-list ingestion, the prepared-batch read
// path (validate/route once, fold only the subset histograms the batch
// touches one shard lock at a time, evaluate the Eq. 28 closed form
// across a worker pool), snapshot folding, joint-histogram extraction
// for replication deltas.

// Compile-time check: MaterializedGammaCounter is the gamma core.
var _ CounterCore = (*MaterializedGammaCounter)(nil)

// Scheme names the core's perturbation scheme.
func (c *MaterializedGammaCounter) Scheme() string { return SchemeGamma }

// Ingest adds one perturbed record given as its item list. The gamma
// scheme perturbs within the categorical domain, so a valid perturbed
// record carries exactly one item per attribute.
func (c *MaterializedGammaCounter) Ingest(items []Item) error {
	if len(items) != c.schema.M() {
		return fmt.Errorf("%w: gamma record carries %d items, schema has %d attributes", ErrMining, len(items), c.schema.M())
	}
	rec := make(dataset.Record, c.schema.M())
	seen := make([]bool, c.schema.M())
	for _, it := range items {
		if it.Attr < 0 || it.Attr >= c.schema.M() {
			return fmt.Errorf("%w: attribute %d out of range", ErrMining, it.Attr)
		}
		if seen[it.Attr] {
			return fmt.Errorf("%w: duplicate attribute %d in gamma record", ErrMining, it.Attr)
		}
		seen[it.Attr] = true
		rec[it.Attr] = it.Value
	}
	return c.Add(rec)
}

// gammaPrepared is a validated batch of dense categorical records. One
// backing array holds every record, so preparation costs two slice
// allocations per batch regardless of batch size.
type gammaPrepared struct {
	recs []dataset.Record
}

func (p gammaPrepared) recordCount() int { return len(p.recs) }

// prepareIngest validates each item-list record against the gamma
// contract (exactly one in-range item per attribute, no duplicates) and
// converts it to its dense record form. No counter state is read or
// written — errors leave every shard untouched.
func (c *MaterializedGammaCounter) prepareIngest(records [][]Item) (preparedIngest, error) {
	m := c.schema.M()
	recs := make([]dataset.Record, len(records))
	backing := make([]int, len(records)*m)
	for i, items := range records {
		if len(items) != m {
			return nil, fmt.Errorf("%w: record %d: gamma record carries %d items, schema has %d attributes", ErrMining, i, len(items), m)
		}
		rec := backing[i*m : (i+1)*m : (i+1)*m]
		for j := range rec {
			rec[j] = -1
		}
		for _, it := range items {
			if it.Attr < 0 || it.Attr >= m {
				return nil, fmt.Errorf("%w: record %d: attribute %d out of range", ErrMining, i, it.Attr)
			}
			if rec[it.Attr] != -1 {
				return nil, fmt.Errorf("%w: record %d: duplicate attribute %d in gamma record", ErrMining, i, it.Attr)
			}
			if it.Value < 0 || it.Value >= c.schema.Attrs[it.Attr].Cardinality() {
				return nil, fmt.Errorf("%w: record %d: value %d out of range for attribute %q", ErrMining, i, it.Value, c.schema.Attrs[it.Attr].Name)
			}
			rec[it.Attr] = it.Value
		}
		recs[i] = rec
	}
	return gammaPrepared{recs: recs}, nil
}

// ingestPrepared folds records [lo, hi) of a prepared batch into every
// subset histogram under one lock acquisition. The loop runs mask-major
// so each histogram (and its column list) stays hot across the whole
// span — the cache behavior per-record Add cannot have.
func (c *MaterializedGammaCounter) ingestPrepared(p preparedIngest, lo, hi int) time.Duration {
	recs := p.(gammaPrepared).recs[lo:hi]
	cards := make([]int, c.schema.M())
	for j := range cards {
		cards[j] = c.schema.Attrs[j].Cardinality()
	}
	t0 := time.Now()
	c.mu.Lock()
	wait := time.Since(t0)
	defer c.mu.Unlock()
	for mask := 1; mask < len(c.hists); mask++ {
		cols, hist := c.cols[mask], c.hists[mask]
		for _, rec := range recs {
			idx := 0
			for _, j := range cols {
				idx = idx*cards[j] + rec[j]
			}
			hist[idx]++
		}
	}
	c.n += len(recs)
	return wait
}

// Merge additively combines another gamma core into this one. Because
// every subset histogram is a per-record sum, merging per-site counters
// reproduces the counters of the union of their submissions exactly.
// The two counters must share a compatibility fingerprint.
func (c *MaterializedGammaCounter) Merge(other CounterCore) error {
	if other == nil {
		return fmt.Errorf("%w: nil counter", ErrMining)
	}
	o, ok := other.(*MaterializedGammaCounter)
	if !ok {
		return fmt.Errorf("%w: cannot merge a %s counter into a %s counter", ErrMining, other.Scheme(), c.Scheme())
	}
	if c == o {
		return fmt.Errorf("%w: cannot merge a counter into itself", ErrMining)
	}
	// The fingerprint covers schema AND matrix, so it is checked even
	// when the two counters share a *Schema — equal schema pointers say
	// nothing about the distortion the counts were collected under.
	if c.Fingerprint() != o.Fingerprint() {
		return fmt.Errorf("%w: cannot merge counters with different schema or perturbation contract", ErrMining)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	for mask := 1; mask < len(c.hists); mask++ {
		addInto(c.hists[mask], o.hists[mask])
	}
	c.n += o.n
	return nil
}

// foldInto adds this core's state into dst (a fresh unshared core).
func (c *MaterializedGammaCounter) foldInto(dst CounterCore) {
	d := dst.(*MaterializedGammaCounter)
	c.mu.RLock()
	defer c.mu.RUnlock()
	d.n += c.n
	for mask := 1; mask < len(c.hists); mask++ {
		addInto(d.hists[mask], c.hists[mask])
	}
}

// addJointInto folds the full-domain joint histogram (the top subset
// histogram) into the sparse accumulator and returns the record count.
func (c *MaterializedGammaCounter) addJointInto(joint map[uint64]float64) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	full := c.hists[len(c.hists)-1]
	for idx, v := range full {
		if v != 0 {
			joint[uint64(idx)] += v
		}
	}
	return c.n
}

// addInto accumulates src into dst element-wise — the histogram fold
// shared by the snapshot, query-merge, and state-restore paths.
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// shardedCandidate is the per-candidate routing computed during the
// parallel validation pass.
type shardedCandidate struct {
	mask int
	idx  int
}

// gammaBatch is a prepared candidate batch over gamma cores: validated
// routings plus the merged subset histograms the batch touches.
type gammaBatch struct {
	schema   *dataset.Schema
	matrix   core.UniformMatrix
	subSizes []int
	routed   []shardedCandidate
	merged   map[int][]float64
	total    int
}

// prepare validates the batch and computes each candidate's (subset
// mask, histogram index) across a worker pool — candidate batches come
// from Apriori passes, which can be thousands of itemsets wide.
func (c *MaterializedGammaCounter) prepare(candidates []Itemset) (counterBatch, error) {
	b := &gammaBatch{
		schema:   c.schema,
		matrix:   c.matrix,
		subSizes: c.subSizes,
		routed:   make([]shardedCandidate, len(candidates)),
	}
	if err := forEachSpanPooled(len(candidates), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			cand := candidates[i]
			// Validate enforces canonical strictly-increasing attribute
			// order, so the mask below cannot alias two items.
			if err := cand.Validate(c.schema); err != nil {
				return err
			}
			mask := 0
			idx := 0
			for _, it := range cand {
				mask |= 1 << uint(it.Attr)
				idx = idx*c.schema.Attrs[it.Attr].Cardinality() + it.Value
			}
			b.routed[i] = shardedCandidate{mask: mask, idx: idx}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	b.merged = make(map[int][]float64)
	for _, rc := range b.routed {
		if rc.mask != 0 && b.merged[rc.mask] == nil {
			b.merged[rc.mask] = make([]float64, b.subSizes[rc.mask])
		}
	}
	return b, nil
}

// gather merges, under this core's lock, only the subset histograms the
// routed batch touches. Shard-local (n, hists) pairs are internally
// consistent, so their sum reconstructs counts for a valid record set.
func (c *MaterializedGammaCounter) gather(cb counterBatch) {
	b := cb.(*gammaBatch)
	c.mu.RLock()
	defer c.mu.RUnlock()
	b.total += c.n
	for mask, dst := range b.merged {
		addInto(dst, c.hists[mask])
	}
}

func (b *gammaBatch) records() int { return b.total }

// rawCount returns candidate i's perturbed match count Y_L. Mask 0 (the
// empty itemset) is supported by every record, so its Y_L is N itself.
func (b *gammaBatch) rawCount(i int) float64 {
	rc := b.routed[i]
	if rc.mask == 0 {
		return float64(b.total)
	}
	return b.merged[rc.mask][rc.idx]
}

// raw resolves every candidate's raw perturbed match count.
func (b *gammaBatch) raw() ([]float64, int) {
	ys := make([]float64, len(b.routed))
	for i := range b.routed {
		ys[i] = b.rawCount(i)
	}
	return ys, b.total
}

// marginals computes one Eq. 28 marginal matrix per distinct touched
// subset mask.
func (b *gammaBatch) marginals() (map[int]core.UniformMatrix, error) {
	out := make(map[int]core.UniformMatrix)
	for _, rc := range b.routed {
		if rc.mask == 0 {
			continue
		}
		if _, ok := out[rc.mask]; ok {
			continue
		}
		marg, err := b.matrix.Marginal(b.subSizes[rc.mask])
		if err != nil {
			return nil, err
		}
		out[rc.mask] = marg
	}
	return out, nil
}

// supports evaluates the Eq. 28 closed form across a worker pool. The
// empty itemset is answered exactly.
func (b *gammaBatch) supports() ([]float64, error) {
	marginals, err := b.marginals()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(b.routed))
	fn := float64(b.total)
	if err := forEachSpanPooled(len(b.routed), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			rc := b.routed[i]
			if rc.mask == 0 {
				out[i] = b.rawCount(i) // exact, no reconstruction noise
				continue
			}
			marg := marginals[rc.mask]
			out[i] = (b.rawCount(i) - marg.Off*fn) / (marg.Diag - marg.Off)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// estimates resolves each filter into (point estimate, stderr): the
// Eq. 28 inversion X̂ = (Y_L − ō·N)/(d̄ − ō) with the Poisson-binomial
// standard error √(N·p̂(1−p̂))/(d̄ − ō), p̂ = Y_L/N — the same estimator
// the record-scan query engine uses, so the two paths agree exactly.
func (b *gammaBatch) estimates() ([]PointEstimate, error) {
	if b.total <= 0 {
		return nil, fmt.Errorf("%w: empty counter", ErrMining)
	}
	marginals, err := b.marginals()
	if err != nil {
		return nil, err
	}
	out := make([]PointEstimate, len(b.routed))
	n := float64(b.total)
	for i, rc := range b.routed {
		if rc.mask == 0 {
			// Everything matches; no reconstruction noise.
			out[i] = PointEstimate{Count: n}
			continue
		}
		marg := marginals[rc.mask]
		a := marg.Diag - marg.Off
		if a == 0 {
			return nil, fmt.Errorf("%w: singular reconstruction matrix", ErrMining)
		}
		y := b.rawCount(i)
		est := (y - marg.Off*n) / a
		phat := y / n
		stderr := math.Sqrt(n*phat*(1-phat)) / a
		out[i] = PointEstimate{Count: est, StdErr: stderr}
	}
	return out, nil
}

// forEachSpanPooled runs fn over contiguous spans of [0, n) on a worker
// pool (core.ForEachSpan), capping the worker count so small batches run
// inline — goroutine scheduling would dominate the arithmetic.
func forEachSpanPooled(n int, fn func(lo, hi int) error) error {
	workers := runtime.GOMAXPROCS(0)
	const minSpan = 64
	if workers > n/minSpan {
		workers = n / minSpan
	}
	if workers <= 1 {
		return fn(0, n)
	}
	return core.ForEachSpan(n, workers, func(_, lo, hi int) error { return fn(lo, hi) })
}
