package mining

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/dataset"
)

// SupportCounter supplies (possibly reconstructed) absolute support
// counts for candidate itemsets. Implementations: ExactCounter (ground
// truth), GammaCounter (DET-GD / RAN-GD reconstruction), MaskCounter and
// CutPasteCounter (baseline reconstructions).
type SupportCounter interface {
	// Supports returns the estimated support count of each candidate.
	Supports(candidates []Itemset) ([]float64, error)
	// N returns the number of database records.
	N() int
	// Schema returns the categorical schema being mined.
	Schema() *dataset.Schema
}

// FrequentItemset pairs an itemset with its (estimated) support fraction.
type FrequentItemset struct {
	Items   Itemset
	Support float64 // fraction of records, in [0,1] up to estimation error
}

// Result is the output of one Apriori run.
type Result struct {
	MinSupport float64
	// ByLength[k] holds the frequent itemsets of length k+1, sorted by key.
	ByLength [][]FrequentItemset
}

// Counts returns the number of frequent itemsets at each length,
// the paper's Table 3 row format.
func (r *Result) Counts() []int {
	out := make([]int, len(r.ByLength))
	for i, level := range r.ByLength {
		out[i] = len(level)
	}
	return out
}

// All returns every frequent itemset keyed by canonical key.
func (r *Result) All() map[string]FrequentItemset {
	out := make(map[string]FrequentItemset)
	for _, level := range r.ByLength {
		for _, f := range level {
			out[f.Items.Key()] = f
		}
	}
	return out
}

// Lookup returns the frequent itemset with the given key, if present.
func (r *Result) Lookup(key string) (FrequentItemset, bool) {
	var buf []byte
	for _, level := range r.ByLength {
		for _, f := range level {
			buf = f.Items.appendKey(buf[:0])
			if string(buf) == key {
				return f, true
			}
		}
	}
	return FrequentItemset{}, false
}

// sortByKey sorts itemsets into canonical key order, building each key
// once rather than twice per comparison. Keys within one sort are
// distinct, so the order is fully determined.
func sortByKey(fs []FrequentItemset) {
	type keyed struct {
		key string
		fi  FrequentItemset
	}
	ks := make([]keyed, len(fs))
	for i, f := range fs {
		ks[i] = keyed{f.Items.Key(), f}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i, k := range ks {
		fs[i] = k.fi
	}
}

// Options tunes the Apriori run.
type Options struct {
	// CandidateRelaxation, in (0, 1], lowers the support threshold used
	// for KEEPING CANDIDATES ALIVE between passes to
	// relaxation·minSupport, while the reported result is still filtered
	// at the full minSupport. Under noisy support reconstruction, a
	// single under-estimated subset kills every superset in plain
	// Apriori; relaxing the intermediate threshold trades extra counting
	// work for fewer propagated false negatives. 1 (the default)
	// reproduces the paper's plain algorithm.
	CandidateRelaxation float64
	// MaxLen, when > 0, stops the level-wise search after itemsets of
	// that length: a miner interested only in short patterns skips the
	// (combinatorially widest) later passes entirely. 0 means unbounded.
	MaxLen int
}

// Apriori mines all itemsets with support ≥ minSupport (a fraction in
// (0,1]) using the level-wise algorithm of Agrawal & Srikant (VLDB 1994),
// with the counter abstracting the per-pass support computation — for
// perturbed databases this is where the paper's "support reconstruction
// phase at the end of each pass" happens.
func Apriori(c SupportCounter, minSupport float64) (*Result, error) {
	return AprioriWithOptions(c, minSupport, Options{CandidateRelaxation: 1})
}

// AprioriWithOptions is Apriori with explicit tuning.
func AprioriWithOptions(c SupportCounter, minSupport float64, opts Options) (*Result, error) {
	if !(minSupport > 0 && minSupport <= 1) {
		return nil, fmt.Errorf("%w: minSupport %v not in (0,1]", ErrMining, minSupport)
	}
	if !(opts.CandidateRelaxation > 0 && opts.CandidateRelaxation <= 1) {
		return nil, fmt.Errorf("%w: candidate relaxation %v not in (0,1]", ErrMining, opts.CandidateRelaxation)
	}
	if opts.MaxLen < 0 {
		return nil, fmt.Errorf("%w: max length %d negative", ErrMining, opts.MaxLen)
	}
	sc := c.Schema()
	n := c.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty database", ErrMining)
	}
	threshold := minSupport * float64(n)
	aliveThreshold := threshold * opts.CandidateRelaxation

	// Level 1: all single items.
	var candidates []Itemset
	for a := 0; a < sc.M(); a++ {
		for v := 0; v < sc.Attrs[a].Cardinality(); v++ {
			candidates = append(candidates, Itemset{{Attr: a, Value: v}})
		}
	}

	res := &Result{MinSupport: minSupport}
	length := 1
	for len(candidates) > 0 {
		counts, err := c.Supports(candidates)
		if err != nil {
			return nil, err
		}
		if len(counts) != len(candidates) {
			return nil, fmt.Errorf("%w: counter returned %d counts for %d candidates", ErrMining, len(counts), len(candidates))
		}
		// The surviving candidates are keyed once and put in key order;
		// the reported level (cnt ≥ threshold ≥ aliveThreshold) is a
		// subsequence of them, so it comes out sorted too.
		keys := make([]string, len(candidates))
		var alive []int
		for i, cnt := range counts {
			if cnt >= aliveThreshold {
				keys[i] = candidates[i].Key()
				alive = append(alive, i)
			}
		}
		slices.SortFunc(alive, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
		var level []FrequentItemset
		for _, i := range alive {
			if counts[i] >= threshold {
				level = append(level, FrequentItemset{Items: candidates[i], Support: counts[i] / float64(n)})
			}
		}
		if len(level) > 0 {
			res.ByLength = append(res.ByLength, level)
		} else if opts.CandidateRelaxation == 1 {
			break
		}
		if len(alive) == 0 {
			break
		}
		if opts.MaxLen > 0 && length >= opts.MaxLen {
			break
		}
		survivors, survivorKeys := make([]Itemset, len(alive)), make([]string, len(alive))
		for j, i := range alive {
			survivors[j], survivorKeys[j] = candidates[i], keys[i]
		}
		candidates = generateCandidates(survivors, survivorKeys)
		length++
	}
	// With relaxation a pass can keep candidates alive while reporting
	// no itemset of its length, so ByLength (appended in pass order) can
	// skip lengths; re-bucket by actual length for stable semantics.
	res.normalize()
	return res, nil
}

// normalize re-buckets ByLength so index k holds exactly the itemsets of
// length k+1. Every level it receives is non-empty, of one length, and
// already sorted by key, so this only inserts the skipped lengths.
func (r *Result) normalize() {
	buckets := make([][]FrequentItemset, 0, len(r.ByLength))
	for _, level := range r.ByLength {
		l := level[0].Items.Len()
		for len(buckets) < l {
			buckets = append(buckets, nil)
		}
		buckets[l-1] = level
	}
	r.ByLength = buckets
}

// generateCandidates implements the Apriori join + prune over the
// surviving k-itemsets of one pass, given in key order with keys[i] =
// level[i].Key(). Two survivors sharing their first k−1 items, with
// distinct final attributes, join into a (k+1)-candidate, which is kept
// only if all its k-subsets survived.
//
// The keys of the itemsets sharing a (k−1)-prefix P all start with
// Key(P)+",", and no other k-itemset's key does (that string ends at
// the key's (k−1)-th comma), so in key order each itemset's join
// partners follow it contiguously and the inner loop stops at the first
// prefix mismatch. A candidate determines its pair (its prefix plus its
// two last items), so no candidate is generated twice.
func generateCandidates(level []Itemset, keys []string) []Itemset {
	frequent := make(map[string]struct{}, len(keys))
	for _, k := range keys {
		frequent[k] = struct{}{}
	}
	var out []Itemset
	var buf []byte
	for i, a := range level {
		last := len(a) - 1
		for _, b := range level[i+1:] {
			if !slices.Equal(a[:last], b[:last]) {
				break
			}
			x, y := a[last], b[last]
			if x.Attr == y.Attr {
				continue // same attribute twice: unsupportable
			}
			if y.Attr < x.Attr {
				x, y = y, x
			}
			cand := make(Itemset, len(a)+1)
			copy(cand, a[:last])
			cand[last], cand[last+1] = x, y
			if allSubsetsFrequent(cand, frequent, &buf) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// allSubsetsFrequent is Apriori's prune: it looks up the key of every
// k-subset of a (k+1)-candidate, built in the reused buffer *buf so the
// check allocates nothing. The subsets dropping one of the last two
// items are the two joined survivors themselves and are skipped.
func allSubsetsFrequent(cand Itemset, frequent map[string]struct{}, buf *[]byte) bool {
	for drop := 0; drop < len(cand)-2; drop++ {
		b := cand[:drop].appendKey((*buf)[:0])
		if drop > 0 {
			b = append(b, ',')
		}
		b = cand[drop+1:].appendKey(b)
		*buf = b
		if _, ok := frequent[string(b)]; !ok {
			return false
		}
	}
	return true
}
