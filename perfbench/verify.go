package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/service"
)

// tol is the answer-equality tolerance against the offline recomputation.
const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

// offline is the benchmark's own counter over exactly the perturbed
// records the server acknowledged, built through the same scheme
// contract the client negotiated.
type offline struct {
	schema  *dataset.Schema
	counter *mining.ShardedCounter
}

func newOffline(c *service.Client) (*offline, error) {
	scheme, err := mining.SchemeForContract(c.Scheme(), c.Schema(), c.Gamma())
	if err != nil {
		return nil, err
	}
	if scheme.Fingerprint() != c.Fingerprint() {
		return nil, fmt.Errorf("offline %s contract fingerprint differs from the client's", c.Scheme())
	}
	ctr, err := mining.NewShardedCounter(scheme, 1)
	if err != nil {
		return nil, err
	}
	return &offline{schema: c.Schema(), counter: ctr}, nil
}

// checkQueries compares served query answers with the offline
// estimator over the same filters.
func (o *offline) checkQueries(rep *report, filters []mining.Itemset, served []service.QueryEstimate) {
	want, err := query.NewLiveCounterEngine(o.counter)
	if err == nil {
		var ests []query.Estimate
		if ests, err = want.CountAll(filters); err == nil {
			for i, e := range ests {
				s := served[i]
				if !near(s.Count, e.Count) || !near(s.StdErr, e.StdErr) || !near(s.Lo, e.Lo) || !near(s.Hi, e.Hi) || s.N != e.N {
					rep.fail("query answer %d (%s) = %+v, offline recomputation gives %+v", i, filters[i].FormatWith(o.schema), s, e)
					return
				}
			}
			return
		}
	}
	rep.fail("offline query recomputation: %v", err)
}

// checkMine compares a served mining result (fetched with a limit
// large enough to hold every itemset) with Apriori over the offline
// counter. An itemset present on one side only is tolerated when its
// offline support sits within tolerance of the threshold.
func (o *offline) checkMine(rep *report, resp *service.MineResponse, maxlen int) {
	want, err := mining.AprioriWithOptions(o.counter.Snapshot(), resp.MinSupport, mining.Options{CandidateRelaxation: 1, MaxLen: maxlen})
	if err != nil {
		rep.fail("offline Apriori: %v", err)
		return
	}
	if resp.Records != o.counter.N() {
		rep.fail("mine answered over %d records, %d were acknowledged", resp.Records, o.counter.N())
		return
	}
	got, err := mineResult(o.schema, resp)
	if err != nil {
		rep.fail("decoding mine answer: %v", err)
		return
	}
	wantAll, gotAll := want.All(), got.All()
	for key, w := range wantAll {
		g, ok := gotAll[key]
		switch {
		case !ok && !near(w.Support, resp.MinSupport):
			rep.fail("itemset %s (support %.9f) missing from the served mine", w.Items.FormatWith(o.schema), w.Support)
			return
		case ok && !near(g.Support, w.Support):
			rep.fail("itemset %s served support %.12f, offline %.12f", w.Items.FormatWith(o.schema), g.Support, w.Support)
			return
		}
	}
	for key, g := range gotAll {
		if _, ok := wantAll[key]; !ok && !near(g.Support, resp.MinSupport) {
			rep.fail("served itemset %s (support %.9f) not frequent offline", g.Items.FormatWith(o.schema), g.Support)
			return
		}
	}
}

// mineResult rebuilds a mining.Result from the wire answer.
func mineResult(schema *dataset.Schema, resp *service.MineResponse) (*mining.Result, error) {
	res := &mining.Result{MinSupport: resp.MinSupport}
	for _, is := range resp.Itemsets {
		var items []mining.Item
		for j, a := range schema.Attrs {
			if cat, ok := is.Items[a.Name]; ok {
				v := a.CategoryIndex(cat)
				if v < 0 {
					return nil, fmt.Errorf("unknown category %q", cat)
				}
				items = append(items, mining.Item{Attr: j, Value: v})
			}
		}
		if len(items) != len(is.Items) {
			return nil, fmt.Errorf("unknown attribute in %v", is.Items)
		}
		for len(res.ByLength) < len(items) {
			res.ByLength = append(res.ByLength, nil)
		}
		res.ByLength[len(items)-1] = append(res.ByLength[len(items)-1], mining.FrequentItemset{Items: items, Support: is.Support})
	}
	for _, level := range res.ByLength {
		sort.Slice(level, func(i, j int) bool { return level[i].Items.Key() < level[j].Items.Key() })
	}
	return res, nil
}

// truth counts the unperturbed records behind the acknowledged
// submissions, compressed to distinct records with multiplicities. It
// implements mining.SupportCounter, so exact Apriori runs over it.
type truth struct {
	schema *dataset.Schema
	index  map[int]int // domain index → position in recs
	recs   []dataset.Record
	weight []float64
	n      int
}

func newTruth(schema *dataset.Schema) *truth {
	return &truth{schema: schema, index: map[int]int{}}
}

// add counts rec times times.
func (t *truth) add(rec dataset.Record, times int) error {
	idx, err := t.schema.Index(rec)
	if err != nil {
		return err
	}
	i, ok := t.index[idx]
	if !ok {
		i = len(t.recs)
		t.index[idx] = i
		t.recs = append(t.recs, rec)
		t.weight = append(t.weight, 0)
	}
	t.weight[i] += float64(times)
	t.n += times
	return nil
}

func (t *truth) N() int                  { return t.n }
func (t *truth) Schema() *dataset.Schema { return t.schema }

func (t *truth) Supports(cands []mining.Itemset) ([]float64, error) {
	out := make([]float64, len(cands))
	for i, c := range cands {
		for k, r := range t.recs {
			if c.Supports(r) {
				out[i] += t.weight[k]
			}
		}
	}
	return out, nil
}

// accuracy holds the paper's error measures for one final answer set.
type accuracy struct {
	SupportErrPct  float64 `json:"support_error_pct"`
	IdentityPosPct float64 `json:"identity_error_pos_pct"`
	IdentityNegPct float64 `json:"identity_error_neg_pct"`
	TrueItemsets   int     `json:"true_itemsets"`
	MinedItemsets  int     `json:"mined_itemsets"`
	CICovered      int     `json:"ci_covered"`
	CITotal        int     `json:"ci_total"`
}

// evaluate compares the final mine with exact Apriori over the truth
// (ρ, σ+, σ− via internal/metrics) and counts the query CIs that hold
// the exact count.
func (t *truth) evaluate(schema *dataset.Schema, resp *service.MineResponse, maxlen int, filters []mining.Itemset, served []service.QueryEstimate) (*accuracy, error) {
	exact, err := mining.AprioriWithOptions(t, resp.MinSupport, mining.Options{CandidateRelaxation: 1, MaxLen: maxlen})
	if err != nil {
		return nil, err
	}
	mined, err := mineResult(schema, resp)
	if err != nil {
		return nil, err
	}
	ev, err := metrics.Evaluate(exact, mined)
	if err != nil {
		return nil, err
	}
	acc := &accuracy{
		SupportErrPct:  ev.Overall.SupportError,
		IdentityPosPct: ev.Overall.FalsePositives,
		IdentityNegPct: ev.Overall.FalseNegatives,
		TrueItemsets:   ev.Overall.TrueCount,
		MinedItemsets:  ev.Overall.MinedCount,
	}
	counts, _ := t.Supports(filters)
	for i, e := range served {
		acc.CITotal++
		if e.Lo <= counts[i] && counts[i] <= e.Hi {
			acc.CICovered++
		}
	}
	return acc, nil
}

func (a *accuracy) coverage() float64 { return float64(a.CICovered) / float64(a.CITotal) }
