package frapp

// One benchmark per table and figure of the paper's evaluation
// (Section 7), plus ablation benches for the design decisions called out
// in DESIGN.md §5. Each figure bench runs the same harness the
// frapp-bench command uses, at the paper's dataset sizes; the ablations
// isolate individual mechanisms.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/linalg"
	"repro/internal/mining"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/stats"
)

var benchState struct {
	once   sync.Once
	cfg    experiment.Config
	census *experiment.Bundle
	health *experiment.Bundle
	err    error
}

// benchBundles prepares the paper-scale datasets once for all benches.
func benchBundles(b *testing.B) (experiment.Config, *experiment.Bundle, *experiment.Bundle) {
	b.Helper()
	benchState.once.Do(func() {
		benchState.cfg = experiment.DefaultConfig()
		benchState.census, benchState.err = experiment.LoadCensus(benchState.cfg)
		if benchState.err != nil {
			return
		}
		benchState.health, benchState.err = experiment.LoadHealth(benchState.cfg)
	})
	if benchState.err != nil {
		b.Fatal(benchState.err)
	}
	return benchState.cfg, benchState.census, benchState.health
}

// BenchmarkTable1CensusSchema regenerates the paper's Table 1.
func BenchmarkTable1CensusSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2HealthSchema regenerates the paper's Table 2.
func BenchmarkTable2HealthSchema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiment.Table2() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3FrequentItemsets regenerates Table 3: exact Apriori over
// both datasets at supmin = 2%.
func BenchmarkTable3FrequentItemsets(b *testing.B) {
	cfg, census, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bun := range []*experiment.Bundle{census, health} {
			res, err := mining.Apriori(&mining.ExactCounter{DB: bun.DB}, cfg.MinSupport)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.ByLength) == 0 {
				b.Fatal("no frequent itemsets")
			}
		}
	}
	b.ReportMetric(float64(len(census.Truth.Counts())), "census-max-len")
	b.ReportMetric(float64(len(health.Truth.Counts())), "health-max-len")
}

// BenchmarkFig1CensusAccuracy regenerates Figure 1: all four schemes'
// support and identity errors on CENSUS.
func BenchmarkFig1CensusAccuracy(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.AccuracyStudy(census, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Runs) != 4 {
			b.Fatal("missing scheme runs")
		}
	}
}

// BenchmarkFig2HealthAccuracy regenerates Figure 2 on HEALTH.
func BenchmarkFig2HealthAccuracy(b *testing.B) {
	cfg, _, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.AccuracyStudy(health, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Runs) != 4 {
			b.Fatal("missing scheme runs")
		}
	}
}

// BenchmarkFig3Randomization regenerates Figure 3: the α sweep of
// posterior ranges and length-4 support errors (CENSUS panel; the HEALTH
// panel is the same harness on the other bundle).
func BenchmarkFig3Randomization(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiment.RandomizationStudy(census, cfg, 11, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Points) != 11 {
			b.Fatal("missing sweep points")
		}
	}
}

// BenchmarkFig4ConditionNumbers regenerates Figure 4: reconstruction
// matrix condition numbers per itemset length for both datasets.
func BenchmarkFig4ConditionNumbers(b *testing.B) {
	cfg, census, health := benchBundles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bun := range []*experiment.Bundle{census, health} {
			fig, err := experiment.ConditionStudy(bun, cfg, bun.DB.Schema.M())
			if err != nil {
				b.Fatal(err)
			}
			if len(fig.Lengths) != bun.DB.Schema.M() {
				b.Fatal("missing lengths")
			}
		}
	}
}

// --- Ablation: closed-form vs LU reconstruction solve (DESIGN.md §5) ---

func benchSolveSetup(b *testing.B) (core.UniformMatrix, []float64) {
	b.Helper()
	m, err := core.NewGammaDiagonal(2000, 19)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, 2000)
	for i := range y {
		y[i] = rng.Float64() * 100
	}
	return m, y
}

func BenchmarkAblationSolverClosedForm(b *testing.B) {
	m, y := benchSolveSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Solve(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSolverLU(b *testing.B) {
	m, y := benchSolveSetup(b)
	dense := m.Dense()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.Solve(dense, y); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: Section 5 perturbation, O(M) chained vs O(|S_V|) naive ---

func benchPerturbSetup(b *testing.B) (*dataset.Schema, core.UniformMatrix, dataset.Record) {
	b.Helper()
	s := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	return s, m, dataset.Record{0, 1, 1, 0, 1, 0}
}

func BenchmarkAblationPerturbChained(b *testing.B) {
	s, m, rec := benchPerturbSetup(b)
	p, err := core.NewGammaPerturber(s, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Perturb(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPerturbNaiveCDF(b *testing.B) {
	s, m, rec := benchPerturbSetup(b)
	p, err := core.NewNaiveGammaPerturber(s, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Perturb(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: discrete sampling, alias method vs linear CDF walk ---

func benchSamplerWeights(b *testing.B) []float64 {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	w := make([]float64, 2000)
	for i := range w {
		w[i] = rng.Float64()
	}
	return w
}

func BenchmarkAblationSamplingAlias(b *testing.B) {
	s, err := stats.NewAliasSampler(benchSamplerWeights(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

func BenchmarkAblationSamplingCDF(b *testing.B) {
	s, err := stats.NewCDFSampler(benchSamplerWeights(b))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sample(rng)
	}
}

// --- Scheme perturbation throughput (records/op) ---

func BenchmarkPerturbThroughputDetGD(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PerturbDatabase(census.DB, p, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

func BenchmarkPerturbThroughputMask(b *testing.B) {
	_, census, _ := benchBundles(b)
	bm, err := core.NewBoolMapping(census.DB.Schema)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := core.NewMaskSchemeForPrivacy(bm, 19)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.PerturbDatabase(census.DB, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

func BenchmarkPerturbThroughputCutPaste(b *testing.B) {
	_, census, _ := benchBundles(b)
	bm, err := core.NewBoolMapping(census.DB.Schema)
	if err != nil {
		b.Fatal(err)
	}
	sch, err := core.NewCutPasteScheme(bm, 3, 0.494)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sch.PerturbDatabase(census.DB, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

// BenchmarkMiningReconstruction isolates the miner-side cost: Apriori
// with gamma reconstruction over a pre-perturbed CENSUS database.
func BenchmarkMiningReconstruction(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewGammaCounter(pdb, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches: classification and the collection service ---

// BenchmarkPrivateNaiveBayesTrain measures training the Naive Bayes
// classifier from gamma-perturbed CENSUS data (reconstruction included).
func BenchmarkPrivateNaiveBayesTrain(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.TrainPerturbed(pdb, m, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceSubmit measures the HTTP submission path end to end
// (client-side perturbation + POST + server-side validation/storage).
func BenchmarkServiceSubmit(b *testing.B) {
	srv, err := service.NewServer(dataset.CensusSchema(), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	rec := dataset.Record{0, 1, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit(rec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCounterScan vs BenchmarkAblationCounterMaterialized:
// the per-query database-scanning counter against the incrementally
// materialized counter, for repeated mining of the same collection (the
// service's workload). Materialization pays O(M·2^M) per insert to make
// each mining query O(candidates).
func BenchmarkAblationCounterScan(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewGammaCounter(pdb, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCounterMaterialized(b *testing.B) {
	cfg, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(census.DB, p, rand.New(rand.NewSource(13)))
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewMaterializedGammaCounter(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	if err := counter.AddDatabase(pdb); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mining.Apriori(counter, cfg.MinSupport); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializedInsert isolates the per-record ingestion cost of
// the materialized counter (the price of instant mining).
func BenchmarkMaterializedInsert(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	counter, err := mining.NewMaterializedGammaCounter(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	rec := dataset.Record{0, 1, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := counter.Add(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Concurrent ingestion: single-mutex vs sharded counter ---

// ingestCounter is the submission-side surface shared by the
// single-striped and sharded counters.
type ingestCounter interface {
	Add(dataset.Record) error
	Snapshot() mining.SupportCounter
}

// singleCounter adapts the single-mutex counter's concrete Snapshot to
// the shared bench surface.
type singleCounter struct {
	*mining.MaterializedGammaCounter
}

func (s singleCounter) Snapshot() mining.SupportCounter { return s.MaterializedGammaCounter.Snapshot() }

// benchConcurrentIngest splits b.N submissions across g goroutines — the
// shape of g HTTP handlers draining a busy submit endpoint.
func benchConcurrentIngest(b *testing.B, c ingestCounter, g int) {
	b.Helper()
	recs := [4]dataset.Record{
		{0, 1, 1, 0, 1, 0},
		{1, 0, 2, 1, 0, 1},
		{2, 1, 0, 1, 1, 0},
		{0, 0, 3, 0, 0, 1},
	}
	b.ResetTimer()
	if err := core.ForEachSpan(b.N, g, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := c.Add(recs[i&3]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkConcurrentIngest compares ingestion throughput of the
// single-mutex MaterializedGammaCounter against the lock-striped
// ShardedGammaCounter under 1, 4, and 8 concurrent submitters. The
// single counter serializes every O(M·2^M) histogram update on one lock,
// so its throughput is flat in the submitter count; the sharded counter
// is expected to scale roughly linearly up to the core count.
func BenchmarkConcurrentIngest(b *testing.B) {
	sc := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("single/submitters=%d", g), func(b *testing.B) {
			c, err := mining.NewMaterializedGammaCounter(sc, m)
			if err != nil {
				b.Fatal(err)
			}
			benchConcurrentIngest(b, singleCounter{c}, g)
		})
		b.Run(fmt.Sprintf("sharded/submitters=%d", g), func(b *testing.B) {
			c, err := mining.NewShardedGammaCounter(sc, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			benchConcurrentIngest(b, c, g)
		})
	}
}

// BenchmarkConcurrentIngestAndMine is the mixed service workload: 4
// submitters ingest while a background miner periodically snapshots and
// runs Apriori over the live counter (1ms between passes — a busy /v1/mine
// endpoint). Measures ingestion throughput under mining interference
// (the sharded counter only blocks one shard at a time while the
// snapshot folds).
func BenchmarkConcurrentIngestAndMine(b *testing.B) {
	sc := dataset.CensusSchema()
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	const submitters = 4
	run := func(b *testing.B, c ingestCounter) {
		// Seed so the miner always has data.
		if err := c.Add(dataset.Record{0, 1, 1, 0, 1, 0}); err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var minerWg sync.WaitGroup
		minerWg.Add(1)
		go func() {
			defer minerWg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				snap := c.Snapshot()
				if _, err := mining.Apriori(snap, 0.05); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		benchConcurrentIngest(b, c, submitters)
		b.StopTimer()
		close(stop)
		minerWg.Wait()
	}
	b.Run("single", func(b *testing.B) {
		c, err := mining.NewMaterializedGammaCounter(sc, m)
		if err != nil {
			b.Fatal(err)
		}
		run(b, singleCounter{c})
	})
	b.Run("sharded", func(b *testing.B) {
		c, err := mining.NewShardedGammaCounter(sc, m, 0)
		if err != nil {
			b.Fatal(err)
		}
		run(b, c)
	})
}

// --- Mining jobs: snapshot-versioned result cache ---

// benchMineServer starts a collection service with data already
// ingested, for the cached-mining benches.
func benchMineServer(b *testing.B) (*service.Server, *service.Client) {
	b.Helper()
	srv, err := service.NewServer(dataset.CensusSchema(), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client, err := service.NewClient(ts.URL, service.WithHTTPClient(ts.Client()))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	recs := make([]dataset.Record, 5000)
	for i := range recs {
		recs[i] = dataset.Record{rng.Intn(4), rng.Intn(5), rng.Intn(5), rng.Intn(5), rng.Intn(2), rng.Intn(2)}
	}
	if err := client.SubmitBatch(recs, rng); err != nil {
		b.Fatal(err)
	}
	return srv, client
}

// BenchmarkServiceMineCached measures repeated mining of an UNCHANGED
// collection end to end over HTTP: after the first request every mine
// is a cache hit keyed by (snapshot version, minsup, scheme, maxlen),
// so the cost is JSON rendering, not Apriori.
func BenchmarkServiceMineCached(b *testing.B) {
	_, client := benchMineServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Mine(0.05, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceMineUncached is the contrast: one submission between
// mines bumps the snapshot version, so every request re-runs Apriori.
func BenchmarkServiceMineUncached(b *testing.B) {
	_, client := benchMineServer(b)
	rng := rand.New(rand.NewSource(15))
	rec := dataset.Record{0, 1, 1, 0, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.Submit(rec, rng); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Mine(0.05, 0, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Interactive queries: counter-backed vs record-scan estimation ---

// benchQueryData builds a perturbed CENSUS-like collection of n records
// plus a batch of 32 conjunctive filters (arity 1–3).
func benchQueryData(b *testing.B, n int) (*dataset.Database, core.UniformMatrix, []mining.Itemset) {
	b.Helper()
	sc := dataset.CensusSchema()
	db, err := dataset.GenerateCensus(n, 21)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(db.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(22)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	filters := make([]mining.Itemset, 32)
	for i := range filters {
		arity := 1 + rng.Intn(3)
		perm := rng.Perm(db.Schema.M())[:arity]
		items := make([]mining.Item, arity)
		for k, j := range perm {
			items[k] = mining.Item{Attr: j, Value: rng.Intn(db.Schema.Attrs[j].Cardinality())}
		}
		f, err := mining.NewItemset(items...)
		if err != nil {
			b.Fatal(err)
		}
		filters[i] = f
	}
	return pdb, m, filters
}

// BenchmarkQueryCounterVsScan compares one /v1/query-sized batch (32
// filters) answered by the record-scan engine (O(N) per filter) against
// the counter-backed engine (O(#filters) histogram lookups), at two
// collection sizes. The scan path scales with N; the counter path does
// not — that gap is why the service answers interactive queries from
// the live counter.
func BenchmarkQueryCounterVsScan(b *testing.B) {
	for _, n := range []int{5000, 50000} {
		pdb, m, filters := benchQueryData(b, n)
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			eng, err := query.NewEngine(pdb, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CountAll(filters); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("counter/n=%d", n), func(b *testing.B) {
			ctr, err := mining.NewShardedGammaCounter(pdb.Schema, m, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := ctr.AddDatabase(pdb); err != nil {
				b.Fatal(err)
			}
			eng, err := query.NewCounterEngine(ctr, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.CountAll(filters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPerturbParallel vs the serial DET-GD throughput bench:
// client-side perturbation across a worker pool.
func BenchmarkPerturbParallel(b *testing.B) {
	_, census, _ := benchBundles(b)
	m, err := core.NewGammaDiagonal(census.DB.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(census.DB.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PerturbDatabaseParallel(census.DB, p, int64(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(census.DB.N()), "records/op")
}

// --- Boolean core: pattern-count gather ---

// benchWideBinarySchema has 20 binary attributes (40 boolean columns),
// the widest itemsets the boolean core accepts.
func benchWideBinarySchema(b *testing.B) *dataset.Schema {
	attrs := make([]dataset.Attribute, 20)
	for j := range attrs {
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("b%02d", j), Categories: []string{"no", "yes"}}
	}
	s, err := dataset.NewSchema("wide-binary", attrs)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchMaskCounter MASK-perturbs db and ingests it into a live counter
// of the given shard count.
func benchMaskCounter(b *testing.B, db *dataset.Database, shards int) *mining.ShardedCounter {
	scheme, err := mining.SchemeForContract(mining.SchemeMask, db.Schema, 19)
	if err != nil {
		b.Fatal(err)
	}
	ms := scheme.(*mining.MaskCounterScheme).Mask()
	bdb, err := ms.PerturbDatabase(db, rand.New(rand.NewSource(31)))
	if err != nil {
		b.Fatal(err)
	}
	ctr, err := mining.NewShardedCounter(scheme, shards)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range bdb.Rows {
		var items []mining.Item
		for j, a := range db.Schema.Attrs {
			for v := range a.Categories {
				if row&(1<<uint(ms.Mapping.Offsets[j]+v)) != 0 {
					items = append(items, mining.Item{Attr: j, Value: v})
				}
			}
		}
		if err := ctr.Ingest(items); err != nil {
			b.Fatal(err)
		}
	}
	return ctr
}

// benchFilters draws count itemsets with arity in [lo, hi].
func benchFilters(b *testing.B, s *dataset.Schema, count, lo, hi int, rng *rand.Rand) []mining.Itemset {
	out := make([]mining.Itemset, count)
	for i := range out {
		arity := lo + rng.Intn(hi-lo+1)
		items := make([]mining.Item, arity)
		for k, j := range rng.Perm(s.M())[:arity] {
			items[k] = mining.Item{Attr: j, Value: rng.Intn(s.Attrs[j].Cardinality())}
		}
		f, err := mining.NewItemset(items...)
		if err != nil {
			b.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// BenchmarkBoolGather measures the MASK/C&P read path below the
// estimator: the 2^l pattern counts of every filter in a batch, over a
// MASK-perturbed collection of n records. census/arity1-4 is a
// /v1/query-sized batch of 32 filters; census/arity6 fills all 2^6
// patterns; wide/len20 enumerates the 2^20 patterns of the longest
// itemset the core accepts, on a 20-binary-attribute schema.
func BenchmarkBoolGather(b *testing.B) {
	wide := benchWideBinarySchema(b)
	for _, n := range []int{9000, 100000} {
		census, err := dataset.GenerateCensus(n, 21)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		wideDB := dataset.NewDatabase(wide, n)
		for i := 0; i < n; i++ {
			rec := make(dataset.Record, wide.M())
			for j := range rec {
				rec[j] = rng.Intn(2)
			}
			if err := wideDB.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		// One shard, so a read gathers exactly one core.
		censusCtr, wideCtr := benchMaskCounter(b, census, 1), benchMaskCounter(b, wideDB, 1)
		cases := []struct {
			name    string
			ctr     *mining.ShardedCounter
			filters []mining.Itemset
		}{
			{"census/arity1-4", censusCtr, benchFilters(b, census.Schema, 32, 1, 4, rng)},
			{"census/arity6", censusCtr, benchFilters(b, census.Schema, 32, 6, 6, rng)},
			{"wide/len20", wideCtr, benchFilters(b, wide, 1, 20, 20, rng)},
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for b.Loop() {
					if _, _, err := c.ctr.PerturbedSupports(c.filters); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Mining path: snapshot fold + Apriori, per layer ---

// BenchmarkMinePath measures one uncached /v1/mine below the HTTP
// layer, split into its two layers: the snapshot fold of the shards
// (snapshot-ms/op) and the Apriori run over it (apriori-ms/op), with
// minsup cycling over 0.02–0.10 as the perfbench analysts do.
// gamma-health is 100k DET-GD-perturbed HEALTH records on 2 shards,
// mined to full depth; mask-census is 8.75k MASK-perturbed CENSUS
// records on 2 shards, mined to maxlen 2.
func BenchmarkMinePath(b *testing.B) {
	health, err := dataset.GenerateHealth(100_000, 21)
	if err != nil {
		b.Fatal(err)
	}
	gammaScheme, err := mining.SchemeForContract(mining.SchemeGamma, health.Schema, 19)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewGammaDiagonal(health.Schema.DomainSize(), 19)
	if err != nil {
		b.Fatal(err)
	}
	p, err := core.NewGammaPerturber(health.Schema, m)
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := core.PerturbDatabase(health, p, rand.New(rand.NewSource(22)))
	if err != nil {
		b.Fatal(err)
	}
	gammaCtr, err := mining.NewShardedCounter(gammaScheme, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := gammaCtr.AddDatabase(perturbed); err != nil {
		b.Fatal(err)
	}
	census, err := dataset.GenerateCensus(8750, 23)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		ctr    *mining.ShardedCounter
		maxLen int
	}{
		{"gamma-health", gammaCtr, 0},
		{"mask-census", benchMaskCounter(b, census, 2), 2},
	}
	minsups := []float64{0.02, 0.04, 0.06, 0.08, 0.10}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var snapshot, apriori time.Duration
			i := 0
			for b.Loop() {
				t0 := time.Now()
				snap, _ := c.ctr.SnapshotVersioned()
				t1 := time.Now()
				if _, err := mining.AprioriWithOptions(snap, minsups[i%len(minsups)], mining.Options{CandidateRelaxation: 1, MaxLen: c.maxLen}); err != nil {
					b.Fatal(err)
				}
				snapshot += t1.Sub(t0)
				apriori += time.Since(t1)
				i++
			}
			b.ReportMetric(float64(snapshot.Nanoseconds())/1e6/float64(i), "snapshot-ms/op")
			b.ReportMetric(float64(apriori.Nanoseconds())/1e6/float64(i), "apriori-ms/op")
		})
	}
}
