package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/service"
)

// Inputs come from two seeds. The dataset — the unperturbed population
// and every record's perturbation — is drawn from the fixed dataSeed,
// like the paper's fixed CENSUS and HEALTH data: at these sizes the
// reconstruction noise decides how many itemsets Apriori explores, so a
// fresh perturbed collection per run would make mine cost vary from
// run to run by far more than any regression worth catching. The
// workload seed draws what the analysts ask: the query filters and the
// sequence of mining thresholds. Sub-streams get their own seeds so
// that, for example, the filters do not change when the number of
// prepared batches does.
const dataSeed = 1
const (
	streamPopulation = iota + 1
	streamPerturb
	streamFilters
	streamMinsup
)

func subSeed(seed int64, stream int) int64 { return seed*1_000_003 + int64(stream)*7_919 }

// batchSeed seeds the perturbation of prepared batch b.
func batchSeed(b int) int64 { return subSeed(dataSeed, streamPerturb) + int64(b) }

// population draws n unperturbed records from the schema's synthetic
// model (the stand-in for the paper's CENSUS and HEALTH data).
func population(schema string, n int) (*dataset.Database, error) {
	switch schema {
	case "census":
		return dataset.GenerateCensus(n, subSeed(dataSeed, streamPopulation))
	case "health":
		return dataset.GenerateHealth(n, subSeed(dataSeed, streamPopulation))
	}
	return nil, fmt.Errorf("unknown schema %q", schema)
}

// newClient fetches the contract from a running server through its own
// short-lived connection.
func newClient(base string) (*service.Client, error) {
	return service.NewClient(base, service.WithHTTPClient(&http.Client{Transport: &http.Transport{}}))
}

// prepareBatches perturbs records (record i is pop[i % len(pop)]) into
// n binary submit-batch bodies of size records each. Every record gets
// its own perturbation: batch b is drawn from its own rng, so the
// bodies are identical however many workers prepare them.
func prepareBatches(c *service.Client, pop []dataset.Record, n, size int) ([]*service.PreparedBatch, error) {
	out := make([]*service.PreparedBatch, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs := make([]dataset.Record, size)
			for b := w; b < n; b += 2 {
				for i := range recs {
					recs[i] = pop[(b*size+i)%len(pop)]
				}
				rng := rand.New(rand.NewSource(batchSeed(b)))
				p, err := c.PrepareBatchWire(recs, rng, service.WireBinary)
				if err != nil {
					errs[w] = err
					return
				}
				out[b] = p
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepareSingles perturbs each record into a one-record /v1/submit JSON
// body — the per-respondent wire form.
func prepareSingles(c *service.Client, recs []dataset.Record) ([][]byte, error) {
	out := make([][]byte, len(recs))
	rng := rand.New(rand.NewSource(subSeed(dataSeed, streamPerturb) - 1))
	for i, rec := range recs {
		p, err := c.PrepareBatchWire([]dataset.Record{rec}, rng, service.WireJSON)
		if err != nil {
			return nil, err
		}
		body := p.Body()
		if len(body) < 2 || body[0] != '[' || body[len(body)-1] != ']' {
			return nil, fmt.Errorf("unexpected JSON batch body %q", body)
		}
		out[i] = body[1 : len(body)-1]
	}
	return out, nil
}

// decodeBinaryBatch reads back a binary submit-batch body (magic
// "FRB1", record count, then per record an item count and attr/value
// index pairs, all uvarints) — the benchmark's independent view of the
// records it sent.
func decodeBinaryBatch(body []byte) ([][]mining.Item, error) {
	if !bytes.HasPrefix(body, []byte("FRB1")) {
		return nil, fmt.Errorf("binary batch without FRB1 magic")
	}
	off := 4
	next := func() (int, error) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, fmt.Errorf("truncated binary batch at byte %d", off)
		}
		off += n
		return int(v), nil
	}
	count, err := next()
	if err != nil {
		return nil, err
	}
	out := make([][]mining.Item, count)
	for r := range out {
		k, err := next()
		if err != nil {
			return nil, err
		}
		items := make([]mining.Item, k)
		for i := range items {
			if items[i].Attr, err = next(); err != nil {
				return nil, err
			}
			if items[i].Value, err = next(); err != nil {
				return nil, err
			}
		}
		out[r] = items
	}
	if off != len(body) {
		return nil, fmt.Errorf("binary batch has %d trailing bytes", len(body)-off)
	}
	return out, nil
}

// decodeSingle reads back a one-record JSON submission: attribute name
// → category for gamma, attribute name → list of categories for the
// boolean schemes.
func decodeSingle(schema *dataset.Schema, scheme string, body []byte) ([]mining.Item, error) {
	rec := service.BoolRecordJSON{}
	if scheme == mining.SchemeGamma {
		var flat service.RecordJSON
		if err := json.Unmarshal(body, &flat); err != nil {
			return nil, err
		}
		for k, v := range flat {
			rec[k] = []string{v}
		}
	} else if err := json.Unmarshal(body, &rec); err != nil {
		return nil, err
	}
	var items []mining.Item
	for j, a := range schema.Attrs {
		for _, cat := range rec[a.Name] {
			v := a.CategoryIndex(cat)
			if v < 0 {
				return nil, fmt.Errorf("unknown category %q for %s", cat, a.Name)
			}
			items = append(items, mining.Item{Attr: j, Value: v})
		}
	}
	return items, nil
}

// queryPool is a fixed set of filter batches: each filter conjoins 1–4
// attributes at the values of a randomly drawn population record, so
// filters follow the data's own co-occurrences.
type queryPool struct {
	filters []mining.Itemset // every filter, batch after batch
	bodies  [][]byte         // one /v1/query body per batch
}

func newQueryPool(schema *dataset.Schema, pop []dataset.Record, batches, size int, seed int64) (*queryPool, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, streamFilters)))
	qp := &queryPool{}
	for range batches {
		wire := make([]service.QueryFilter, size)
		for i := range wire {
			rec := pop[rng.Intn(len(pop))]
			k := 1 + rng.Intn(4)
			attrs := rng.Perm(schema.M())[:k]
			items := make([]mining.Item, k)
			wire[i] = service.QueryFilter{}
			for n, a := range attrs {
				items[n] = mining.Item{Attr: a, Value: rec[a]}
				wire[i][schema.Attrs[a].Name] = schema.Attrs[a].Categories[rec[a]]
			}
			set, err := mining.NewItemset(items...)
			if err != nil {
				return nil, err
			}
			qp.filters = append(qp.filters, set)
		}
		body, err := json.Marshal(map[string]any{"filters": wire})
		if err != nil {
			return nil, err
		}
		qp.bodies = append(qp.bodies, body)
	}
	return qp, nil
}

// minsupSequence returns n distinct minimum supports in [0.02, 0.10]
// (six decimals), so no two mines of one run share a cache key.
func minsupSequence(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(subSeed(seed, streamMinsup)))
	seen := map[int]bool{}
	out := make([]float64, 0, n)
	for len(out) < n {
		v := 20_000 + rng.Intn(80_001) // micro-units of support
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, float64(v)/1e6)
	}
	return out
}
