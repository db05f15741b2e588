package mining

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// TestShardedMatchesSingleShard is the sharding correctness contract:
// because every record lands entirely in one shard and the histograms
// hold integer-valued counts, the merged supports must equal the
// single-counter supports bit for bit — not approximately.
func TestShardedMatchesSingleShard(t *testing.T) {
	db := buildSkewedDB(t, 20000, 70)
	sc := db.Schema
	m, err := core.NewGammaDiagonal(sc.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewGammaPerturber(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(71)))
	if err != nil {
		t.Fatal(err)
	}

	single, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.AddDatabase(pdb); err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedGammaCounter(sc, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards() != 5 {
		t.Fatalf("shards = %d, want 5", sharded.Shards())
	}
	if err := sharded.AddDatabase(pdb); err != nil {
		t.Fatal(err)
	}
	if sharded.N() != single.N() || sharded.Schema() != sc {
		t.Fatal("counter metadata wrong")
	}

	cands := []Itemset{
		{{0, 0}},
		{{1, 1}},
		{{0, 0}, {1, 0}},
		{{0, 1}, {2, 3}},
		{{0, 0}, {1, 0}, {2, 0}},
	}
	a, err := single.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharded.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if a[i] != b[i] {
			t.Fatalf("candidate %s: single %v vs sharded %v", cands[i].Key(), a[i], b[i])
		}
	}

	// The merged snapshot must agree too, and full Apriori through both
	// counters must produce identical models.
	snap := sharded.Snapshot()
	c, err := snap.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if a[i] != c[i] {
			t.Fatalf("candidate %s: single %v vs merged snapshot %v", cands[i].Key(), a[i], c[i])
		}
	}
	r1, err := Apriori(single, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Apriori(sharded, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := r1.All(), r2.All()
	if len(k1) != len(k2) {
		t.Fatalf("single found %d itemsets, sharded %d", len(k1), len(k2))
	}
	for k, f := range k1 {
		g, ok := k2[k]
		if !ok || f.Support != g.Support {
			t.Fatalf("itemset %s differs", k)
		}
	}
}

// TestShardedLargeCandidateBatch exercises the parallel worker-span path
// in Supports (small batches run inline), checking every candidate
// against the single counter.
func TestShardedLargeCandidateBatch(t *testing.T) {
	db := buildSkewedDB(t, 5000, 72)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	single, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedGammaCounter(sc, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	if err := sharded.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Repeat the full cross-product of pairs until the batch is wide
	// enough to fan out across workers.
	var cands []Itemset
	for rep := 0; rep < 40; rep++ {
		for va := 0; va < 3; va++ {
			for vc := 0; vc < 4; vc++ {
				cands = append(cands, Itemset{{0, va}, {2, vc}})
			}
		}
	}
	a, err := single.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharded.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if a[i] != b[i] {
			t.Fatalf("candidate %d: single %v vs sharded %v", i, a[i], b[i])
		}
	}
	// Errors must surface from inside worker spans as well.
	bad := make([]Itemset, len(cands))
	copy(bad, cands)
	bad[len(bad)/2] = Itemset{{Attr: 9, Value: 0}}
	if _, err := sharded.Supports(bad); err == nil {
		t.Fatal("invalid candidate accepted in parallel span")
	}
	dup := make([]Itemset, len(cands))
	copy(dup, cands)
	dup[3] = Itemset{{0, 0}, {0, 1}}
	if _, err := sharded.Supports(dup); !errors.Is(err, ErrMining) {
		t.Fatal("duplicate-attribute candidate accepted")
	}
}

func TestShardedValidation(t *testing.T) {
	db := buildSkewedDB(t, 10, 73)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	wrong, _ := core.NewGammaDiagonal(sc.DomainSize()+1, 19)
	if _, err := NewShardedGammaCounter(sc, wrong, 2); !errors.Is(err, ErrMining) {
		t.Fatal("order mismatch accepted")
	}
	c, err := NewShardedGammaCounter(sc, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() < 1 {
		t.Fatalf("defaulted shards = %d", c.Shards())
	}
	if err := c.Add(dataset.Record{9, 9, 9}); err == nil {
		t.Fatal("invalid record accepted")
	}
	other := dataset.NewDatabase(dataset.CensusSchema(), 0)
	if err := c.AddDatabase(other); !errors.Is(err, ErrMining) {
		t.Fatal("schema mismatch accepted")
	}
	if out, err := c.Supports(nil); err != nil || out != nil {
		t.Fatal("empty candidate batch mishandled")
	}
}

// TestShardedConcurrentIngestSnapshotMine hammers the counter from
// concurrent submitters while snapshots, supports, and full Apriori runs
// interleave — the service's live workload. Run with -race.
func TestShardedConcurrentIngestSnapshotMine(t *testing.T) {
	db := buildSkewedDB(t, 8000, 74)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, err := NewShardedGammaCounter(sc, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const writers = 8
	per := db.N() / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			for _, rec := range db.Records[lo : lo+per] {
				if err := c.Add(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(w * per)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		cand := []Itemset{{{0, 0}}, {{1, 0}, {2, 0}}}
		for i := 0; i < 50; i++ {
			if c.N() == 0 {
				continue
			}
			if _, err := c.Supports(cand); err != nil {
				t.Error(err)
				return
			}
			snap := c.Snapshot()
			if snap.N() > 0 {
				if _, err := Apriori(snap, 0.2); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if c.N() != writers*per {
		t.Fatalf("ingested %d, want %d", c.N(), writers*per)
	}
	// Sharding must spread a concurrent load: no shard may end up empty.
	for i, s := range c.shards {
		if s.N() == 0 {
			t.Fatalf("shard %d empty after %d round-robin adds", i, c.N())
		}
	}
}

// TestShardedPersistRoundTrip persists a sharded counter (its full
// delta, the checkpoint body) and restores it at
// the same, a smaller, and a larger shard count, plus across the
// single↔sharded boundary in both directions — supports must be
// identical every time.
func TestShardedPersistRoundTrip(t *testing.T) {
	db := buildSkewedDB(t, 3000, 75)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	orig, err := NewShardedGammaCounter(sc, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	cands := []Itemset{{{0, 0}}, {{0, 0}, {1, 0}}, {{1, 1}, {2, 3}}}
	want, err := orig.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := NewGammaScheme(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	state, err := orig.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{4, 2, 7} {
		back, err := restoreCounter(scheme, shards, state)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != orig.N() || back.Shards() != shards {
			t.Fatalf("restored N=%d shards=%d", back.N(), back.Shards())
		}
		got, err := back.Supports(cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("shards=%d candidate %d: %v vs %v", shards, i, want[i], got[i])
			}
		}
		// The restored counter keeps working as a live counter.
		if err := back.Add(dataset.Record{0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		if back.N() != orig.N()+1 {
			t.Fatal("restored counter not live")
		}
	}

	// Sharded state → single counter.
	merged, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.ApplyDelta(state); err != nil {
		t.Fatal(err)
	}
	got, err := merged.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("merged candidate %d: %v vs %v", i, want[i], got[i])
		}
	}

	// Single counter's state → sharded counter.
	back, err := restoreCounter(scheme, 3, fullDelta(t, merged))
	if err != nil {
		t.Fatal(err)
	}
	got, err = back.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("single-counter restore candidate %d: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestShardedLoadRejectsBadState(t *testing.T) {
	db := buildSkewedDB(t, 200, 76)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, _ := NewShardedGammaCounter(sc, m, 2)
	if err := c.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	state, err := c.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}

	other := dataset.CensusSchema()
	om, _ := core.NewGammaDiagonal(other.DomainSize(), 19)
	otherScheme, _ := NewGammaScheme(other, om)
	if _, err := restoreCounter(otherScheme, 2, state); !errors.Is(err, ErrMining) {
		t.Fatal("mismatched schema accepted")
	}
	m2, _ := core.NewGammaDiagonal(sc.DomainSize(), 9)
	otherMatrix, _ := NewGammaScheme(sc, m2)
	if _, err := restoreCounter(otherMatrix, 2, state); !errors.Is(err, ErrMining) {
		t.Fatal("mismatched matrix accepted")
	}
	// A tampered record count must be rejected.
	scheme, _ := NewGammaScheme(sc, m)
	tampered := *state
	tampered.Records += 5
	if _, err := restoreCounter(scheme, 2, &tampered); !errors.Is(err, ErrMining) {
		t.Fatal("inconsistent record total accepted")
	}
}

// TestShardedSnapshotVersion pins the snapshot-version contract the
// collection service's result cache depends on: the version advances
// exactly once per fully ingested record, a versioned snapshot contains
// at least every record visible at its reported version, and a state
// restore resumes the version line at the restored count.
func TestShardedSnapshotVersion(t *testing.T) {
	db := buildSkewedDB(t, 500, 77)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, err := NewShardedGammaCounter(sc, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.Version() != 0 {
		t.Fatalf("fresh counter version %d", c.Version())
	}
	for i, rec := range db.Records {
		if err := c.Add(rec); err != nil {
			t.Fatal(err)
		}
		if c.Version() != uint64(i+1) {
			t.Fatalf("after %d adds version %d", i+1, c.Version())
		}
	}
	snap, v := c.SnapshotVersioned()
	if v != uint64(db.N()) || snap.N() != db.N() {
		t.Fatalf("quiescent snapshot (N=%d, v=%d), want both %d", snap.N(), v, db.N())
	}

	// Under concurrent ingestion the guarantee weakens to snap.N() >= v:
	// the version is read before the fold, so everything visible at v is
	// inside the snapshot, and later arrivals can only add to it.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range db.Records {
			if err := c.Add(rec); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		snap, v := c.SnapshotVersioned()
		if uint64(snap.N()) < v {
			t.Fatalf("snapshot N=%d below its version %d", snap.N(), v)
		}
	}
	wg.Wait()

	state, err := c.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	scheme, _ := NewGammaScheme(sc, m)
	restored, err := restoreCounter(scheme, 2, state)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Version() != uint64(restored.N()) || restored.N() != 2*db.N() {
		t.Fatalf("restored version %d, N %d", restored.Version(), restored.N())
	}
}
