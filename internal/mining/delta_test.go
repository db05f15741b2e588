package mining

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// deltaTestSchema is a small 3-attribute schema (domain 24).
func deltaTestSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema("delta-test", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func deltaTestMatrix(t *testing.T, s *dataset.Schema) core.UniformMatrix {
	t.Helper()
	m, err := core.NewGammaDiagonal(s.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randomRecord(s *dataset.Schema, rng *rand.Rand) dataset.Record {
	rec := make(dataset.Record, s.M())
	for j, a := range s.Attrs {
		rec[j] = rng.Intn(a.Cardinality())
	}
	return rec
}

// countersEqual compares every subset histogram and the record count.
func countersEqual(t *testing.T, want, got *MaterializedGammaCounter) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("record count %d, want %d", got.N(), want.N())
	}
	want.mu.RLock()
	got.mu.RLock()
	defer want.mu.RUnlock()
	defer got.mu.RUnlock()
	for mask := 1; mask < len(want.hists); mask++ {
		for i := range want.hists[mask] {
			if math.Abs(want.hists[mask][i]-got.hists[mask][i]) > 1e-9 {
				t.Fatalf("mask %d cell %d: %v, want %v", mask, i, got.hists[mask][i], want.hists[mask][i])
			}
		}
	}
}

func TestDeltaSinceFullThenIncrementalReconstructsCounter(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(11))

	src, err := NewShardedGammaCounter(s, m, 4)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}

	since := uint64(0)
	total := 0
	for round := 0; round < 5; round++ {
		add := rng.Intn(40)
		for i := 0; i < add; i++ {
			if err := src.Add(randomRecord(s, rng)); err != nil {
				t.Fatal(err)
			}
		}
		total += add
		d, err := src.DeltaSince(since)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			if !d.Full() {
				t.Fatalf("first pull (since=0) not full: FromVersion=%d", d.FromVersion)
			}
		} else {
			if d.Full() {
				t.Fatalf("round %d: retained baseline %d not used", round, since)
			}
			if d.FromVersion != since {
				t.Fatalf("round %d: FromVersion %d, want %d", round, d.FromVersion, since)
			}
		}
		if d.ToVersion < since {
			t.Fatalf("round %d: ToVersion %d went backwards from %d", round, d.ToVersion, since)
		}
		if add > 0 && d.ToVersion <= since {
			t.Fatalf("round %d: ToVersion %d did not advance past %d after %d new records", round, d.ToVersion, since, add)
		}
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		since = d.ToVersion
	}
	if total == 0 {
		t.Fatal("degenerate test: no records added")
	}
	countersEqual(t, src.Snapshot().(*MaterializedGammaCounter), replica)
}

func TestDeltaSinceUnknownBaselineFallsBackToFull(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(3))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := src.DeltaSince(999999) // never issued
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatalf("unknown baseline served incrementally (FromVersion %d)", d.FromVersion)
	}
	if d.Records != 10 {
		t.Fatalf("full delta carries %d records, want 10", d.Records)
	}
}

func TestDeltaSinceEvictsOldCheckpoints(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(5))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxDeltaCheckpoints+2; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
		if _, err := src.DeltaSince(0); err != nil {
			t.Fatal(err)
		}
	}
	d, err := src.DeltaSince(first.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatal("evicted baseline still served incrementally")
	}
	src.ckptMu.Lock()
	retained := len(src.ckpts)
	src.ckptMu.Unlock()
	if retained > maxDeltaCheckpoints {
		t.Fatalf("%d checkpoints retained, cap %d", retained, maxDeltaCheckpoints)
	}
}

// TestDeltaSinceUnchangedCounterReusesToken: pulls that observe no new
// records reuse the newest baseline instead of churning the bounded
// ring — so a flood of since=0 pollers against an idle counter can
// never evict a replicator's retained baseline.
func TestDeltaSinceUnchangedCounterReusesToken(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(7))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	// A flood of fresh pollers on the unchanged counter.
	for i := 0; i < 3*maxDeltaCheckpoints; i++ {
		d, err := src.DeltaSince(0)
		if err != nil {
			t.Fatal(err)
		}
		if d.ToVersion != first.ToVersion {
			t.Fatalf("unchanged counter minted new token %d (want %d)", d.ToVersion, first.ToVersion)
		}
	}
	src.ckptMu.Lock()
	retained := len(src.ckpts)
	src.ckptMu.Unlock()
	if retained != 1 {
		t.Fatalf("%d checkpoints retained after idle flood, want 1", retained)
	}
	// The replicator's baseline survived: its next pull is incremental.
	if err := src.Add(randomRecord(s, rng)); err != nil {
		t.Fatal(err)
	}
	d, err := src.DeltaSince(first.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if d.Full() || d.Records != 1 {
		t.Fatalf("post-flood pull: full=%v records=%d, want incremental 1", d.Full(), d.Records)
	}
}

func TestApplyDeltaRejectsBadPayloads(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	c, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	fp := c.Fingerprint()
	cases := []struct {
		name string
		d    *CounterDelta
	}{
		{"nil", nil},
		{"fingerprint mismatch", &CounterDelta{Fingerprint: "bogus", Records: 1, Cells: []DeltaCell{{Idx: 0, Count: 1}}}},
		{"index out of range", &CounterDelta{Fingerprint: fp, Records: 1, Cells: []DeltaCell{{Idx: uint64(s.DomainSize()), Count: 1}}}},
		{"negative cell", &CounterDelta{Fingerprint: fp, Records: 0, Cells: []DeltaCell{{Idx: 0, Count: -1}}}},
		{"sum mismatch", &CounterDelta{Fingerprint: fp, Records: 5, Cells: []DeltaCell{{Idx: 0, Count: 1}}}},
		{"negative records", &CounterDelta{Fingerprint: fp, Records: -1}},
	}
	for _, tc := range cases {
		if err := c.ApplyDelta(tc.d); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if c.N() != 0 {
		t.Fatalf("rejected deltas mutated the counter: n=%d", c.N())
	}
}

func TestMergeMatchesUnion(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(17))

	union, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 3; site++ {
		part, err := NewMaterializedGammaCounter(s, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20+site*7; i++ {
			rec := randomRecord(s, rng)
			if err := part.Add(rec); err != nil {
				t.Fatal(err)
			}
			if err := union.Add(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	countersEqual(t, union, merged)

	// Reconstructed supports over the merged counter equal the union's.
	cands := []Itemset{}
	for v := 0; v < 3; v++ {
		set, err := NewItemset(Item{Attr: 0, Value: v})
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, set)
	}
	want, err := union.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-9 {
			t.Fatalf("support %d: %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMergeRejectsIncompatibleCounters(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	c1, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(nil); err == nil {
		t.Error("nil counter merged")
	}
	if err := c1.Merge(c1); err == nil {
		t.Error("self-merge accepted")
	}
	other, err := dataset.NewSchema("delta-test", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "x"}}, // one renamed category
	})
	if err != nil {
		t.Fatal(err)
	}
	om, err := core.NewGammaDiagonal(other.DomainSize(), 19)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewMaterializedGammaCounter(other, om)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(c2); err == nil {
		t.Error("mismatched category vocabulary merged")
	}
	// Same *Schema, different perturbation matrix: the counts live under
	// different distortions and must not merge either.
	m2, err := core.NewGammaDiagonal(s.DomainSize(), 7)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := NewMaterializedGammaCounter(s, m2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Merge(c3); err == nil {
		t.Error("shared-schema counter with different matrix merged")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	base := CompatibilityFingerprint(s, m)
	if base != CompatibilityFingerprint(s, m) {
		t.Fatal("fingerprint not deterministic")
	}
	m2 := m
	m2.Diag += 1e-9
	if CompatibilityFingerprint(s, m2) == base {
		t.Error("matrix change not reflected")
	}
	s2, err := dataset.NewSchema("delta-test-2", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if CompatibilityFingerprint(s2, m) == base {
		t.Error("schema name change not reflected")
	}
}

func TestNewShardedFromSnapshotServesMergedState(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(23))
	src, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	wrapped := NewShardedFromSnapshot(src.Snapshot())
	if wrapped.N() != 30 || wrapped.Version() != 30 || wrapped.Shards() != 1 {
		t.Fatalf("wrapped counter N=%d version=%d shards=%d", wrapped.N(), wrapped.Version(), wrapped.Shards())
	}
	set, err := NewItemset(Item{Attr: 1, Value: 0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.Supports([]Itemset{set})
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.Supports([]Itemset{set})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want[0]-got[0]) > 1e-9 {
		t.Fatalf("support %v, want %v", got[0], want[0])
	}
	// The wrapped counter participates in replication and persistence: a
	// full pull (also the checkpoint body) reproduces it.
	d, err := wrapped.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewMaterializedGammaCounter(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	countersEqual(t, src, replica)
}
