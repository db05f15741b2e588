package mining

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// The persisted form of a counter is its full CounterDelta
// (DeltaSince(0)): the store writes it as the checkpoint body and
// restores it with NewShardedCounter + ApplyDelta. These tests pin that
// round trip and the validation ApplyDelta performs on it.

// fullDelta returns the persisted form of a frozen gamma counter.
func fullDelta(t *testing.T, c *MaterializedGammaCounter) *CounterDelta {
	t.Helper()
	d, err := NewShardedFromSnapshot(c).DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// restoreCounter rebuilds a live counter from a persisted full delta,
// exactly as the store recovers a checkpoint.
func restoreCounter(scheme CounterScheme, shards int, d *CounterDelta) (*ShardedCounter, error) {
	c, err := NewShardedCounter(scheme, shards)
	if err != nil {
		return nil, err
	}
	if err := c.ApplyDelta(d); err != nil {
		return nil, err
	}
	return c, nil
}

func TestCounterSaveLoadRoundTrip(t *testing.T) {
	db := buildSkewedDB(t, 5000, 50)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	p, _ := core.NewGammaPerturber(sc, m)
	pdb, err := core.PerturbDatabase(db, p, rand.New(rand.NewSource(51)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDatabase(pdb); err != nil {
		t.Fatal(err)
	}
	back, err := NewMaterializedGammaCounter(sc, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ApplyDelta(fullDelta(t, c)); err != nil {
		t.Fatal(err)
	}
	if back.N() != c.N() {
		t.Fatalf("restored N = %d, want %d", back.N(), c.N())
	}
	cands := []Itemset{
		{{0, 0}},
		{{0, 0}, {1, 0}, {2, 0}},
		{{1, 1}, {2, 3}},
	}
	a, err := c.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Supports(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("candidate %d: %v vs restored %v", i, a[i], b[i])
		}
	}
	// The restored counter keeps working as a live counter.
	if err := back.Add(dataset.Record{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if back.N() != c.N()+1 {
		t.Fatal("restored counter not live")
	}
}

func TestLoadRejectsMismatchedSchema(t *testing.T) {
	db := buildSkewedDB(t, 100, 52)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, _ := NewMaterializedGammaCounter(sc, m)
	if err := c.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	d := fullDelta(t, c)
	other := dataset.CensusSchema()
	om, _ := core.NewGammaDiagonal(other.DomainSize(), 19)
	oc, _ := NewMaterializedGammaCounter(other, om)
	if err := oc.ApplyDelta(d); !errors.Is(err, ErrMining) {
		t.Fatal("mismatched schema accepted")
	}
	// Same schema, different matrix.
	m2, _ := core.NewGammaDiagonal(sc.DomainSize(), 9)
	c2, _ := NewMaterializedGammaCounter(sc, m2)
	if err := c2.ApplyDelta(d); !errors.Is(err, ErrMining) {
		t.Fatal("mismatched matrix accepted")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	sc := miningSchema(t)
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	fp := CompatibilityFingerprint(sc, m)
	garbage := []*CounterDelta{
		nil,
		{Fingerprint: "not a fingerprint", Records: 1, Cells: []DeltaCell{{Idx: 0, Count: 1}}},
		{Fingerprint: fp, Records: 1, Cells: []DeltaCell{{Idx: uint64(sc.DomainSize()), Count: 1}}},
		{Fingerprint: fp, Records: -1},
	}
	for i, d := range garbage {
		c, _ := NewMaterializedGammaCounter(sc, m)
		if err := c.ApplyDelta(d); !errors.Is(err, ErrMining) {
			t.Fatalf("garbage payload %d accepted", i)
		}
		if c.N() != 0 {
			t.Fatalf("garbage payload %d changed the counter", i)
		}
	}
}

func TestLoadRejectsTamperedState(t *testing.T) {
	db := buildSkewedDB(t, 200, 53)
	sc := db.Schema
	m, _ := core.NewGammaDiagonal(sc.DomainSize(), 19)
	c, _ := NewMaterializedGammaCounter(sc, m)
	if err := c.AddDatabase(db); err != nil {
		t.Fatal(err)
	}
	// Tamper: cells that no longer total the record count must be
	// rejected.
	d := fullDelta(t, c)
	d.Cells[0].Count += 5
	back, _ := NewMaterializedGammaCounter(sc, m)
	if err := back.ApplyDelta(d); !errors.Is(err, ErrMining) {
		t.Fatal("inconsistent totals accepted")
	}
}
