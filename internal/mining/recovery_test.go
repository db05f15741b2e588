package mining

import (
	"math/rand"
	"testing"
)

// TestShardedApplyDeltaChainEquivalence: folding a full delta plus a
// chain of incrementals into a fresh sharded counter reproduces the
// source exactly — the WAL-replay primitive.
func TestShardedApplyDeltaChainEquivalence(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(41))
	src, err := NewShardedGammaCounter(s, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	replica, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	since := uint64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 10+rng.Intn(20); i++ {
			if err := src.Add(randomRecord(s, rng)); err != nil {
				t.Fatal(err)
			}
		}
		d, err := src.DeltaSince(since)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		since = d.ToVersion
	}
	if src.N() != replica.N() {
		t.Fatalf("replica has %d records, want %d", replica.N(), src.N())
	}
	want := src.Snapshot().(*MaterializedGammaCounter)
	got := replica.Snapshot().(*MaterializedGammaCounter)
	countersEqual(t, want, got)
	// Version advanced with the applied records, so the replica mints
	// coherent snapshot versions of its own.
	if replica.Version() != uint64(replica.N()) {
		t.Fatalf("replica version %d, want %d", replica.Version(), replica.N())
	}
}

func TestShardedApplyDeltaRejectsFullOntoNonEmpty(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(43))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(full); err != nil {
		t.Fatal(err)
	}
	if err := dst.ApplyDelta(full); err == nil {
		t.Fatal("full delta applied twice — double count accepted")
	}
	if err := dst.ApplyDelta(nil); err == nil {
		t.Fatal("nil delta accepted")
	}
}

// TestReplicationStateRoundTrip: a counter rebuilt from saved state plus
// a restored replication identity serves the SAME incremental chain a
// pre-crash puller was on — same epoch, retained baseline honored, and
// every post-restore token above the pre-crash line.
func TestReplicationStateRoundTrip(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(47))
	src, err := NewShardedGammaCounter(s, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	// A puller chains onto the counter.
	pulled, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	rs := src.ReplicationState()
	if rs.Epoch != src.DeltaEpoch() {
		t.Fatalf("captured epoch %d, want %d", rs.Epoch, src.DeltaEpoch())
	}
	if len(rs.Baselines) == 0 {
		t.Fatal("no baselines captured")
	}

	// "Crash": rebuild from persisted state, restore the identity.
	state, err := src.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := NewGammaScheme(s, m)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := restoreCounter(scheme, 2, state)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreReplicationState(rs); err != nil {
		t.Fatal(err)
	}
	if restored.DeltaEpoch() != src.DeltaEpoch() {
		t.Fatalf("restored epoch %d, want %d", restored.DeltaEpoch(), src.DeltaEpoch())
	}

	// The puller's next pull against the RESTORED counter is incremental.
	for i := 0; i < 3; i++ {
		if err := restored.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	d, err := restored.DeltaSince(pulled.ToVersion)
	if err != nil {
		t.Fatal(err)
	}
	if d.Full() {
		t.Fatal("restored counter forced a full resync despite a retained baseline")
	}
	if d.Records != 3 {
		t.Fatalf("incremental delta carries %d records, want 3", d.Records)
	}
	// Tokens minted after recovery clear the pre-crash line by the
	// recovery gap, so no pre-crash token can alias different state.
	if d.ToVersion <= pulled.ToVersion+tokenRecoveryGap/2 {
		t.Fatalf("post-recovery token %d not clear of pre-crash line %d", d.ToVersion, pulled.ToVersion)
	}
}

// TestRestoreReplicationStateDropsInvalidBaselines: a baseline the
// recovered state does not dominate (its WAL tail died with the crash)
// is dropped — its puller full-resyncs — and never corrupts the ring.
func TestRestoreReplicationStateDropsInvalidBaselines(t *testing.T) {
	s := deltaTestSchema(t)
	m := deltaTestMatrix(t, s)
	rng := rand.New(rand.NewSource(53))
	src, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := src.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := src.DeltaSince(0); err != nil {
		t.Fatal(err)
	}
	rs := src.ReplicationState()
	// Poison the baseline: counts the recovered counter does not hold.
	for i := range rs.Baselines {
		rs.Baselines[i].Records = 9
		for j := range rs.Baselines[i].Cells {
			rs.Baselines[i].Cells[j].Count += 1000
		}
	}
	restored, err := NewShardedGammaCounter(s, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := restored.Add(randomRecord(s, rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := restored.RestoreReplicationState(rs); err != nil {
		t.Fatal(err)
	}
	// The poisoned baseline was not retained: a pull against its token
	// falls back to full, which is always safe.
	d, err := restored.DeltaSince(rs.Baselines[0].Token)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full() {
		t.Fatal("undominated baseline served incrementally")
	}
	// An epoch-less identity (no counter ever persisted one) is rejected.
	if err := restored.RestoreReplicationState(ReplicationState{}); err == nil {
		t.Fatal("zero epoch accepted")
	}
}
