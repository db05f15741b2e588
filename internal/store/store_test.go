package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mining"
)

// testSchemes is the full scheme matrix every durability property is
// checked under.
var testSchemes = []string{mining.SchemeGamma, mining.SchemeMask, mining.SchemeCutPaste}

func testSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema("store-test", []dataset.Attribute{
		{Name: "a", Categories: []string{"a0", "a1", "a2"}},
		{Name: "b", Categories: []string{"b0", "b1"}},
		{Name: "c", Categories: []string{"c0", "c1", "c2", "c3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testScheme(t testing.TB, name string) mining.CounterScheme {
	t.Helper()
	scheme, err := mining.SchemeForContract(name, testSchema(t), 19)
	if err != nil {
		t.Fatal(err)
	}
	return scheme
}

// testRecords derives a deterministic record stream: ingestion is
// deterministic given the records (the server counts already-perturbed
// submissions; nothing random happens inside Add), so any prefix of
// this stream can be re-counted into an exact reference counter.
func testRecords(t testing.TB, n int, seed int64) []dataset.Record {
	t.Helper()
	s := testSchema(t)
	rng := rand.New(rand.NewSource(seed))
	recs := make([]dataset.Record, n)
	for i := range recs {
		rec := make(dataset.Record, s.M())
		for j, a := range s.Attrs {
			rec[j] = rng.Intn(a.Cardinality())
		}
		recs[i] = rec
	}
	return recs
}

func addAll(t testing.TB, c *mining.ShardedCounter, recs []dataset.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := c.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// referenceCounter re-counts a record prefix from scratch.
func referenceCounter(t *testing.T, scheme mining.CounterScheme, recs []dataset.Record) *mining.ShardedCounter {
	t.Helper()
	c, err := mining.NewShardedCounter(scheme, 1)
	if err != nil {
		t.Fatal(err)
	}
	addAll(t, c, recs)
	return c
}

// jointOf extracts a counter's full sparse joint histogram.
func jointOf(t *testing.T, c *mining.ShardedCounter) (int, map[uint64]float64) {
	t.Helper()
	d, err := c.DeltaSince(0)
	if err != nil {
		t.Fatal(err)
	}
	joint := make(map[uint64]float64, len(d.Cells))
	for _, cell := range d.Cells {
		joint[cell.Idx] = cell.Count
	}
	return d.Records, joint
}

// countersMatch asserts two counters hold identical state, cell by cell.
func countersMatch(t *testing.T, want, got *mining.ShardedCounter) {
	t.Helper()
	wn, wj := jointOf(t, want)
	gn, gj := jointOf(t, got)
	if wn != gn {
		t.Fatalf("recovered %d records, want %d", gn, wn)
	}
	if len(wj) != len(gj) {
		t.Fatalf("recovered %d distinct cells, want %d", len(gj), len(wj))
	}
	for idx, v := range wj {
		if math.Abs(gj[idx]-v) > 1e-9 {
			t.Fatalf("cell %d: %v, want %v", idx, gj[idx], v)
		}
	}
}

func TestFileStoreRoundTripAllSchemes(t *testing.T) {
	for _, name := range testSchemes {
		t.Run(name, func(t *testing.T) {
			scheme := testScheme(t, name)
			recs := testRecords(t, 120, 7)
			dir := filepath.Join(t.TempDir(), "state")

			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if c, err := st.Recover(scheme, 2); err != nil || c != nil {
				t.Fatalf("empty store Recover = (%v, %v), want (nil, nil)", c, err)
			}
			counter, err := mining.NewShardedCounter(scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Attach(counter); err != nil {
				t.Fatal(err)
			}
			// Interleave ingest batches, WAL appends, and a mid-stream
			// checkpoint — then leave an unflushed-by-checkpoint WAL tail.
			addAll(t, counter, recs[:40])
			if err := st.Append(); err != nil {
				t.Fatal(err)
			}
			addAll(t, counter, recs[40:80])
			if err := st.Append(); err != nil {
				t.Fatal(err)
			}
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			addAll(t, counter, recs[80:])
			if err := st.Append(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Recover under a different shard count: shard layout is a
			// runtime choice, not part of the durable state.
			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := st2.Recover(scheme, 3)
			if err != nil {
				t.Fatal(err)
			}
			if recovered == nil {
				t.Fatal("store recovered nothing")
			}
			countersMatch(t, referenceCounter(t, scheme, recs), recovered)
		})
	}
}

func TestFileStoreTornWALTailRecoversPrefix(t *testing.T) {
	scheme := testScheme(t, mining.SchemeGamma)
	recs := testRecords(t, 60, 11)
	dir := filepath.Join(t.TempDir(), "state")

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := mining.NewShardedCounter(scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(counter); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[:30])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[30:])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Tear the WAL mid-frame: chop a few bytes off the tail, as a crash
	// during a write would.
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	wal := wals[len(wals)-1]
	info, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover(scheme, 2)
	if err != nil {
		t.Fatal(err) // a torn tail must never be fatal
	}
	countersMatch(t, referenceCounter(t, scheme, recs[:30]), recovered)
}

func TestFileStoreCorruptNewestCheckpointFallsBack(t *testing.T) {
	scheme := testScheme(t, mining.SchemeMask)
	recs := testRecords(t, 90, 13)
	dir := filepath.Join(t.TempDir(), "state")

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := mining.NewShardedCounter(scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(counter); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[:30])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[30:60])
	if err := st.Checkpoint(); err != nil { // seq 2, bridges the seq-1 WAL
		t.Fatal(err)
	}
	addAll(t, counter, recs[60:])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Scribble over the newest checkpoint (disk corruption).
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) < 2 {
		t.Fatalf("checkpoints on disk: %v (err %v)", ckpts, err)
	}
	if err := os.WriteFile(ckpts[len(ckpts)-1], []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Fallback path: previous checkpoint, bridged old WAL segment, then
	// the new segment — nothing durable is lost.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover(scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	countersMatch(t, referenceCounter(t, scheme, recs), recovered)
}

func TestFileStoreAllCheckpointsCorruptIsActionableError(t *testing.T) {
	scheme := testScheme(t, mining.SchemeGamma)
	dir := filepath.Join(t.TempDir(), "state")
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := mining.NewShardedCounter(scheme, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(counter); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	for _, p := range ckpts {
		if err := os.WriteFile(p, nil, 0o644); err != nil { // zero-byte
			t.Fatal(err)
		}
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = st2.Recover(scheme, 1)
	if err == nil {
		t.Fatal("all-corrupt store recovered")
	}
	if !errors.Is(err, ErrCorruptState) {
		t.Fatalf("error %v does not wrap ErrCorruptState", err)
	}
	for _, want := range []string{dir, "restore", "remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q names no %q — the operator gets no recovery options", err, want)
		}
	}
}

func TestFileStoreSweepsTempOrphans(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphans := []string{".frapp-ckpt-123", ".frapp-ckpt-456"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("orphan %s survived Open", name)
		}
	}
}

// TestFileStorePartialWriteInjection drives the WAL through a writer
// that fails mid-frame — the in-process stand-in for a crash during a
// write — and checks recovery lands exactly on the last durable append.
func TestFileStorePartialWriteInjection(t *testing.T) {
	for _, name := range testSchemes {
		t.Run(name, func(t *testing.T) {
			scheme := testScheme(t, name)
			recs := testRecords(t, 80, 23)
			dir := filepath.Join(t.TempDir(), "state")

			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			counter, err := mining.NewShardedCounter(scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Attach(counter); err != nil {
				t.Fatal(err)
			}
			addAll(t, counter, recs[:50])
			if err := st.Append(); err != nil {
				t.Fatal(err)
			}
			// The next frame dies halfway through its bytes.
			st.walWrite = func(f *os.File, p []byte) (int, error) {
				n, _ := f.Write(p[:len(p)/2])
				return n, fmt.Errorf("injected: disk gone")
			}
			addAll(t, counter, recs[50:])
			if err := st.Append(); err == nil {
				t.Fatal("append with failing writer succeeded")
			}
			// Crash: the store is abandoned, never Closed.

			st2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			recovered, err := st2.Recover(scheme, 2)
			if err != nil {
				t.Fatal(err)
			}
			countersMatch(t, referenceCounter(t, scheme, recs[:50]), recovered)

			// And the recovered store keeps working: attach, log, recover.
			if err := st2.Attach(recovered); err != nil {
				t.Fatal(err)
			}
			addAll(t, recovered, recs[50:])
			if err := st2.Append(); err != nil {
				t.Fatal(err)
			}
			st2.Close()
			st3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			final, err := st3.Recover(scheme, 1)
			if err != nil {
				t.Fatal(err)
			}
			countersMatch(t, referenceCounter(t, scheme, recs), final)
		})
	}
}

// TestFileStoreEvictedBaselineForcesCompaction: when concurrent
// replication pullers churn the counter's bounded baseline ring until
// the logger's own baseline is evicted, Append's delta comes back full
// — the store must respond by compacting, not by corrupting the chain.
func TestFileStoreEvictedBaselineForcesCompaction(t *testing.T) {
	scheme := testScheme(t, mining.SchemeGamma)
	recs := testRecords(t, 60, 29)
	dir := filepath.Join(t.TempDir(), "state")

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter, err := mining.NewShardedCounter(scheme, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(counter); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[:20])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	seqBefore := st.seq
	// A flood of replication pullers, each minting a fresh baseline,
	// evicts the store's chain baseline from the bounded ring.
	for i := 20; i < 40; i++ {
		addAll(t, counter, recs[i:i+1])
		if _, err := counter.DeltaSince(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	if st.seq <= seqBefore {
		t.Fatal("evicted baseline did not force a compaction")
	}
	addAll(t, counter, recs[40:])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := st2.Recover(scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	countersMatch(t, referenceCounter(t, scheme, recs), recovered)
}

// TestMemStoreRoundTrip proves the second StateStore implementation
// honors the same contract: recover-nothing when empty, checkpoint +
// WAL replay, and reuse across a simulated crash.
func TestMemStoreRoundTrip(t *testing.T) {
	scheme := testScheme(t, mining.SchemeCutPaste)
	recs := testRecords(t, 70, 31)
	st := NewMemStore()
	if c, err := st.Recover(scheme, 1); err != nil || c != nil {
		t.Fatalf("empty MemStore Recover = (%v, %v)", c, err)
	}
	counter, err := mining.NewShardedCounter(scheme, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Attach(counter); err != nil {
		t.Fatal(err)
	}
	addAll(t, counter, recs[:30])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	if st.SinceCheckpoint() != 30 {
		t.Fatalf("SinceCheckpoint = %d, want 30", st.SinceCheckpoint())
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st.SinceCheckpoint() != 0 {
		t.Fatalf("SinceCheckpoint after checkpoint = %d, want 0", st.SinceCheckpoint())
	}
	addAll(t, counter, recs[30:])
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon the counter, recover a successor from the store.
	recovered, err := st.Recover(scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	countersMatch(t, referenceCounter(t, scheme, recs), recovered)
}
