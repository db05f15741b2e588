package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mining"
)

// writeStore fills a fresh store directory with n records: a boot
// checkpoint, then one WAL append.
func writeStore(t testing.TB, dir string, scheme mining.CounterScheme, n int) {
	t.Helper()
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
	addAll(t, counter, testRecords(t, n, int64(n)))
	if err := st.Append(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// recoverDir opens dir and recovers it under scheme.
func recoverDir(dir string, scheme mining.CounterScheme) (*mining.ShardedCounter, error) {
	st, err := Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Recover(scheme, 2)
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestOpenRefusesSingleFileState: a regular file at the state path is
// state in the removed single-file format. Open refuses it with the path
// and the reason, leaves it untouched, and never headlines a raw gob
// message — whether the file is empty or holds a payload.
func TestOpenRefusesSingleFileState(t *testing.T) {
	for _, content := range [][]byte{nil, []byte("\x2c\xff legacy gob payload")} {
		path := filepath.Join(t.TempDir(), "state.gob")
		if err := os.WriteFile(path, content, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(path)
		if err == nil {
			t.Fatal("single-file state accepted")
		}
		for _, want := range []string{path, "single-file", "removed"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
		if strings.Contains(strings.ToLower(err.Error()), "gob: ") {
			t.Fatalf("error %q leaks raw decoder internals as its headline", err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != string(content) {
			t.Fatalf("refused state file was modified: %q (err %v)", got, err)
		}
	}
}

// checkpointV1 mirrors the checkpoint layout of store format version 1,
// whose body was a gob-encoded counter state.
type checkpointV1 struct {
	Magic       string
	Version     int
	Seq         uint64
	WALToken    uint64
	Replication mining.ReplicationState
	State       []byte
}

// TestRecoverRefusesFormatVersion1: a directory whose checkpoints carry
// store format version 1 is refused with the version and both remedies,
// not misread and not reported as a gob failure.
func TestRecoverRefusesFormatVersion1(t *testing.T) {
	scheme := testScheme(t, mining.SchemeGamma)
	dir := filepath.Join(t.TempDir(), "state")
	writeStore(t, dir, scheme, 10)
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints: %v", err)
	}
	for i, path := range ckpts {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		v1 := checkpointV1{Magic: checkpointMagic, Version: 1, Seq: uint64(i + 1), WALToken: 10, State: []byte("v3 counter state")}
		if err := gob.NewEncoder(f).Encode(&v1); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	_, err = recoverDir(dir, scheme)
	if err == nil {
		t.Fatal("version-1 store recovered")
	}
	for _, want := range []string{"version 1", dir, "backup", "remove"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	if errors.Is(err, ErrCorruptState) || strings.Contains(err.Error(), "gob:") {
		t.Fatalf("format version reported as corruption: %v", err)
	}
}

// TestFileStoreRefusesOtherContracts: a directory written under gamma is
// refused when recovered under MASK, C&P, or gamma with another γ — a
// contract mismatch, not corruption — while undecodable checkpoints are
// reported as ErrCorruptState.
func TestFileStoreRefusesOtherContracts(t *testing.T) {
	schema := testSchema(t)
	dir := filepath.Join(t.TempDir(), "state")
	writeStore(t, dir, testScheme(t, mining.SchemeGamma), 20)
	for _, c := range []struct {
		scheme string
		gamma  float64
	}{{mining.SchemeMask, 19}, {mining.SchemeCutPaste, 19}, {mining.SchemeGamma, 9}} {
		other, err := mining.SchemeForContract(c.scheme, schema, c.gamma)
		if err != nil {
			t.Fatal(err)
		}
		_, err = recoverDir(dir, other)
		if err == nil {
			t.Fatalf("gamma state recovered under %s γ=%g", c.scheme, c.gamma)
		}
		if errors.Is(err, ErrCorruptState) || !errors.Is(err, mining.ErrMining) {
			t.Fatalf("%s γ=%g: mismatch %v misreported", c.scheme, c.gamma, err)
		}
		if !strings.Contains(err.Error(), "scheme") {
			t.Fatalf("mismatch error %q does not explain the contract conflict", err)
		}
	}
	for _, payload := range [][]byte{nil, {0x2c, 0xff}, []byte("this is not a gob stream at all")} {
		dir := filepath.Join(t.TempDir(), "state")
		writeStore(t, dir, testScheme(t, mining.SchemeGamma), 5)
		ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		for _, p := range ckpts {
			if err := os.WriteFile(p, payload, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := recoverDir(dir, testScheme(t, mining.SchemeGamma)); !errors.Is(err, ErrCorruptState) {
			t.Fatalf("payload %q: error %v does not wrap ErrCorruptState", payload, err)
		}
	}
}

// TestFileStoreCorruptFrameLengthAllocatesNothing: a torn tail whose
// frame header claims a near-1 GiB payload must end the replay without
// allocating the claimed length.
func TestFileStoreCorruptFrameLengthAllocatesNothing(t *testing.T) {
	scheme := testScheme(t, mining.SchemeGamma)
	dir := filepath.Join(t.TempDir(), "state")
	writeStore(t, dir, scheme, 30)
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 13) // 8-byte frame header + 5 payload bytes
	binary.BigEndian.PutUint32(tail[0:4], 1<<30-1)
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var recovered *mining.ShardedCounter
	alloc := allocatedBy(func() { recovered, err = recoverDir(dir, scheme) })
	if err != nil {
		t.Fatal(err)
	}
	if recovered.N() != 30 {
		t.Fatalf("recovered %d records, want the 30-record prefix", recovered.N())
	}
	if alloc >= 1<<20 {
		t.Fatalf("recovery allocated %d bytes for a corrupt 13-byte tail", alloc)
	}
}

// TestReadFrameRejectsLengthPastSegment pins the bound at the frame
// reader itself: a frame whose length runs past the bytes the segment
// has left is torn, even when the reader could supply the payload.
func TestReadFrameRejectsLengthPastSegment(t *testing.T) {
	payload := []byte("hello")
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	read := func(left int64) ([]byte, error) {
		return readFrame(bufio.NewReader(bytes.NewReader(frame)), &left)
	}
	if got, err := read(int64(len(frame))); err != nil || string(got) != "hello" {
		t.Fatalf("whole frame: %q, %v", got, err)
	}
	if _, err := read(int64(len(frame) - 1)); !errors.Is(err, errTornFrame) {
		t.Fatalf("length past the segment: %v, want errTornFrame", err)
	}
}

// FuzzFileStoreRecover writes arbitrary bytes as a store's newest
// checkpoint and its WAL segment and recovers them under every scheme:
// recovery never panics, allocates boundedly, and any counter it returns
// holds state that one ApplyDelta into a fresh counter accepts.
func FuzzFileStoreRecover(f *testing.F) {
	schemes := make([]mining.CounterScheme, len(testSchemes))
	for i, name := range testSchemes {
		schemes[i] = testScheme(f, name)
		dir := filepath.Join(f.TempDir(), name)
		writeStore(f, dir, schemes[i], 25)
		ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint-0000000000000001.ckpt"))
		if err != nil {
			f.Fatal(err)
		}
		wal, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(ckpt, wal)
		f.Add(ckpt, append(wal[:len(wal):len(wal)], 0x3f, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1))
	}
	f.Add([]byte{}, []byte{})
	f.Add([]byte("not a checkpoint"), []byte{0, 0, 0, 1, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, ckpt, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint-0000000000000001.ckpt"), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			// Recover only reads, so every scheme recovers the same files.
			var recovered *mining.ShardedCounter
			var err error
			alloc := allocatedBy(func() { recovered, err = recoverDir(dir, scheme) })
			if alloc > 64<<20 {
				t.Fatalf("recovering %d+%d fuzz bytes allocated %d bytes", len(ckpt), len(wal), alloc)
			}
			if err != nil || recovered == nil {
				continue
			}
			d, err := recovered.DeltaSince(0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := mining.NewShardedCounter(scheme, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.ApplyDelta(d); err != nil {
				t.Fatalf("recovered state is not one valid delta: %v", err)
			}
			if fresh.N() != recovered.N() {
				t.Fatalf("re-applied %d records, recovered %d", fresh.N(), recovered.N())
			}
		}
	})
}
