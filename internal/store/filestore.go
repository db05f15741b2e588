package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/mining"
)

// On-disk layout of a FileStore directory:
//
//	checkpoint-<seq>.ckpt  gob checkpointFile: the counter's full
//	                       CounterDelta at one WAL token, plus the
//	                       replication identity
//	wal-<seq>.log          framed header + CounterDelta records chained
//	                       from checkpoint <seq>'s token
//
// CounterDelta is the only serialized form of counts: the checkpoint
// body is a full delta (DeltaSince(0)), each WAL record an incremental
// one, and /v1/replicate ships the same type.
//
// Every record and the segment header are framed as
// [len uint32][crc32 uint32][gob payload], both big-endian, so a torn
// trailing write is detected (short frame or CRC mismatch) and ends the
// replay instead of corrupting it. Checkpoints are written atomically —
// temp file, fsync, rename, directory fsync — so the newest checkpoint
// named by the directory is always complete.

const (
	checkpointMagic = "frapp-checkpoint"
	walMagic        = "frapp-wal"
	// formatVersion 2: the checkpoint body is a CounterDelta. Version 1
	// checkpoints held a gob-encoded counter state and are refused.
	formatVersion = 2

	checkpointSuffix = ".ckpt"
	walSuffix        = ".log"

	// tmpPattern prefixes every temp file the store creates; stale ones
	// (a crash between create and rename) are swept at Open.
	tmpPattern = ".frapp-ckpt-*"
)

// ErrCorruptState marks a checkpoint that could not be decoded at all —
// truncated, zero-byte, or garbage bytes — as opposed to a valid
// checkpoint written under an incompatible scheme, schema, or format
// version. Errors wrapping it name the file and the operator's recovery
// options instead of surfacing raw gob internals.
var ErrCorruptState = fmt.Errorf("%w: corrupt checkpoint", ErrStore)

// SyncMode controls WAL append durability. Checkpoints are always
// written with full fsync discipline regardless of mode.
type SyncMode int

const (
	// SyncAlways fsyncs the WAL after every appended delta (the
	// default). Appends are already batched by the service's flush
	// interval, so this costs one fsync per flush, not per record.
	SyncAlways SyncMode = iota
	// SyncOff leaves WAL appends to the OS page cache: a machine crash
	// can lose the un-synced tail (a process crash cannot). Recovery
	// semantics are unchanged — the durable prefix is still recovered
	// exactly.
	SyncOff
)

// Option configures a FileStore.
type Option func(*FileStore)

// WithSyncMode selects the WAL append durability mode.
func WithSyncMode(m SyncMode) Option {
	return func(s *FileStore) { s.sync = m }
}

// FileStore is the production StateStore: one directory holding
// checkpoints and WAL segments. A directory belongs to exactly one
// server process at a time; concurrent writers are unsupported.
type FileStore struct {
	dir  string
	sync SyncMode

	counter *mining.ShardedCounter
	wal     *os.File
	seq     uint64 // current checkpoint/WAL generation
	// lastToken is the stream token of the last WAL-appended delta; the
	// next Append chains from it.
	lastToken uint64
	sinceCkpt int
	recovered bool
	closed    bool

	// walWrite, when set (tests), intercepts WAL frame writes to inject
	// partial or failing writers.
	walWrite func(f *os.File, p []byte) (int, error)

	// walBytes tracks the current WAL segment's size (header included)
	// for telemetry; obs, when set, receives durability observations.
	walBytes int64
	obs      Observer
}

// Open opens (or creates) a store directory and sweeps stale temp files
// from crashed atomic writes. A regular file at dir is refused: it is
// state in the removed single-file format, which this build cannot read.
func Open(dir string, opts ...Option) (*FileStore, error) {
	s := &FileStore{dir: dir, sync: SyncAlways}
	for _, opt := range opts {
		opt(s)
	}
	info, err := os.Stat(dir)
	switch {
	case err == nil && !info.IsDir():
		return nil, fmt.Errorf("%w: %s is a file, not a state directory: the single-file state format was removed (move the file aside and start with an empty directory)", ErrStore, dir)
	case err != nil && !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := s.sweepTemps(); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepTemps removes orphaned temp files left by writes that crashed
// between create and rename.
func (s *FileStore) sweepTemps() error {
	matches, err := filepath.Glob(filepath.Join(s.dir, tmpPattern))
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// checkpointFile is the serialized checkpoint: the counter's full
// CounterDelta (whose ToVersion is the WAL token the next segment
// chains from) plus the replication identity to restore into the
// recovered counter. The body is named Delta, not version 1's State, so
// a version-1 file still decodes far enough to report its version.
type checkpointFile struct {
	Magic       string
	Version     int
	Seq         uint64
	Replication mining.ReplicationState
	Delta       mining.CounterDelta
}

// walHeader opens every WAL segment: records in segment Seq chain from
// StartToken (checkpoint Seq's WALToken).
type walHeader struct {
	Magic      string
	Version    int
	Seq        uint64
	StartToken uint64
}

// Recover implements StateStore.
func (s *FileStore) Recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error) {
	counter, err := s.recover(scheme, shards)
	if s.obs != nil {
		records := 0
		if counter != nil {
			records = counter.N()
		}
		s.obs.ObserveRecovery(records, counter != nil, err)
	}
	return counter, err
}

func (s *FileStore) recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error) {
	if s.recovered {
		return nil, fmt.Errorf("%w: Recover called twice", ErrStore)
	}
	s.recovered = true
	seqs, err := s.listSeqs(checkpointSuffix)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, nil
	}
	// Newest valid checkpoint wins; a corrupt newest checkpoint falls
	// back to its predecessor (whose WAL segment still carries the
	// interval, minus whatever the corrupt checkpoint alone held).
	var firstErr error
	for i := len(seqs) - 1; i >= 0; i-- {
		counter, ck, err := s.loadCheckpoint(seqs[i], scheme, shards)
		if errors.Is(err, errFormatVersion) {
			return nil, err // every checkpoint in the directory shares it
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		token, err := s.replayWAL(counter, ck.Seq, ck.Delta.ToVersion)
		if err != nil {
			return nil, err
		}
		if ck.Replication.Epoch != 0 {
			rs := ck.Replication
			if token > rs.LastToken {
				rs.LastToken = token
			}
			if err := counter.RestoreReplicationState(rs); err != nil {
				return nil, err
			}
		}
		s.seq = seqs[len(seqs)-1] // continue numbering past every file present
		return counter, nil
	}
	return nil, fmt.Errorf("no valid checkpoint in %s (restore a backup, or remove the directory to start empty): %w", s.dir, firstErr)
}

// errFormatVersion marks a checkpoint written in a store format this
// build does not read.
var errFormatVersion = fmt.Errorf("%w: unsupported store format", ErrStore)

// loadCheckpoint decodes one checkpoint file and rebuilds its counter.
func (s *FileStore) loadCheckpoint(seq uint64, scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, *checkpointFile, error) {
	path := s.checkpointPath(seq)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var ck checkpointFile
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w: %v", path, ErrCorruptState, err)
	}
	if ck.Magic != checkpointMagic || ck.Seq != seq {
		return nil, nil, fmt.Errorf("checkpoint %s: %w: bad header (magic %q, seq %d)", path, ErrCorruptState, ck.Magic, ck.Seq)
	}
	if ck.Version != formatVersion {
		return nil, nil, fmt.Errorf("%w: checkpoint %s is store format version %d, this build reads only version %d (restore a backup of %s written by this build, or remove the directory to start empty)",
			errFormatVersion, path, ck.Version, formatVersion, s.dir)
	}
	counter, err := restoreCheckpoint(&ck.Delta, scheme, shards)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return counter, &ck, nil
}

// replayWAL folds every decodable WAL record chained after (seq, token)
// into the counter and returns the last applied token. Corruption — a
// torn frame, a CRC mismatch, a broken chain — ends the replay at the
// last good record; it is never fatal, because everything before the
// tear is a consistent prefix of the acknowledged-and-flushed records.
func (s *FileStore) replayWAL(counter *mining.ShardedCounter, seq, token uint64) (uint64, error) {
	seqs, err := s.listSeqs(walSuffix)
	if err != nil {
		return 0, err
	}
	for _, ws := range seqs {
		if ws < seq {
			continue
		}
		ok, err := s.replaySegment(counter, ws, &token)
		if err != nil || !ok {
			return token, err
		}
	}
	return token, nil
}

// replaySegment replays one segment; ok=false means the chain ended
// inside it (tear or break), so later segments must not be applied.
func (s *FileStore) replaySegment(counter *mining.ShardedCounter, seq uint64, token *uint64) (bool, error) {
	f, err := os.Open(s.walPath(seq))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// A crash between checkpoint write and WAL rotation: the
			// checkpoint already covers everything.
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return false, err
	}
	r, left := bufio.NewReader(f), info.Size()
	payload, err := readFrame(r, &left)
	if err != nil {
		return false, nil // torn or empty header: segment carries nothing
	}
	var hdr walHeader
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hdr); err != nil {
		return false, nil
	}
	if hdr.Magic != walMagic || hdr.Version != formatVersion || hdr.Seq != seq || hdr.StartToken != *token {
		return false, nil // not the segment this chain expects
	}
	for {
		payload, err := readFrame(r, &left)
		if err != nil {
			// io.EOF is the clean end of a fully replayed segment; any
			// other error is a torn/corrupt tail — stop at the last good
			// record either way.
			return errors.Is(err, io.EOF), nil
		}
		var d mining.CounterDelta
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&d); err != nil {
			return false, nil
		}
		if d.Full() || d.FromVersion != *token {
			return false, nil // chain break: treat like a tear
		}
		if err := counter.ApplyDelta(&d); err != nil {
			return false, fmt.Errorf("replaying %s: %w", s.walPath(seq), err)
		}
		*token = d.ToVersion
	}
}

// Attach implements StateStore: it writes a boot checkpoint of the
// counter's current state (recovered or empty) and rotates onto a fresh
// WAL segment.
func (s *FileStore) Attach(counter *mining.ShardedCounter) error {
	if counter == nil {
		return fmt.Errorf("%w: nil counter", ErrStore)
	}
	if s.counter != nil {
		return fmt.Errorf("%w: a counter is already attached", ErrStore)
	}
	s.counter = counter
	if err := s.checkpoint(); err != nil {
		s.counter = nil
		return err
	}
	return nil
}

// Append implements StateStore: one DeltaSince pull chained onto the
// last appended token, framed into the current WAL segment. When the
// counter no longer retains the chain baseline (possible when many
// replication pullers churn the baseline ring between flushes), the
// delta comes back FULL — then the store compacts instead of appending,
// which restores a clean chain.
func (s *FileStore) Append() error {
	start := time.Now()
	n, records, fsyncDur, err := s.append()
	if s.obs != nil {
		s.obs.ObserveAppend(n, records, fsyncDur, time.Since(start), err)
		s.obs.ObserveWALSize(s.walBytes)
	}
	return err
}

func (s *FileStore) append() (appended, records int, fsyncDur time.Duration, err error) {
	if err := s.attached(); err != nil {
		return 0, 0, 0, err
	}
	d, err := s.counter.DeltaSince(s.lastToken)
	if err != nil {
		return 0, 0, 0, err
	}
	if d.Full() {
		return 0, 0, 0, s.checkpoint()
	}
	if d.ToVersion == s.lastToken {
		return 0, 0, 0, nil // unchanged
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(d); err != nil {
		return 0, 0, 0, err
	}
	if err := s.writeFrame(buf.Bytes()); err != nil {
		return 0, 0, 0, err
	}
	if s.sync == SyncAlways {
		t0 := time.Now()
		if err := s.wal.Sync(); err != nil {
			return buf.Len(), 0, time.Since(t0), err
		}
		fsyncDur = time.Since(t0)
	}
	s.lastToken = d.ToVersion
	s.sinceCkpt += d.Records
	return buf.Len(), d.Records, fsyncDur, nil
}

// Checkpoint implements StateStore.
func (s *FileStore) Checkpoint() error {
	if err := s.attached(); err != nil {
		return err
	}
	return s.checkpoint()
}

// checkpoint compacts the counter's full current state into
// checkpoint-(seq+1), rotates the WAL onto segment seq+1, and prunes
// files older than seq (the previous generation is kept as the
// fallback for a corrupt newest checkpoint).
func (s *FileStore) checkpoint() error {
	start := time.Now()
	stateBytes, err := s.compact()
	if s.obs != nil {
		s.obs.ObserveCheckpoint(stateBytes, time.Since(start), err)
		s.obs.ObserveWALSize(s.walBytes)
	}
	return err
}

// compact is the checkpoint body, returning the serialized size of the
// counter state (the full delta) for telemetry.
func (s *FileStore) compact() (int, error) {
	// One full pull both captures the state at exactly d.ToVersion,
	// unaffected by records still arriving on the live counter, and
	// retains its baseline in the counter's ring, so the checkpoint token
	// is a real stream position the WAL chain and replication pullers can
	// chain onto.
	d, err := s.counter.DeltaSince(0)
	if err != nil {
		return 0, err
	}
	// Bridge the outgoing segment onto the checkpoint token: appending
	// the pending tail to the old WAL lets a recovery that falls back
	// past a corrupt checkpoint file chain straight through into the
	// next segment. Best-effort — a failure here only shortens the
	// fallback prefix, never the primary recovery path.
	if s.wal != nil && s.lastToken != d.ToVersion {
		if inc, err := s.counter.DeltaSince(s.lastToken); err == nil && !inc.Full() && inc.ToVersion != s.lastToken {
			var buf bytes.Buffer
			if gob.NewEncoder(&buf).Encode(inc) == nil && s.writeFrame(buf.Bytes()) == nil {
				s.wal.Sync()
				s.lastToken = inc.ToVersion
			}
		}
	}
	var stateBytes byteCounter
	if err := gob.NewEncoder(&stateBytes).Encode(d); err != nil {
		return 0, err
	}
	newSeq := s.seq + 1
	ck := checkpointFile{
		Magic:       checkpointMagic,
		Version:     formatVersion,
		Seq:         newSeq,
		Replication: s.counter.ReplicationState(),
		Delta:       *d,
	}
	if err := s.writeCheckpointFile(&ck); err != nil {
		return int(stateBytes), err
	}
	if err := s.rotateWAL(newSeq, d.ToVersion); err != nil {
		return int(stateBytes), err
	}
	s.seq = newSeq
	s.lastToken = d.ToVersion
	s.sinceCkpt = 0
	s.prune(newSeq - 1)
	return int(stateBytes), nil
}

// byteCounter is a writer that only counts what is written to it.
type byteCounter int

func (c *byteCounter) Write(p []byte) (int, error) {
	*c += byteCounter(len(p))
	return len(p), nil
}

// writeCheckpointFile writes one checkpoint atomically and durably:
// temp file, fsync, rename, directory fsync.
func (s *FileStore) writeCheckpointFile(ck *checkpointFile) error {
	tmp, err := os.CreateTemp(s.dir, tmpPattern)
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	w := bufio.NewWriter(tmp)
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, s.checkpointPath(ck.Seq)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(s.dir)
}

// rotateWAL closes the current segment and opens segment seq, chained
// from token.
func (s *FileStore) rotateWAL(seq, token uint64) error {
	if s.wal != nil {
		s.wal.Sync()
		s.wal.Close()
		s.wal = nil
	}
	f, err := os.OpenFile(s.walPath(seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	s.wal = f
	s.walBytes = 0
	var buf bytes.Buffer
	hdr := walHeader{Magic: walMagic, Version: formatVersion, Seq: seq, StartToken: token}
	if err := gob.NewEncoder(&buf).Encode(&hdr); err != nil {
		return err
	}
	if err := s.writeFrame(buf.Bytes()); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return SyncDir(s.dir)
}

// prune removes checkpoints and WAL segments older than keepFrom.
func (s *FileStore) prune(keepFrom uint64) {
	for _, suffix := range []string{checkpointSuffix, walSuffix} {
		seqs, err := s.listSeqs(suffix)
		if err != nil {
			return
		}
		for _, seq := range seqs {
			if seq < keepFrom {
				if suffix == checkpointSuffix {
					os.Remove(s.checkpointPath(seq))
				} else {
					os.Remove(s.walPath(seq))
				}
			}
		}
	}
}

// SinceCheckpoint implements StateStore.
func (s *FileStore) SinceCheckpoint() int { return s.sinceCkpt }

// Close implements StateStore. Idempotent.
func (s *FileStore) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		s.wal.Sync()
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}

// Dir returns the store directory.
func (s *FileStore) Dir() string { return s.dir }

func (s *FileStore) attached() error {
	if s.closed {
		return fmt.Errorf("%w: store is closed", ErrStore)
	}
	if s.counter == nil || s.wal == nil {
		return fmt.Errorf("%w: no counter attached", ErrStore)
	}
	return nil
}

// writeFrame appends one [len][crc][payload] frame to the WAL.
func (s *FileStore) writeFrame(payload []byte) error {
	if len(payload) > mining.MaxDeltaWireBytes {
		return fmt.Errorf("%w: WAL record of %d bytes exceeds cap", ErrStore, len(payload))
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	write := s.walWrite
	if write == nil {
		write = (*os.File).Write
	}
	n, err := write(s.wal, frame)
	s.walBytes += int64(n)
	return err
}

// errTornFrame marks an incomplete or corrupt trailing frame.
var errTornFrame = errors.New("store: torn WAL frame")

// readFrame reads one frame from a segment with *left bytes not yet
// consumed; io.EOF means a clean end exactly at a frame boundary,
// errTornFrame anything short or corrupt — a partial header, a length
// past the end of the segment or over the cap, a short payload, or a CRC
// mismatch. The length is checked against *left before the payload is
// allocated, so a corrupt length costs nothing.
func readFrame(r *bufio.Reader, left *int64) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, errTornFrame
	}
	*left -= int64(len(hdr))
	length := binary.BigEndian.Uint32(hdr[0:4])
	if int64(length) > *left || length > mining.MaxDeltaWireBytes {
		return nil, errTornFrame
	}
	*left -= int64(length)
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, errTornFrame
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return payload, nil
}

func (s *FileStore) checkpointPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%016d%s", seq, checkpointSuffix))
}

func (s *FileStore) walPath(seq uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%016d%s", seq, walSuffix))
}

// listSeqs returns the sequence numbers of all files with the given
// suffix, ascending. Unparsable names are ignored.
func (s *FileStore) listSeqs(suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := "checkpoint-"
	if suffix == walSuffix {
		prefix = "wal-"
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// SyncDir fsyncs a directory so a rename or create inside it is durable
// — without it, a power loss can roll back the directory entry even
// though the file's own bytes were synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
