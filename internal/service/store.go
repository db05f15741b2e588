package service

import (
	"fmt"
	"time"

	"repro/internal/store"
)

// Durable persistence integration: a store-backed server logs its
// counter's changes to a write-ahead log and compacts them into
// checkpoints continuously, instead of persisting once at shutdown. All
// store I/O happens on one background flusher goroutine (plus explicit
// FlushWAL/CheckpointNow calls, serialized by storeMu), never on the
// submit hot path — ingestion only touches the in-memory counter, and
// the flusher extracts batched deltas on its own clock.

const (
	// defaultWALFlushInterval bounds how much acknowledged data a crash
	// can lose: at most one flush interval's worth of submissions.
	defaultWALFlushInterval = 200 * time.Millisecond
	// defaultCheckpointEvery is the record threshold that triggers WAL
	// compaction into a fresh checkpoint.
	defaultCheckpointEvery = 10000
)

// WithStore attaches a durable state store: the server recovers its
// counter from the store at construction (checkpoint + WAL-tail replay),
// then continuously appends counter deltas to the store's WAL and
// checkpoints on record thresholds. The server owns the store from here:
// it is closed by Server.Close. Mutually exclusive with ReplaceCounter
// and so with the federation-coordinator role, which swap the counter
// object out from under the store's log chain.
func WithStore(st store.StateStore) Option {
	return func(c *serverConfig) { c.store = st }
}

// WithCheckpointEvery sets how many WAL-logged records trigger a
// compacted checkpoint. Values <= 0 (and the default) mean 10000.
func WithCheckpointEvery(n int) Option {
	return func(c *serverConfig) { c.checkpointEvery = n }
}

// WithWALFlushInterval sets the flusher's batching interval — the upper
// bound on acknowledged-but-not-yet-durable data after a crash. Values
// <= 0 (and the default) mean 200ms.
func WithWALFlushInterval(d time.Duration) Option {
	return func(c *serverConfig) { c.walFlush = d }
}

// errStoreBacked rejects operations that would swap the counter object
// out from under the attached store's WAL chain.
var errStoreBacked = fmt.Errorf("%w: server is store-backed; durable state is managed by the store", ErrService)

// persistLoop is the background flusher: every interval it appends the
// counter's pending changes to the WAL, and compacts into a checkpoint
// once enough records accumulate. A failed append or checkpoint is
// retried on the next tick — the counter itself is never blocked or
// mutated by persistence errors.
func (s *Server) persistLoop(interval time.Duration) {
	defer close(s.persistDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.persistStop:
			return
		case <-t.C:
			s.storeMu.Lock()
			if err := s.store.Append(); err == nil &&
				s.checkpointEvery > 0 && s.store.SinceCheckpoint() >= s.checkpointEvery {
				_ = s.store.Checkpoint()
			}
			s.storeMu.Unlock()
		}
	}
}

// FlushWAL forces the pending counter changes into the WAL now, without
// waiting for the flusher tick — after it returns, every record ingested
// before the call is durable (under the store's sync mode). A no-op on a
// server without a store.
func (s *Server) FlushWAL() error {
	if s.store == nil {
		return nil
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	return s.store.Append()
}

// CheckpointNow forces WAL compaction into a fresh checkpoint now,
// regardless of the record threshold. A no-op on a server without a
// store.
func (s *Server) CheckpointNow() error {
	if s.store == nil {
		return nil
	}
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	return s.store.Checkpoint()
}

// StoreBacked reports whether a durable store is attached.
func (s *Server) StoreBacked() bool { return s.store != nil }
