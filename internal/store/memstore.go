package store

import (
	"fmt"

	"repro/internal/mining"
)

// MemStore is an in-memory StateStore with FileStore's semantics but no
// disk: the WAL is a delta slice, the checkpoint the full delta itself.
// It backs tests that need store-driven behavior (checkpoint triggers,
// recovery after an abandoned counter) without filesystem coupling, and
// it is the proof that the service programs against the StateStore
// contract rather than against files.
type MemStore struct {
	counter   *mining.ShardedCounter
	ckpt      *mining.CounterDelta
	ckptRepl  mining.ReplicationState
	wal       []*mining.CounterDelta
	lastToken uint64
	sinceCkpt int
	recovered bool
	closed    bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Recover implements StateStore. A MemStore outliving one counter can
// recover the next from its retained checkpoint and WAL, which is how
// tests simulate a crash without a filesystem.
func (s *MemStore) Recover(scheme mining.CounterScheme, shards int) (*mining.ShardedCounter, error) {
	s.recovered = true
	if s.ckpt == nil {
		return nil, nil
	}
	counter, err := restoreCheckpoint(s.ckpt, scheme, shards)
	if err != nil {
		return nil, err
	}
	token := s.ckptRepl.LastToken
	for _, d := range s.wal {
		if err := counter.ApplyDelta(d); err != nil {
			return nil, err
		}
		token = d.ToVersion
	}
	if s.ckptRepl.Epoch != 0 {
		rs := s.ckptRepl
		if token > rs.LastToken {
			rs.LastToken = token
		}
		if err := counter.RestoreReplicationState(rs); err != nil {
			return nil, err
		}
	}
	return counter, nil
}

// Attach implements StateStore.
func (s *MemStore) Attach(counter *mining.ShardedCounter) error {
	if counter == nil {
		return fmt.Errorf("%w: nil counter", ErrStore)
	}
	if s.counter != nil {
		return fmt.Errorf("%w: a counter is already attached", ErrStore)
	}
	s.counter = counter
	s.closed = false // a closed MemStore is reusable: Recover then re-Attach
	return s.Checkpoint()
}

// Append implements StateStore.
func (s *MemStore) Append() error {
	if err := s.attached(); err != nil {
		return err
	}
	d, err := s.counter.DeltaSince(s.lastToken)
	if err != nil {
		return err
	}
	if d.Full() {
		return s.Checkpoint()
	}
	if d.ToVersion == s.lastToken {
		return nil
	}
	s.wal = append(s.wal, d)
	s.lastToken = d.ToVersion
	s.sinceCkpt += d.Records
	return nil
}

// Checkpoint implements StateStore.
func (s *MemStore) Checkpoint() error {
	if err := s.attached(); err != nil {
		return err
	}
	d, err := s.counter.DeltaSince(0)
	if err != nil {
		return err
	}
	s.ckpt = d
	s.ckptRepl = s.counter.ReplicationState()
	s.ckptRepl.LastToken = d.ToVersion
	s.wal = nil
	s.lastToken = d.ToVersion
	s.sinceCkpt = 0
	return nil
}

// SinceCheckpoint implements StateStore.
func (s *MemStore) SinceCheckpoint() int { return s.sinceCkpt }

// Close implements StateStore. The retained state survives Close so a
// test can Recover a successor counter from it.
func (s *MemStore) Close() error {
	s.closed = true
	s.counter = nil
	return nil
}

func (s *MemStore) attached() error {
	if s.closed {
		return fmt.Errorf("%w: store is closed", ErrStore)
	}
	if s.counter == nil {
		return fmt.Errorf("%w: no counter attached", ErrStore)
	}
	return nil
}
