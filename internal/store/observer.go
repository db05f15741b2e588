package store

import "time"

// Observer receives durability telemetry from a FileStore: WAL append
// and fsync latency, segment growth, checkpoint compaction cost, and
// the recovery outcome. Implementations must be cheap and must not call
// back into the store; they run on the service's flusher goroutine (and
// once on the recovery path), so no internal synchronization is needed
// beyond what the implementation itself requires.
//
// All quantities are operational aggregates — byte and record counts,
// durations, error presence. No counter content ever passes through.
type Observer interface {
	// ObserveAppend reports one Append call: payload bytes framed into
	// the WAL, records carried by the delta, time spent inside fsync
	// (zero under SyncOff and on the no-op path), the total call
	// duration, and the outcome. A no-op flush (nothing changed)
	// reports zero bytes and records.
	ObserveAppend(bytes, records int, fsync, total time.Duration, err error)
	// ObserveCheckpoint reports one checkpoint compaction: serialized
	// counter-state bytes (the full delta), total duration (delta pull,
	// atomic write, WAL rotation, prune), and the outcome.
	ObserveCheckpoint(stateBytes int, total time.Duration, err error)
	// ObserveWALSize reports the current WAL segment's size in bytes
	// after every append and rotation.
	ObserveWALSize(bytes int64)
	// ObserveRecovery reports the Recover outcome once per store
	// lifecycle: how many records the recovered counter holds and
	// whether any durable state existed.
	ObserveRecovery(records int, hadState bool, err error)
}

// SetObserver installs the durability telemetry hook. Call it before
// Recover/Attach; the field is read unsynchronized from the store's
// single-threaded method surface.
func (s *FileStore) SetObserver(o Observer) { s.obs = o }
