package mining

import "fmt"

// Crash-recovery support for live counters. The durable store
// (internal/store) logs a ShardedCounter's changes as a chain of
// CounterDelta records — the same sparse joint-histogram diffs the
// federation layer replicates — and rebuilds the counter after a crash
// by loading a compacted checkpoint and replaying the chain's tail.
// This file provides the two primitives that makes possible on the
// counter itself: applying a delta to a LIVE counter (recovery replay
// and checkpoint restore both fold deltas into fresh counters), and
// persisting/restoring the replication identity (delta epoch, retained
// baselines, token high-water mark) so federation pullers can resume
// incremental replication against a restarted process instead of
// falling back to a full re-pull.

// tokenRecoveryGap is added to the persisted token high-water mark on
// restore. Stream tokens minted after the last checkpoint are lost in a
// crash, so a recovered counter that continued from the persisted mark
// alone could re-mint a pre-crash token for DIFFERENT state — and a
// puller still holding the old token would silently chain onto the
// wrong baseline. The gap keeps every post-recovery token above any
// token the previous boot could plausibly have minted (one token per
// pull: 2^32 pulls between two checkpoints is out of reach).
const tokenRecoveryGap = 1 << 32

// ApplyDelta folds a replication or WAL delta into the live counter: the
// cells land in one shard (validated by the shard's own ApplyDelta —
// fingerprint, ranges, positivity, record-count sum) and the counter's
// record count and content version advance by the delta's record count,
// exactly as if the delta's records had been ingested one by one. A FULL
// delta is accepted only by an empty counter — the caller chains deltas,
// the counter refuses the one misuse that would double-count.
func (c *ShardedCounter) ApplyDelta(d *CounterDelta) error {
	if d == nil {
		return fmt.Errorf("%w: nil delta", ErrMining)
	}
	if d.Full() && c.N() != 0 {
		return fmt.Errorf("%w: full delta applied to a counter already holding %d records", ErrMining, c.N())
	}
	shard := c.next.Add(1) % uint64(len(c.shards))
	if err := c.shards[shard].ApplyDelta(d); err != nil {
		return err
	}
	c.total.Add(int64(d.Records))
	c.version.Add(uint64(d.Records))
	return nil
}

// ReplicationBaseline is one retained DeltaSince baseline in portable
// form: the stream token it was issued under and the exact sparse joint
// histogram handed to the puller at that token.
type ReplicationBaseline struct {
	Token   uint64
	Records int
	Cells   []DeltaCell
}

// ReplicationState is the counter's replication identity, captured for
// persistence: the delta epoch every extracted delta carries, the token
// high-water mark, and the retained baselines (oldest first). Restoring
// it into a recovered counter lets pullers that chained onto the
// pre-crash counter continue incrementally — same epoch, same retained
// baselines — instead of being forced into a full resync.
type ReplicationState struct {
	Epoch     uint64
	LastToken uint64
	Baselines []ReplicationBaseline
}

// ReplicationState captures the counter's replication identity under the
// checkpoint lock.
func (c *ShardedCounter) ReplicationState() ReplicationState {
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	rs := ReplicationState{Epoch: c.deltaEpoch, LastToken: c.lastDeltaToken}
	for _, tok := range c.ckptOrder {
		ck := c.ckpts[tok]
		b := ReplicationBaseline{Token: tok, Records: ck.n, Cells: make([]DeltaCell, 0, len(ck.joint))}
		for idx, v := range ck.joint {
			if v != 0 {
				b.Cells = append(b.Cells, DeltaCell{Idx: idx, Count: v})
			}
		}
		rs.Baselines = append(rs.Baselines, b)
	}
	return rs
}

// RestoreReplicationState adopts a persisted replication identity into a
// freshly recovered counter: the delta epoch is restored (so pullers'
// generation checks pass), the token high-water mark jumps past anything
// the previous boot could have minted (see tokenRecoveryGap), and every
// baseline that is still a subset of the recovered state is re-retained.
// A baseline the recovered counter does not dominate — possible when a
// crash lost WAL records that a puller had already been served — is
// silently dropped: its puller then gets a full resync, which is always
// safe, instead of an incremental diff against state it doesn't hold.
//
// Call before the counter is shared: like construction, this runs
// single-threaded during recovery, not under concurrent ingest.
func (c *ShardedCounter) RestoreReplicationState(rs ReplicationState) error {
	if rs.Epoch == 0 {
		return fmt.Errorf("%w: replication state carries no epoch", ErrMining)
	}
	joint := make(map[uint64]float64)
	n := 0
	for _, s := range c.shards {
		n += s.addJointInto(joint)
	}
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	c.deltaEpoch = rs.Epoch
	base := rs.LastToken
	if v := c.version.Load(); v > base {
		base = v
	}
	c.lastDeltaToken = base + tokenRecoveryGap
	for _, b := range rs.Baselines {
		if b.Token == 0 || b.Records < 0 || b.Records > n || len(b.Cells) > len(joint) {
			continue
		}
		if _, dup := c.ckpts[b.Token]; dup {
			continue
		}
		if len(c.ckptOrder) >= maxDeltaCheckpoints {
			break
		}
		ck := &deltaCheckpoint{n: b.Records, joint: make(map[uint64]float64, len(b.Cells))}
		valid := true
		for _, cell := range b.Cells {
			if cell.Count <= 0 || cell.Count > joint[cell.Idx]+1e-9 {
				valid = false
				break
			}
			ck.joint[cell.Idx] = cell.Count
		}
		if !valid {
			continue
		}
		c.ckpts[b.Token] = ck
		c.ckptOrder = append(c.ckptOrder, b.Token)
	}
	return nil
}
