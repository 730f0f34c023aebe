package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file is the write-path fault policy of the MVCC core: transient
// WAL-append failures are retried with bounded exponential backoff and
// jitter, and an unrecoverable failure — a permanent error, or a
// transient one that survives every retry — flips the failing shard's
// lane into an explicit read-only degraded mode. A failure that does not
// identify a shard degrades every lane, so with one shard degraded means
// whole-writer read-only: publishes fail fast with the same
// *DegradedError until an operator resolves the storage fault and calls
// ClearDegraded. Everything else keeps working — pending ops are retained
// for the post-recovery retry, staged mutations still accumulate, and
// snapshot reads (the whole query path) are untouched, because readers
// never depend on the writer.

// IsTransient reports whether err is classified retryable by the storage
// layer (or any WAL implementation): some error in its chain exposes
// `Transient() bool` returning true. storage.TransientError is the
// canonical implementation; the interface check keeps this package free
// of a storage import.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy bounds the writer's WAL-append retries. The zero value
// picks the defaults; a negative MaxAttempts disables retrying (one
// attempt, no backoff).
type RetryPolicy struct {
	// MaxAttempts is the total number of append attempts, the first
	// included (0: default 4; negative: 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (0: default 2ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (0: default 50ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) attempts() int {
	switch {
	case p.MaxAttempts > 0:
		return p.MaxAttempts
	case p.MaxAttempts < 0:
		return 1
	}
	return 4
}

// backoff returns the sleep before retry number retry (1-based):
// exponential doubling from BaseDelay, capped at MaxDelay, with equal
// jitter (half fixed, half uniform random) so a fleet of writers hitting
// one faulted disk does not retry in lockstep.
func (p RetryPolicy) backoff(retry int, rng *rand.Rand) time.Duration {
	base, max := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 2 * time.Millisecond
	}
	if max <= 0 {
		max = 50 * time.Millisecond
	}
	d := base << (retry - 1)
	if d > max || d <= 0 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// DegradedError reports that a writer lane is in read-only degraded mode:
// an earlier publish exhausted its WAL retries (or hit a permanent
// storage failure), and that lane's ops stay held until ClearDegraded.
// With one shard every subsequent publish fails fast with this error.
// Reads are unaffected — pinned snapshots and new Snapshot() acquisitions
// keep serving the last published epoch.
type DegradedError struct {
	// Cause is the unrecoverable WAL failure that tripped degraded mode.
	Cause error
	// Epoch is the last successfully published version; everything up to
	// it is durable and being served.
	Epoch uint64
	// Since is when the writer degraded.
	Since time.Time
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("graph: writer degraded (read-only) since %s at epoch %d: %v",
		e.Since.Format(time.RFC3339), e.Epoch, e.Cause)
}

// Unwrap exposes the storage failure that tripped degraded mode.
func (e *DegradedError) Unwrap() error { return e.Cause }

// appendWAL drives one batch through the WAL under the retry policy:
// transient failures back off and retry up to the policy's attempt
// budget, permanent failures return immediately. ops is pub's op
// sequence; it is appended whole unless the writer is sharded and the WAL
// is a ShardWAL, which gets per-shard segment records instead. Called
// with pubMu held.
func (w *Writer) appendWAL(pub []pubOp, ops []Op) error {
	swal, sharded := w.wal.(ShardWAL)
	sharded = sharded && w.part.Enabled()
	var parts []ShardBatch
	if sharded {
		byLane := make([]ShardBatch, len(w.lanes))
		for i := range byLane {
			byLane[i].Shard = i
		}
		for idx, po := range pub {
			b := &byLane[po.lane]
			b.Index = append(b.Index, uint32(idx))
			b.Ops = append(b.Ops, po.op)
		}
		for _, b := range byLane {
			if len(b.Ops) > 0 {
				parts = append(parts, b)
			}
		}
	}
	policy := w.WALRetry
	var err error
	for attempt := 1; ; attempt++ {
		if sharded {
			err = swal.AppendShardBatch(parts, len(pub))
		} else {
			err = w.wal.AppendBatch(ops)
		}
		if err == nil {
			return nil
		}
		if !IsTransient(err) || attempt >= policy.attempts() {
			return err
		}
		if w.rng == nil {
			w.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
		}
		if d := policy.backoff(attempt, w.rng); d > 0 {
			time.Sleep(d)
		}
	}
}

// routeBatch splits a merged batch into the publishable prefix-by-density
// and the held remainder. With no degraded lanes everything publishes.
// Ops in degraded lanes are held; so is any op that would break dense ID
// assignment if published without them: creations at or after the first
// held creation of their kind, and references to IDs those would assign.
func routeBatch(merged []pubOp, degraded []*DegradedError) (pub, held []pubOp) {
	if firstDegraded(degraded) == nil {
		return merged, nil
	}
	const noWM = int32(1<<31 - 1)
	nodeWM, edgeWM := noWM, noWM
	pub = make([]pubOp, 0, len(merged))
	for _, po := range merged {
		bad := degraded[po.lane] != nil
		switch po.op.Kind {
		case OpAddNode:
			bad = bad || po.id >= nodeWM
			if bad && po.id < nodeWM {
				nodeWM = po.id
			}
		case OpAddEdge:
			bad = bad || po.id >= edgeWM || po.op.A >= nodeWM || po.op.B >= nodeWM
			if bad && po.id < edgeWM {
				edgeWM = po.id
			}
		case OpSetLabel, OpSetNodeAttr:
			bad = bad || po.op.A >= nodeWM
		case OpSetEdgeAttr:
			bad = bad || po.op.A >= edgeWM
		}
		if bad {
			held = append(held, po)
		} else {
			pub = append(pub, po)
		}
	}
	return pub, held
}

// firstDegraded returns the lowest-shard degraded error in the set.
func firstDegraded(degraded []*DegradedError) *DegradedError {
	for _, d := range degraded {
		if d != nil {
			return d
		}
	}
	return nil
}

// setDegraded marks the failing shard's lane (or every lane when the
// error does not identify one) sticky read-only.
func (w *Writer) setDegraded(cause error, epoch uint64) {
	shard := -1
	var sf ShardFault
	if errors.As(cause, &sf) {
		shard = sf.FailedShard()
	}
	d := &DegradedError{Cause: cause, Epoch: epoch, Since: time.Now()}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if shard >= 0 && shard < len(w.lanes) {
		w.lanes[shard].degraded = d
		return
	}
	for i := range w.lanes {
		w.lanes[i].degraded = d
	}
}

// Degraded returns the writer's degraded state: nil while every shard is
// healthy, the lowest degraded shard's *DegradedError otherwise (as an
// error; a typed nil never escapes). With P > 1 a non-nil result means at
// most that shard's writes are stuck; healthy shards keep publishing.
// Serving layers poll this for health reporting.
func (w *Writer) Degraded() error {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	for i := range w.lanes {
		if d := w.lanes[i].degraded; d != nil {
			return d
		}
	}
	return nil
}

// DegradedShards lists the currently degraded shards (nil when healthy).
func (w *Writer) DegradedShards() []int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	var out []int
	for i := range w.lanes {
		if w.lanes[i].degraded != nil {
			out = append(out, i)
		}
	}
	return out
}

// ClearDegraded re-arms every degraded shard after the underlying storage
// fault is resolved (space freed, volume remounted, log compacted onto a
// healthy device). Held ops were retained in sequence order, so the next
// Publish retries them. It reports whether any shard was degraded.
func (w *Writer) ClearDegraded() bool {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	was := false
	for i := range w.lanes {
		if w.lanes[i].degraded != nil {
			was = true
			w.lanes[i].degraded = nil
		}
	}
	return was
}
