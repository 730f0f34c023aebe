package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// WAL is the durability hook a Writer calls before publishing a batch:
// AppendBatch must make the ops durable (storage.Log implements it with an
// fsynced append-only segment). A publish whose WAL append fails is
// aborted — the ops stay pending and no new snapshot appears — so every
// published epoch is recoverable by replay.
type WAL interface {
	AppendBatch(ops []Op) error
}

// ShardBatch is one shard's slice of a published epoch: the ops routed to
// that shard plus each op's position in the whole merged batch. The
// positions let replay reassemble the exact publish order from P
// independently written log segments.
type ShardBatch struct {
	// Shard is the partitioner shard (and log segment) these ops belong to.
	Shard int
	// Index[i] is Ops[i]'s position in the whole epoch's merged batch.
	Index []uint32
	// Ops are the shard's ops in batch order.
	Ops []Op
}

// ShardWAL is the per-shard durability hook of a multi-shard Writer: one
// epoch is appended as P independent segment records (only non-empty
// shards write), all fsynced before the publish becomes visible. An
// append that fails on any segment must restore every segment to its
// prior record boundary before returning, so the whole epoch can be
// retried; the returned error should implement ShardFault to confine
// degraded mode to the failing shard. storage.ShardedLog implements this
// contract.
type ShardWAL interface {
	WAL
	// AppendShardBatch appends one epoch across the shard segments.
	// totalOps is the whole batch's op count (recorded in every segment so
	// replay can detect a torn multi-segment append).
	AppendShardBatch(parts []ShardBatch, totalOps int) error
}

// ShardFault is implemented by WAL errors that identify the shard whose
// segment failed, so the writer degrades only that shard. Errors without
// it degrade every shard (the single-log case).
type ShardFault interface {
	FailedShard() int
}

// seqOp is one staged op with its global staging sequence number and, for
// creations, the dense ID it was assigned. Sequence numbers restore the
// global staging order when the per-shard lanes are merged at publish.
type seqOp struct {
	seq uint64
	id  int32 // assigned NodeID/EdgeID for OpAddNode/OpAddEdge; 0 otherwise
	op  Op
}

// pubOp is a merged, publish-ordered op with its originating lane.
type pubOp struct {
	seqOp
	lane int
}

// swLane is one shard's staging lane: its pending ops in sequence order
// and its sticky degraded state. Guarded by the writer's stage mutex.
type swLane struct {
	pending  []seqOp
	degraded *DegradedError
}

// Writer is the single mutation path of the MVCC graph core. It batches
// mutations (AddNode/AddEdge/SetLabel/Set*Attr assign IDs immediately but
// stay invisible to readers) and Publish applies the batch copy-on-write
// to the current snapshot's frozen graph, atomically installing the next
// epoch. Readers acquire versions with Snapshot() — an atomic pointer
// load — and are never blocked by the writer, nor the writer by readers.
//
// The graph is split into P shards by a deterministic Partitioner (P = 1
// for NewWriter). Ops are staged into per-shard lanes and published
// under a single global epoch with a two-phase publish: phase one freezes
// every lane's tail into one sequence-ordered batch and makes it durable
// — through the plain WAL interface for one shard, as per-shard segment
// records for a ShardWAL — and phase two applies the batch copy-on-write,
// shard-parallel for P > 1, and installs the composed snapshot with one
// atomic pointer store. Readers can never observe mixed epochs: there is
// only one published pointer.
//
// Copy-on-write granularity is the dirty tail: a publish copies the
// per-node slice headers (O(nodes) memcpy) plus only the adjacency rows,
// label column, and attribute maps the batch actually touched; everything
// else is shared structurally with the parent version. The CSR traversal
// view is extended with a delta overlay (csr.go) instead of rebuilt, and a
// background compaction folds the overlay flat once it outgrows
// CompactOverlayAt rows.
//
// Staging and publish take different locks, so any number of ingest
// goroutines keep staging while a publish is fsyncing; reads need no
// coordination whatsoever. Degraded mode (degraded.go) is per shard.
type Writer struct {
	// CompactOverlayAt bounds the CSR delta overlay: after a publish
	// leaves more overlay rows than this, a background goroutine compacts
	// the snapshot's CSR to flat arrays. 0 picks a default of
	// max(256, nodes/8). Negative disables background compaction.
	CompactOverlayAt int

	// WALRetry bounds the retries of transient WAL-append failures
	// (degraded.go). Set before sharing the writer; the zero value picks
	// the defaults (4 attempts, 2ms..50ms exponential backoff + jitter).
	WALRetry RetryPolicy

	part Partitioner

	// stageMu guards the staging state: lanes, counters, and the sequence
	// clock. Held only for the few appends of one staged op — never across
	// a WAL fsync or batch application.
	stageMu     sync.Mutex
	lanes       []swLane
	seq         uint64
	stagedNodes int
	stagedEdges int

	// pubMu serializes Publish and Barrier; rng drives retry jitter.
	pubMu sync.Mutex
	cur   atomic.Pointer[Snapshot]
	rng   *rand.Rand

	wal  WAL
	subs []func(*Snapshot, Delta)

	opsPublished atomic.Int64
	compacting   atomic.Bool
	compactions  atomic.Int64
}

// ShardedWriter is the former name of the P-lane Writer.
//
// Deprecated: use Writer. The name survives only for the benchmark
// module, which builds against it unchanged.
type ShardedWriter = Writer

// NewWriter freezes g as the epoch-0 snapshot of a one-shard graph and
// returns its writer. The caller must not retain mutating access to g;
// all further mutation goes through the writer.
func NewWriter(g *Graph) *Writer { return NewShardedWriterAt(g, 0, 1) }

// NewShardedWriter is NewWriter over a graph sharded `shards` ways;
// NewPartitioner(shards) is its node→shard map.
func NewShardedWriter(g *Graph, shards int) *Writer {
	return NewShardedWriterAt(g, 0, shards)
}

// NewShardedWriterAt is NewShardedWriter with an explicit starting epoch,
// used when the graph was recovered by replaying a mutation log: the
// writer resumes the log's epoch sequence so version numbers stay
// monotonic across restarts.
func NewShardedWriterAt(g *Graph, epoch uint64, shards int) *Writer {
	p := NewPartitioner(shards)
	w := &Writer{
		part:        p,
		lanes:       make([]swLane, p.Shards()),
		stagedNodes: g.NumNodes(),
		stagedEdges: g.NumEdges(),
	}
	w.cur.Store(FreezeAt(g, epoch))
	return w
}

// Partitioner returns the writer's node→shard map.
func (w *Writer) Partitioner() Partitioner { return w.part }

// Shards returns the shard count.
func (w *Writer) Shards() int { return w.part.Shards() }

// SetWAL attaches a durability hook: every subsequent Publish appends its
// batch to wal before installing the snapshot. A ShardWAL on a
// multi-shard writer gets per-shard segment appends; otherwise the WAL
// gets the merged batch. Attach before the first publish; batches
// published earlier are not re-appended.
func (w *Writer) SetWAL(wal WAL) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	w.wal = wal
}

// Snapshot returns the current published version: an O(1) atomic load.
// The snapshot is immutable and covers every shard at one epoch; hold it
// as long as needed.
func (w *Writer) Snapshot() *Snapshot { return w.cur.Load() }

// Subscribe registers fn to run synchronously after every publish, in
// registration order, with the new snapshot and the batch that produced
// it. fn runs under the writer's publish lock: it must not publish or
// call Barrier. The incremental census maintainer consumes deltas this
// way.
func (w *Writer) Subscribe(fn func(*Snapshot, Delta)) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	w.subs = append(w.subs, fn)
}

// Pending returns the number of buffered, unpublished ops across all
// lanes.
func (w *Writer) Pending() int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	n := 0
	for i := range w.lanes {
		n += len(w.lanes[i].pending)
	}
	return n
}

// PendingShard returns one shard's buffered op count.
func (w *Writer) PendingShard(shard int) int {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if shard < 0 || shard >= len(w.lanes) {
		return 0
	}
	return len(w.lanes[shard].pending)
}

// stage appends one allocated op to its lane. Caller holds stageMu.
func (w *Writer) stage(lane int, id int32, op Op) {
	s := w.seq
	w.seq++
	w.lanes[lane].pending = append(w.lanes[lane].pending, seqOp{seq: s, id: id, op: op})
}

// AddNode stages a node append and returns the ID it will have once
// published. The node's shard is Partitioner.Shard of that ID.
func (w *Writer) AddNode() NodeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	id := NodeID(w.stagedNodes)
	w.stagedNodes++
	w.stage(w.part.Shard(id), int32(id), Op{Kind: OpAddNode})
	return id
}

// AddNodes stages n node appends and returns the first staged ID.
func (w *Writer) AddNodes(n int) NodeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	first := NodeID(w.stagedNodes)
	for i := 0; i < n; i++ {
		id := NodeID(w.stagedNodes)
		w.stagedNodes++
		w.stage(w.part.Shard(id), int32(id), Op{Kind: OpAddNode})
	}
	return first
}

// AddEdge stages an edge append (from -> to for directed graphs) and
// returns its future EdgeID. Endpoints may be staged nodes not yet
// published. The op is routed to the source endpoint's shard.
func (w *Writer) AddEdge(from, to NodeID) EdgeID {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(from)
	w.mustStagedNode(to)
	id := EdgeID(w.stagedEdges)
	w.stagedEdges++
	w.stage(w.part.Shard(from), int32(id), Op{Kind: OpAddEdge, A: int32(from), B: int32(to)})
	return id
}

// SetLabel stages a label assignment, routed to n's shard.
func (w *Writer) SetLabel(n NodeID, label string) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(n)
	w.stage(w.part.Shard(n), 0, Op{Kind: OpSetLabel, A: int32(n), Val: label})
}

// SetNodeAttr stages a node attribute assignment; the reserved "label"
// key routes to SetLabel, mirroring Graph.SetNodeAttr.
func (w *Writer) SetNodeAttr(n NodeID, key, value string) {
	if key == LabelAttr {
		w.SetLabel(n, value)
		return
	}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	w.mustStagedNode(n)
	w.stage(w.part.Shard(n), 0, Op{Kind: OpSetNodeAttr, A: int32(n), Key: key, Val: value})
}

// SetEdgeAttr stages an edge attribute assignment, routed by
// Partitioner.ShardEdge.
func (w *Writer) SetEdgeAttr(e EdgeID, key, value string) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	if e < 0 || int(e) >= w.stagedEdges {
		panic(fmt.Sprintf("graph: edge %d out of staged range [0,%d)", e, w.stagedEdges))
	}
	w.stage(w.part.ShardEdge(e), 0, Op{Kind: OpSetEdgeAttr, A: int32(e), Key: key, Val: value})
}

func (w *Writer) mustStagedNode(n NodeID) {
	if n < 0 || int(n) >= w.stagedNodes {
		panic(fmt.Sprintf("graph: node %d out of staged range [0,%d)", n, w.stagedNodes))
	}
}

// freeze cuts every lane's pending tail under the stage lock, returning
// the merged batch in global staging order plus the current degraded set.
// Staging resumes immediately; the frozen ops are owned by the publish.
func (w *Writer) freeze() (merged []pubOp, degraded []*DegradedError) {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	total := 0
	for i := range w.lanes {
		total += len(w.lanes[i].pending)
	}
	degraded = make([]*DegradedError, len(w.lanes))
	parts := make([][]seqOp, len(w.lanes))
	for i := range w.lanes {
		parts[i] = w.lanes[i].pending
		w.lanes[i].pending = nil
		degraded[i] = w.lanes[i].degraded
	}
	if total == 0 {
		return nil, degraded
	}
	// K-way merge by sequence number; each lane is already in sequence
	// order (staging appends under one clock, requeue prepends older ops).
	merged = make([]pubOp, 0, total)
	heads := make([]int, len(parts))
	for len(merged) < total {
		best, bestSeq := -1, uint64(0)
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if s := p[heads[i]].seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		merged = append(merged, pubOp{seqOp: parts[best][heads[best]], lane: best})
		heads[best]++
	}
	return merged, degraded
}

// requeue returns unpublished ops to the front of their lanes, preserving
// sequence order ahead of anything staged since the freeze.
func (w *Writer) requeue(ops []pubOp) {
	if len(ops) == 0 {
		return
	}
	perLane := make([][]seqOp, len(w.lanes))
	for _, po := range ops {
		perLane[po.lane] = append(perLane[po.lane], po.seqOp)
	}
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	for i, back := range perLane {
		if len(back) == 0 {
			continue
		}
		w.lanes[i].pending = append(back, w.lanes[i].pending...)
	}
}

// Publish makes the frozen batch durable (when a WAL is attached),
// applies it copy-on-write (shard-parallel for P > 1), and atomically
// installs the next composed snapshot. With nothing pending it returns
// the current snapshot unchanged.
//
// A transient WAL failure (see IsTransient) is retried under WALRetry
// before anything is given up. An unrecoverable failure aborts the
// publish — no snapshot appears, every op stays pending — and flips the
// failing shard's lane (every lane when the failure does not identify a
// shard, which is always the case with one shard) into sticky read-only
// mode, returning a *DegradedError. Later publishes route around degraded
// lanes, publishing what dense ID assignment allows and holding the rest
// until ClearDegraded; a publish that makes progress returns the new
// snapshot and a nil error even while some shards are stuck — poll
// Degraded/DegradedShards for health. Readers are never affected:
// Snapshot() stays an atomic load of the last published version.
func (w *Writer) Publish() (*Snapshot, error) {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	base := w.cur.Load()
	merged, degraded := w.freeze()
	if len(merged) == 0 {
		if d := firstDegraded(degraded); d != nil {
			return base, d
		}
		return base, nil
	}
	pub, held := routeBatch(merged, degraded)
	if len(pub) == 0 {
		w.requeue(merged)
		return base, firstDegraded(degraded)
	}
	ops := make([]Op, len(pub))
	for i, po := range pub {
		ops[i] = po.op
	}
	if w.wal != nil {
		if err := w.appendWAL(pub, ops); err != nil {
			w.requeue(merged)
			w.setDegraded(err, base.epoch)
			return base, w.Degraded()
		}
	}
	next := applyBatch(base.g, ops, base.epoch+1, w.part, w.applyWorkers())
	snap := &Snapshot{epoch: base.epoch + 1, g: next}
	delta := Delta{Epoch: snap.epoch, Ops: ops}
	w.cur.Store(snap)
	w.opsPublished.Add(int64(len(ops)))
	for _, fn := range w.subs {
		fn(snap, delta)
	}
	w.maybeCompact(next)
	w.requeue(held)
	return snap, nil
}

// applyWorkers is the phase-two apply parallelism: min(shards,
// GOMAXPROCS), so a one-shard writer always applies sequentially.
func (w *Writer) applyWorkers() int {
	return min(w.part.Shards(), runtime.GOMAXPROCS(0))
}

// maybeCompact kicks off a background CSR compaction when the new
// snapshot's delta overlay outgrew its bound. At most one compaction runs
// at a time; a snapshot published mid-compaction is picked up by the next
// publish's check.
func (w *Writer) maybeCompact(g *Graph) {
	if w.CompactOverlayAt < 0 {
		return
	}
	rows, built := g.CSRInfo()
	if !built {
		return
	}
	limit := w.CompactOverlayAt
	if limit == 0 {
		limit = g.NumNodes() / 8
		if limit < 256 {
			limit = 256
		}
	}
	if rows <= limit || !w.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		g.CompactCSR()
		w.compactions.Add(1)
		w.compacting.Store(false)
	}()
}

// Barrier runs fn under the publish lock — no publish can interleave —
// with the current snapshot. If fn returns a non-nil WAL it replaces the
// writer's hook: this is the log-compaction handshake (storage.DynamicStore
// saves the base image at the current epoch, then swaps in a fresh log).
func (w *Writer) Barrier(fn func(cur *Snapshot) (WAL, error)) error {
	w.pubMu.Lock()
	defer w.pubMu.Unlock()
	nw, err := fn(w.cur.Load())
	if err != nil {
		return err
	}
	if nw != nil {
		w.wal = nw
	}
	return nil
}

// WriterStats is a point-in-time view of the writer for monitoring
// (egosh's \snapshot command).
type WriterStats struct {
	// Epoch is the current published version.
	Epoch uint64
	// Nodes and Edges are the staged counts, including unpublished ops.
	Nodes, Edges int
	// PendingOps is the buffered batch size.
	PendingOps int
	// OpsPublished is the lifetime total of published ops.
	OpsPublished int64
	// OverlayRows is the current snapshot's CSR delta-overlay size;
	// CSRBuilt reports whether that snapshot has a CSR view at all.
	OverlayRows int
	CSRBuilt    bool
	// Compactions counts completed background CSR compactions.
	Compactions int64
	// Degraded reports whether any shard is in read-only degraded mode
	// (see Writer.Degraded).
	Degraded bool
}

// Stats snapshots the writer's monitoring counters.
func (w *Writer) Stats() WriterStats {
	w.stageMu.Lock()
	pending := 0
	deg := false
	for i := range w.lanes {
		pending += len(w.lanes[i].pending)
		deg = deg || w.lanes[i].degraded != nil
	}
	nodes, edges := w.stagedNodes, w.stagedEdges
	w.stageMu.Unlock()
	snap := w.cur.Load()
	rows, built := snap.g.CSRInfo()
	return WriterStats{
		Epoch:        snap.epoch,
		Nodes:        nodes,
		Edges:        edges,
		PendingOps:   pending,
		OpsPublished: w.opsPublished.Load(),
		OverlayRows:  rows,
		CSRBuilt:     built,
		Compactions:  w.compactions.Load(),
		Degraded:     deg,
	}
}

// ShardStat is one shard's point-in-time staging state.
type ShardStat struct {
	// Shard is the partitioner shard index.
	Shard int
	// PendingOps is the lane's buffered op count (including held ops).
	PendingOps int
	// Degraded reports the lane's sticky read-only state.
	Degraded bool
}

// ShardStats snapshots every lane's staging state for monitoring.
func (w *Writer) ShardStats() []ShardStat {
	w.stageMu.Lock()
	defer w.stageMu.Unlock()
	out := make([]ShardStat, len(w.lanes))
	for i := range w.lanes {
		out[i] = ShardStat{
			Shard:      i,
			PendingOps: len(w.lanes[i].pending),
			Degraded:   w.lanes[i].degraded != nil,
		}
	}
	return out
}

// applyBatch produces the next frozen graph version from base and a
// mutation batch, sharing storage copy-on-write:
//
//   - The per-node slice headers are copied (so header cells are owned);
//     the per-node []Half rows stay shared until the batch's first append
//     to that row. In-place appends into a shared row's spare capacity are
//     safe: cells beyond a published version's length are invisible to it,
//     and the single-writer discipline makes append chains linear.
//   - The edge table, label column, attribute columns, and label
//     dictionary are shared outright and copied lazily on the batch's
//     first in-place overwrite (SetLabel on a pre-existing node, attribute
//     writes, new label interning).
//   - The CSR view is extended with overlay rows for the touched nodes
//     instead of being rebuilt (extendCSR).
//
// With workers > 1 (and part enabled) the adjacency-row appends — the
// batch's only contended state — are deferred into per-shard lists (a row
// belongs to Partitioner.Shard of its node) and replayed by workers that
// each own a disjoint set of shards, so every []Half row is appended to by
// exactly one goroutine, in the original op order. Row ownership, not op
// order, is what makes the in-place appends safe, so the result is field
// for field the sequential one.
//
// base must be frozen; the returned graph is frozen and epoch-stamped.
func applyBatch(base *Graph, ops []Op, epoch uint64, part Partitioner, workers int) *Graph {
	baseNodes := len(base.out)
	baseEdges := len(base.edgs)
	adds := 0
	for _, op := range ops {
		if op.Kind == OpAddNode {
			adds++
		}
	}

	c := &Graph{
		directed:  base.directed,
		epoch:     epoch,
		labelDict: base.labelDict,
		edgs:      base.edgs,
		labels:    base.labels,
		nodeAttrs: base.nodeAttrs,
		edgeAttrs: base.edgeAttrs,
	}
	c.out = make([][]Half, baseNodes, baseNodes+adds)
	copy(c.out, base.out)
	if base.directed {
		c.in = make([][]Half, baseNodes, baseNodes+adds)
		copy(c.in, base.in)
	}

	var (
		ownLabels, ownDict           bool
		ownNodeAttrs, ownEdgeAttrs   bool
		ownedNodeMaps, ownedEdgeMaps map[int32]bool
		dirty                        = make(map[NodeID]struct{}, 2*len(ops))
	)

	setLabel := func(n int32, name string) {
		if int(n) < baseNodes && !ownLabels {
			c.labels = append([]LabelID(nil), c.labels...)
			ownLabels = true
		}
		if !ownDict {
			if _, ok := c.labelDict.Lookup(name); !ok {
				c.labelDict = c.labelDict.Clone()
				ownDict = true
			}
		}
		c.labels[n] = c.labelDict.Intern(name)
	}

	// rowHalf is one adjacency append: Half h onto row's out list (or in
	// list for the directed reverse entry).
	type rowHalf struct {
		row NodeID
		h   Half
		in  bool
	}
	appendHalf := func(rh rowHalf) {
		if rh.in {
			c.in[rh.row] = append(c.in[rh.row], rh.h)
		} else {
			c.out[rh.row] = append(c.out[rh.row], rh.h)
		}
	}
	shards := part.Shards()
	workers = min(workers, shards)
	var perShard [][]rowHalf
	if part.Enabled() && workers > 1 {
		perShard = make([][]rowHalf, shards)
	}
	addHalf := func(rh rowHalf) {
		if perShard == nil {
			appendHalf(rh)
			return
		}
		s := part.Shard(rh.row)
		perShard[s] = append(perShard[s], rh)
	}

	for _, op := range ops {
		switch op.Kind {
		case OpAddNode:
			c.out = append(c.out, nil)
			if c.directed {
				c.in = append(c.in, nil)
			}
			c.labels = append(c.labels, NoLabel)
			c.nodeAttrs = append(c.nodeAttrs, nil)
		case OpAddEdge:
			from, to := NodeID(op.A), NodeID(op.B)
			id := EdgeID(len(c.edgs))
			c.edgs = append(c.edgs, Edge{From: from, To: to})
			c.edgeAttrs = append(c.edgeAttrs, nil)
			addHalf(rowHalf{row: from, h: Half{To: to, Edge: id}})
			if c.directed {
				addHalf(rowHalf{row: to, h: Half{To: from, Edge: id}, in: true})
			} else if from != to {
				addHalf(rowHalf{row: to, h: Half{To: from, Edge: id}})
			}
			dirty[from] = struct{}{}
			dirty[to] = struct{}{}
		case OpSetLabel:
			setLabel(op.A, op.Val)
		case OpSetNodeAttr:
			if op.Key == LabelAttr {
				setLabel(op.A, op.Val)
				continue
			}
			if int(op.A) < baseNodes && !ownNodeAttrs {
				c.nodeAttrs = append([]map[string]string(nil), c.nodeAttrs...)
				ownNodeAttrs = true
			}
			if ownedNodeMaps == nil {
				ownedNodeMaps = map[int32]bool{}
			}
			c.nodeAttrs[op.A] = cowSet(c.nodeAttrs[op.A], ownedNodeMaps, op.A, op.Key, op.Val)
		case OpSetEdgeAttr:
			if int(op.A) < baseEdges && !ownEdgeAttrs {
				c.edgeAttrs = append([]map[string]string(nil), c.edgeAttrs...)
				ownEdgeAttrs = true
			}
			if ownedEdgeMaps == nil {
				ownedEdgeMaps = map[int32]bool{}
			}
			c.edgeAttrs[op.A] = cowSet(c.edgeAttrs[op.A], ownedEdgeMaps, op.A, op.Key, op.Val)
		}
	}

	// Shard-parallel adjacency appends: worker w owns shards s ≡ w (mod
	// workers); rows of one shard never appear in another shard's list,
	// so the appends are disjoint by construction.
	if perShard != nil {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				for s := w; s < shards; s += workers {
					for _, rh := range perShard[s] {
						appendHalf(rh)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	if bc := base.csr.Load(); bc != nil {
		c.csr.Store(extendCSR(bc, c, dirty))
	}
	c.frozen = true
	return c
}

// cowSet writes key=value into an attribute map owned by this batch,
// copying a map shared with earlier versions on first touch.
func cowSet(m map[string]string, owned map[int32]bool, id int32, key, value string) map[string]string {
	switch {
	case m == nil:
		m = make(map[string]string, 2)
		owned[id] = true
	case !owned[id]:
		cp := make(map[string]string, len(m)+1)
		for k, v := range m {
			cp[k] = v
		}
		m = cp
		owned[id] = true
	}
	m[key] = value
	return m
}
