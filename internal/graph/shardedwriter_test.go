package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// scriptOp is one step of a random mutation script.
type scriptOp struct {
	kind byte // 'n' node, 'e' edge, 'l' label, 'a' node attr, 'x' edge attr, 'p' publish
	a, b int
	k, v string
}

func randomScript(rng *rand.Rand, n int) []scriptOp {
	var script []scriptOp
	nodes, edges := 0, 0
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 3 || nodes < 2:
			script = append(script, scriptOp{kind: 'n'})
			nodes++
		case r < 6:
			script = append(script, scriptOp{kind: 'e', a: rng.Intn(nodes), b: rng.Intn(nodes)})
			edges++
		case r < 7:
			script = append(script, scriptOp{kind: 'l', a: rng.Intn(nodes), v: fmt.Sprintf("L%d", rng.Intn(4))})
		case r < 8:
			script = append(script, scriptOp{kind: 'a', a: rng.Intn(nodes), k: "k", v: fmt.Sprintf("v%d", i)})
		case r < 9 && edges > 0:
			script = append(script, scriptOp{kind: 'x', a: rng.Intn(edges), k: "w", v: fmt.Sprintf("%d", i)})
		default:
			script = append(script, scriptOp{kind: 'p'})
		}
	}
	return script
}

// runScript drives script through w (plus a final publish), returning the
// IDs staging assigned and each publish's epoch-stamped fingerprint.
func runScript(t *testing.T, w *Writer, script []scriptOp) (nodeIDs []NodeID, edgeIDs []EdgeID, epochs []string) {
	t.Helper()
	for _, s := range script {
		switch s.kind {
		case 'n':
			nodeIDs = append(nodeIDs, w.AddNode())
		case 'e':
			edgeIDs = append(edgeIDs, w.AddEdge(nodeIDs[s.a], nodeIDs[s.b]))
		case 'l':
			w.SetLabel(nodeIDs[s.a], s.v)
		case 'a':
			w.SetNodeAttr(nodeIDs[s.a], s.k, s.v)
		case 'x':
			w.SetEdgeAttr(edgeIDs[s.a], s.k, s.v)
		case 'p':
			snap, err := w.Publish()
			if err != nil {
				t.Fatalf("publish: %v", err)
			}
			epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", snap.Epoch(), graphFingerprint(snap.Graph())))
		}
	}
	snap, err := w.Publish()
	if err != nil {
		t.Fatalf("final publish: %v", err)
	}
	epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", snap.Epoch(), graphFingerprint(snap.Graph())))
	return nodeIDs, edgeIDs, epochs
}

// referenceEpochs is the definitional reference for runScript: the script
// applied op by op to a plain mutable Graph through ApplyOp, fingerprinted
// at every publish point. An empty publish keeps the epoch, as Publish
// does with nothing pending.
func referenceEpochs(t *testing.T, directed bool, script []scriptOp) []string {
	t.Helper()
	g := New(directed)
	var epochs []string
	epoch, pending := 0, 0
	publish := func() {
		if pending > 0 {
			epoch, pending = epoch+1, 0
		}
		epochs = append(epochs, fmt.Sprintf("epoch %d\n%s", epoch, graphFingerprint(g)))
	}
	for _, s := range script {
		var op Op
		switch s.kind {
		case 'n':
			op = Op{Kind: OpAddNode}
		case 'e':
			op = Op{Kind: OpAddEdge, A: int32(s.a), B: int32(s.b)}
		case 'l':
			op = Op{Kind: OpSetLabel, A: int32(s.a), Val: s.v}
		case 'a':
			op = Op{Kind: OpSetNodeAttr, A: int32(s.a), Key: s.k, Val: s.v}
		case 'x':
			op = Op{Kind: OpSetEdgeAttr, A: int32(s.a), Key: s.k, Val: s.v}
		case 'p':
			publish()
			continue
		}
		if err := ApplyOp(g, op); err != nil {
			t.Fatalf("reference apply: %v", err)
		}
		pending++
	}
	publish()
	return epochs
}

// TestShardedWriterParity holds the writer to the definitional reference
// — every epoch's fingerprint equals the script applied op by op to a
// plain Graph, and staging assigns dense IDs in staging order — for one
// shard and for P=4 with the shard-parallel apply.
func TestShardedWriterParity(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("directed=%v/shards=%d", directed, shards), func(t *testing.T) {
				if shards > 1 {
					// Apply parallelism is min(shards, GOMAXPROCS): raise
					// GOMAXPROCS so the parallel apply runs on small hosts.
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(shards))
				}
				rng := rand.New(rand.NewSource(7))
				script := randomScript(rng, 400)
				w := NewShardedWriter(New(directed), shards)
				if shards > 1 && w.applyWorkers() != shards {
					t.Fatalf("apply workers = %d, want %d", w.applyWorkers(), shards)
				}
				nodeIDs, edgeIDs, got := runScript(t, w, script)
				for i, id := range nodeIDs {
					if id != NodeID(i) {
						t.Fatalf("node %d staged as ID %d, want dense %d", i, id, i)
					}
				}
				for i, id := range edgeIDs {
					if id != EdgeID(i) {
						t.Fatalf("edge %d staged as ID %d, want dense %d", i, id, i)
					}
				}
				want := referenceEpochs(t, directed, script)
				if len(got) != len(want) {
					t.Fatalf("%d publishes, reference %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("publish %d diverges from reference:\nwriter:\n%s\nreference:\n%s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestShardedWriterWALOrdering checks the WAL receives exactly the batches
// subscribers see: the one-shard flat appends, and the P=4 per-shard
// segment records reassembled by their batch indexes, both equal each
// published Delta's ops.
func TestShardedWriterWALOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	script := randomScript(rng, 300)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var logged, published [][]Op
			w := NewShardedWriter(New(false), shards)
			rec := &shardWALRecorder{onEpoch: func(ops []Op) { logged = append(logged, ops) }}
			w.SetWAL(rec)
			w.Subscribe(func(_ *Snapshot, d Delta) { published = append(published, d.Ops) })
			runScript(t, w, script)
			if len(published) == 0 {
				t.Fatal("script published nothing")
			}
			// One shard appends flat batches; P shards append segments only.
			wantFlat := 0
			if shards == 1 {
				wantFlat = len(published)
			}
			if rec.flat != wantFlat {
				t.Fatalf("flat appends = %d, want %d", rec.flat, wantFlat)
			}
			if !reflect.DeepEqual(logged, published) {
				t.Fatalf("WAL batches diverge from published deltas (%d vs %d epochs)", len(logged), len(published))
			}
		})
	}
}

// shardWALRecorder implements ShardWAL, reassembling each epoch's parts;
// flat counts the whole-batch (AppendBatch) appends.
type shardWALRecorder struct {
	onEpoch func([]Op)
	fail    map[int]error
	flat    int
}

func (r *shardWALRecorder) AppendBatch(ops []Op) error {
	r.flat++
	r.onEpoch(append([]Op(nil), ops...))
	return nil
}

func (r *shardWALRecorder) AppendShardBatch(parts []ShardBatch, totalOps int) error {
	for _, p := range parts {
		if err := r.fail[p.Shard]; err != nil {
			return &segmentFault{shard: p.Shard, err: err}
		}
	}
	ops := make([]Op, totalOps)
	seen := 0
	for _, p := range parts {
		for i, op := range p.Ops {
			ops[p.Index[i]] = op
			seen++
		}
	}
	if seen != totalOps {
		return fmt.Errorf("short batch: %d of %d ops", seen, totalOps)
	}
	if r.onEpoch != nil {
		r.onEpoch(ops)
	}
	return nil
}

type segmentFault struct {
	shard int
	err   error
}

func (f *segmentFault) Error() string    { return fmt.Sprintf("shard %d: %v", f.shard, f.err) }
func (f *segmentFault) Unwrap() error    { return f.err }
func (f *segmentFault) FailedShard() int { return f.shard }

// TestShardedWriterConcurrentIngest stages from several goroutines while
// another publishes continuously; the final graph must contain every
// staged object under the IDs staging returned. Run under -race.
func TestShardedWriterConcurrentIngest(t *testing.T) {
	sw := NewShardedWriter(New(false), 4)
	const workers, perWorker = 4, 200
	type star struct {
		center NodeID
		leaves []NodeID
		edges  []EdgeID
	}
	stars := make([][]star, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	stop := make(chan struct{})
	var pubErr error
	var pubWg sync.WaitGroup
	pubWg.Add(1)
	go func() {
		defer pubWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := sw.Publish(); err != nil && pubErr == nil {
					pubErr = err
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := star{center: sw.AddNode()}
				for l := 0; l < 3; l++ {
					leaf := sw.AddNode()
					s.leaves = append(s.leaves, leaf)
					s.edges = append(s.edges, sw.AddEdge(s.center, leaf))
				}
				sw.SetLabel(s.center, "C")
				stars[w] = append(stars[w], s)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	pubWg.Wait()
	if pubErr != nil {
		t.Fatalf("publisher: %v", pubErr)
	}
	snap, err := sw.Publish()
	if err != nil {
		t.Fatalf("final publish: %v", err)
	}
	g := snap.Graph()
	if got, want := g.NumNodes(), workers*perWorker*4; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	if got, want := g.NumEdges(), workers*perWorker*3; got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
	for w := range stars {
		for _, s := range stars[w] {
			if g.LabelString(s.center) != "C" {
				t.Fatalf("node %d lost its label", s.center)
			}
			for i, e := range s.edges {
				ed := g.Edge(e)
				if ed.From != s.center || ed.To != s.leaves[i] {
					t.Fatalf("edge %d = %d->%d, want %d->%d", e, ed.From, ed.To, s.center, s.leaves[i])
				}
			}
		}
	}
}

// TestShardedWriterDegradedShardIsolation drives one shard's segment into
// a permanent failure and checks (a) only that shard degrades, (b) later
// publishes route healthy shards' ops around it subject to dense-ID
// holds, and (c) clearing the fault catches up to the full graph.
func TestShardedWriterDegradedShardIsolation(t *testing.T) {
	const shards = 4
	rec := &shardWALRecorder{fail: map[int]error{}}
	sw := NewShardedWriter(New(false), shards)
	sw.SetWAL(rec)

	// Seed nodes across every shard, published while healthy.
	var nodes []NodeID
	for i := 0; i < 64; i++ {
		nodes = append(nodes, sw.AddNode())
	}
	if _, err := sw.Publish(); err != nil {
		t.Fatalf("seed publish: %v", err)
	}

	// Find a victim shard that owns at least one seeded node.
	part := sw.Partitioner()
	victim := part.Shard(nodes[0])
	rec.fail[victim] = errors.New("injected ENOSPC")

	// Stage attrs on every node: victim-shard ops will stick, others
	// publish after the first (failing) attempt.
	for _, n := range nodes {
		sw.SetNodeAttr(n, "touched", "yes")
	}
	if _, err := sw.Publish(); err == nil {
		t.Fatal("publish with failing shard should error")
	}
	if got := sw.DegradedShards(); len(got) != 1 || got[0] != victim {
		t.Fatalf("DegradedShards = %v, want [%d]", got, victim)
	}

	snap, err := sw.Publish() // routes around the degraded lane
	if err != nil {
		t.Fatalf("routed publish: %v", err)
	}
	g := snap.Graph()
	for _, n := range nodes {
		want := part.Shard(n) != victim
		if got := g.NodeAttrs(n)["touched"] == "yes"; got != want {
			t.Fatalf("node %d (shard %d): touched=%v, want %v", n, part.Shard(n), got, want)
		}
	}

	// New creations: the first held creation (a node hashing to the
	// victim) gates every later creation, keeping IDs dense.
	var newNodes []NodeID
	for i := 0; i < 32; i++ {
		newNodes = append(newNodes, sw.AddNode())
	}
	firstHeld := -1
	for i, n := range newNodes {
		if part.Shard(n) == victim {
			firstHeld = i
			break
		}
	}
	snap, err = sw.Publish()
	if firstHeld == 0 {
		// Everything was held: the publish makes no progress and reports
		// the degraded shard instead.
		if err == nil {
			t.Fatal("fully held publish should surface the degraded error")
		}
		snap = sw.Snapshot()
	} else if err != nil {
		t.Fatalf("creation publish: %v", err)
	}
	wantNodes := len(nodes) + len(newNodes)
	if firstHeld >= 0 {
		wantNodes = len(nodes) + firstHeld
	}
	if got := snap.Graph().NumNodes(); got != wantNodes {
		t.Fatalf("published nodes = %d, want %d (first held creation at %d)", got, wantNodes, firstHeld)
	}

	// Recovery: clear the fault; everything held must publish, and the
	// result must match a from-scratch replay of the recorded WAL.
	delete(rec.fail, victim)
	if !sw.ClearDegraded() {
		t.Fatal("ClearDegraded reported no degraded shard")
	}
	snap, err = sw.Publish()
	if err != nil {
		t.Fatalf("recovery publish: %v", err)
	}
	g = snap.Graph()
	if got := g.NumNodes(); got != len(nodes)+len(newNodes) {
		t.Fatalf("recovered nodes = %d, want %d", got, len(nodes)+len(newNodes))
	}
	for _, n := range nodes {
		if g.NodeAttrs(n)["touched"] != "yes" {
			t.Fatalf("node %d attr lost after recovery", n)
		}
	}
	if sw.Pending() != 0 {
		t.Fatalf("pending = %d after recovery", sw.Pending())
	}
}

// TestRouteBatchWatermarks exercises the pure dense-ID routing rules.
func TestRouteBatchWatermarks(t *testing.T) {
	deg := make([]*DegradedError, 3)
	deg[1] = &DegradedError{}
	mk := func(lane int, kind OpKind, id, a, b int32) pubOp {
		return pubOp{seqOp: seqOp{id: id, op: Op{Kind: kind, A: a, B: b}}, lane: lane}
	}
	merged := []pubOp{
		mk(0, OpAddNode, 10, 0, 0),     // publishes
		mk(1, OpAddNode, 11, 0, 0),     // held: degraded lane → nodeWM=11
		mk(2, OpAddNode, 12, 0, 0),     // held: id >= nodeWM
		mk(0, OpAddEdge, 5, 10, 3),     // publishes (endpoints < 11)
		mk(2, OpAddEdge, 6, 11, 3),     // held: endpoint >= nodeWM → edgeWM=6
		mk(0, OpAddEdge, 7, 10, 10),    // held: id >= edgeWM
		mk(2, OpSetLabel, 0, 10, 0),    // publishes
		mk(2, OpSetLabel, 0, 12, 0),    // held: references held node
		mk(0, OpSetEdgeAttr, 0, 5, 0),  // publishes
		mk(0, OpSetEdgeAttr, 0, 6, 0),  // held: references held edge
		mk(1, OpSetNodeAttr, 0, 10, 0), // held: degraded lane
	}
	pub, held := routeBatch(merged, deg)
	if len(pub) != 4 || len(held) != 7 {
		t.Fatalf("pub=%d held=%d, want 4/7", len(pub), len(held))
	}
	for _, po := range pub {
		if po.lane == 1 {
			t.Fatal("degraded-lane op published")
		}
	}
	// Without degraded lanes everything publishes untouched.
	pub, held = routeBatch(merged, make([]*DegradedError, 3))
	if len(pub) != len(merged) || held != nil {
		t.Fatalf("healthy route: pub=%d held=%d", len(pub), len(held))
	}
}

// TestComputeStatsShardedMatches checks per-shard statistics merge to the
// whole-graph snapshot.
func TestComputeStatsShardedMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(false)
	for i := 0; i < 500; i++ {
		g.AddNode()
	}
	for i := 0; i < 1500; i++ {
		g.AddEdge(NodeID(rng.Intn(500)), NodeID(rng.Intn(500)))
	}
	for i := 0; i < 200; i++ {
		g.SetLabel(NodeID(rng.Intn(500)), fmt.Sprintf("L%d", rng.Intn(5)))
	}
	want := ComputeStats(g)
	part := NewPartitioner(4)
	got := ComputeStatsSharded(g, part, 4)
	if got.Nodes != want.Nodes || got.Edges != want.Edges || got.MaxDegree != want.MaxDegree {
		t.Fatalf("counts diverge: got %+v want %+v", got, want)
	}
	if !reflect.DeepEqual(got.LabelCounts, want.LabelCounts) {
		t.Fatalf("label counts diverge")
	}
	for j := range want.DegreeMoments {
		d := got.DegreeMoments[j] - want.DegreeMoments[j]
		if d < -1e-6 || d > 1e-6 {
			t.Fatalf("moment %d diverges: %v vs %v", j, got.DegreeMoments[j], want.DegreeMoments[j])
		}
	}
	// Shard snapshots are disjoint: node counts must sum exactly.
	sum := 0
	for s := 0; s < part.Shards(); s++ {
		sum += ComputeStatsShard(g, part, s).Nodes
	}
	if sum != want.Nodes {
		t.Fatalf("shard node counts sum to %d, want %d", sum, want.Nodes)
	}
}

// TestPartitionerDeterminism pins the hash: shard assignment is part of
// the on-disk contract and must never drift.
func TestPartitionerDeterminism(t *testing.T) {
	p := NewPartitioner(4)
	want := []int{3, 1, 2, 1, 2, 2, 0, 3}
	for i, w := range want {
		if got := p.Shard(NodeID(i)); got != w {
			t.Fatalf("Shard(%d) = %d, want %d (hash drifted — on-disk contract)", i, got, w)
		}
	}
	if NewPartitioner(1).Shard(12345) != 0 || (Partitioner{}).Shard(7) != 0 {
		t.Fatal("single-shard partitioner must map everything to 0")
	}
}
