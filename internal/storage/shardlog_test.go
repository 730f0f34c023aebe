package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"egocensus/internal/fault"
	"egocensus/internal/graph"
)

// seedShardGraph is the deterministic base graph for sharded-store tests.
func seedShardGraph() *graph.Graph {
	g := graph.New(false)
	g.AddNodes(8)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.SetLabel(0, "seed")
	return g
}

// publishShardBatches drives count deterministic mixed batches through a
// store's writer, touching every shard (node creations spread over the
// hash), and returns the last acknowledged epoch.
func publishShardBatches(t *testing.T, ds *DynamicStore, seed int64, count int) uint64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := ds.Writer()
	last := uint64(0)
	for b := 0; b < count; b++ {
		nodes := ds.Snapshot().NumNodes() + w.Pending()
		first := w.AddNodes(2)
		w.AddEdge(first, graph.NodeID(rng.Intn(nodes)))
		w.AddEdge(first+1, graph.NodeID(rng.Intn(nodes)))
		w.SetLabel(graph.NodeID(rng.Intn(nodes)), fmt.Sprintf("l%d", b%3))
		w.SetNodeAttr(graph.NodeID(rng.Intn(nodes)), "b", fmt.Sprintf("%d", b))
		snap, err := w.Publish()
		if err != nil {
			t.Fatalf("publish %d: %v", b, err)
		}
		last = snap.Epoch()
	}
	return last
}

func TestShardedDynamicCreateReplayParity(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("P%d", shards), func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "g.egoc")
			ds, err := CreateDynamicSharded(base, seedShardGraph(), shards)
			if err != nil {
				t.Fatal(err)
			}
			ds.SetCompactAtBytes(0)
			if ds.Shards() != shards {
				t.Fatalf("Shards() = %d want %d", ds.Shards(), shards)
			}
			last := publishShardBatches(t, ds, 42, 9)
			want := fingerprintDyn(ds.Snapshot().Graph())
			ds.Close()

			ds2, err := OpenDynamic(base)
			if err != nil {
				t.Fatal(err)
			}
			defer ds2.Close()
			if ds2.Shards() != shards {
				t.Fatalf("reopened Shards() = %d want %d", ds2.Shards(), shards)
			}
			if got := ds2.Snapshot().Epoch(); got != last {
				t.Fatalf("recovered epoch %d want %d", got, last)
			}
			if got := fingerprintDyn(ds2.Snapshot().Graph()); got != want {
				t.Fatalf("replayed state diverges:\ngot:\n%s\nwant:\n%s", got, want)
			}
			// The epoch sequence resumes.
			ds2.Writer().AddNode()
			snap, err := ds2.Writer().Publish()
			if err != nil || snap.Epoch() != last+1 {
				t.Fatalf("post-recovery publish: %v epoch %d want %d", err, snap.Epoch(), last+1)
			}
		})
	}
}

// TestShardedOneShardByteIdentity pins the compatibility contract: a
// 1-shard store's image and log bytes are exactly the image Save writes
// plus the v1 log that Log.AppendBatch writes for the published deltas,
// with no writer in between, so pre-sharding stores and 1-shard stores
// are interchangeable on disk.
func TestShardedOneShardByteIdentity(t *testing.T) {
	dir := t.TempDir()
	shardedBase := filepath.Join(dir, "sharded.egoc")
	plainBase := filepath.Join(dir, "plain.egoc")

	ds, err := CreateDynamicSharded(shardedBase, seedShardGraph(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactAtBytes(0)
	var deltas []graph.Delta
	ds.Writer().Subscribe(func(_ *graph.Snapshot, d graph.Delta) { deltas = append(deltas, d) })
	publishShardBatches(t, ds, 7, 5)
	ds.Close()
	if len(deltas) != 5 {
		t.Fatalf("published %d deltas, want 5", len(deltas))
	}

	// The reference pipeline: an identical base image, and the published
	// deltas appended straight through the v1 log.
	if err := Save(plainBase, seedShardGraph()); err != nil {
		t.Fatal(err)
	}
	crc, err := baseImageCRC(fault.OS{}, plainBase)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CreateLogFS(fault.OS{}, plainBase+".log", crc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if err := l.AppendBatch(d.Ops); err != nil {
			t.Fatal(err)
		}
		if l.LastEpoch() != d.Epoch {
			t.Fatalf("reference log at epoch %d, delta epoch %d", l.LastEpoch(), d.Epoch)
		}
	}
	l.Close()

	for _, pair := range [][2]string{
		{shardedBase, plainBase},
		{shardedBase + ".log", plainBase + ".log"},
	} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ (%d vs %d bytes)", pair[0], pair[1], len(a), len(b))
		}
	}
	// No v2 segments appear for the 1-shard layout.
	if _, err := os.Stat(shardedBase + ".log.0"); !os.IsNotExist(err) {
		t.Fatalf("unexpected v2 segment for 1-shard store: %v", err)
	}
}

// TestShardedTornMultiSegmentAppend cuts the tail of one segment — the
// crash-between-segment-fsyncs case — and checks the whole last epoch is
// rolled back everywhere, not replayed partially.
func TestShardedTornMultiSegmentAppend(t *testing.T) {
	const shards = 4
	base := filepath.Join(t.TempDir(), "g.egoc")
	ds, err := CreateDynamicSharded(base, seedShardGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactAtBytes(0)
	last := publishShardBatches(t, ds, 99, 6)
	prevFP := ""
	{
		// Reference state at epoch last-1: replay everything but the
		// final batch on a scratch copy.
		refDir := t.TempDir()
		refBase := filepath.Join(refDir, "g.egoc")
		rds, err := CreateDynamicSharded(refBase, seedShardGraph(), shards)
		if err != nil {
			t.Fatal(err)
		}
		rds.SetCompactAtBytes(0)
		publishShardBatches(t, rds, 99, 5)
		prevFP = fingerprintDyn(rds.Snapshot().Graph())
		rds.Close()
	}
	ds.Close()

	// Find a segment whose final record belongs to the last epoch and
	// tear bytes off its tail.
	torn := false
	for s := 0; s < shards; s++ {
		path := segPath(base, s)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := scanSegmentRecords(path, data[segHeaderSize:], 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || recs[len(recs)-1].epoch != last {
			continue
		}
		if err := os.Truncate(path, int64(len(data))-3); err != nil {
			t.Fatal(err)
		}
		torn = true
		break
	}
	if !torn {
		t.Fatal("no segment carried the final epoch")
	}

	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.Snapshot().Epoch(); got != last-1 {
		t.Fatalf("recovered epoch %d after torn segment, want %d", got, last-1)
	}
	if got := fingerprintDyn(ds2.Snapshot().Graph()); got != prevFP {
		t.Fatalf("torn-append recovery state diverges:\ngot:\n%s\nwant:\n%s", got, prevFP)
	}
	// The rolled-back epoch number is reused by the next publish.
	ds2.Writer().AddNode()
	snap, err := ds2.Writer().Publish()
	if err != nil || snap.Epoch() != last {
		t.Fatalf("post-recovery publish: %v epoch %d want %d", err, snap.Epoch(), last)
	}
}

// TestShardedStaleSegmentRecovery restores one pre-compaction segment
// after a compaction — the crash-mid-segment-swap state — and checks the
// open discards it (its batches are folded into the image) without
// touching the other shards.
func TestShardedStaleSegmentRecovery(t *testing.T) {
	const shards = 4
	base := filepath.Join(t.TempDir(), "g.egoc")
	ds, err := CreateDynamicSharded(base, seedShardGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactAtBytes(0)
	last := publishShardBatches(t, ds, 5, 6)

	// Keep pre-compaction copies of every segment.
	stale := make([][]byte, shards)
	for s := range stale {
		if stale[s], err = os.ReadFile(segPath(base, s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	want := fingerprintDyn(ds.Snapshot().Graph())
	ds.Close()

	// "Un-swap" one segment: its header CRC binds the old image.
	if err := os.WriteFile(segPath(base, 2), stale[2], 0o644); err != nil {
		t.Fatal(err)
	}

	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.Snapshot().Epoch(); got != last {
		t.Fatalf("recovered epoch %d with stale segment, want %d", got, last)
	}
	if got := fingerprintDyn(ds2.Snapshot().Graph()); got != want {
		t.Fatalf("stale-segment recovery diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
	ds2.Writer().AddNode()
	if snap, err := ds2.Writer().Publish(); err != nil || snap.Epoch() != last+1 {
		t.Fatalf("post-recovery publish: %v", err)
	}
}

// TestShardedMidHoleIsCorrupt builds a segment set where a non-final
// epoch is incomplete; that is structural corruption, not a torn tail.
func TestShardedMidHoleIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "g.egoc")
	if err := SaveShardedFS(fault.OS{}, base, seedShardGraph(), 3); err != nil {
		t.Fatal(err)
	}
	crc, err := baseImageCRC(fault.OS{}, base)
	if err != nil {
		t.Fatal(err)
	}
	l, err := CreateShardedLog(base, crc, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	one := []graph.Op{{Kind: graph.OpSetLabel, A: 0, Val: "x"}}
	// Epoch 1 on shard 0, epoch 2 on shard 1, epoch 3 on shard 0.
	for _, shard := range []int{0, 1, 0} {
		if err := l.AppendShardBatch([]graph.ShardBatch{{Shard: shard, Index: []uint32{0}, Ops: one}}, 1); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Cut shard 1's only record: epoch 2 vanishes mid-sequence.
	data, err := os.ReadFile(segPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath(base, 1), int64(len(data)-4)); err != nil {
		t.Fatal(err)
	}
	_, err = OpenDynamic(base)
	var cf *CorruptFileError
	if !errors.As(err, &cf) {
		t.Fatalf("mid-sequence hole opened with err=%v, want *CorruptFileError", err)
	}
}

// TestShardedAppendFaultIsolatesShard drives an ENOSPC fault into one
// segment's fsync: the append must fail with that shard identified and
// transient classification, every segment must rewind to a clean
// boundary, and the writer must degrade only the failing lane.
func TestShardedAppendFaultIsolatesShard(t *testing.T) {
	const shards = 4
	inj := fault.NewInjector(fault.OS{}, 1)
	base := filepath.Join(t.TempDir(), "g.egoc")
	ds, err := CreateDynamicShardedFS(inj, base, seedShardGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ds.SetCompactAtBytes(0)
	w := ds.Writer()
	w.WALRetry = graph.RetryPolicy{MaxAttempts: 2}
	last := publishShardBatches(t, ds, 3, 3)

	// Fail every fsync of one shard's segment file.
	const victim = 2
	inj.SetRules(fault.Rule{Op: fault.OpSync, Path: fmt.Sprintf(".log.%d", victim), Err: syscall.ENOSPC})

	// Stage nodes until one lands on the victim shard and one elsewhere.
	part := w.Partitioner()
	victimHit, otherHit := false, false
	for i := 0; !victimHit || !otherHit; i++ {
		n := w.AddNode()
		if part.Shard(n) == victim {
			victimHit = true
		} else {
			otherHit = true
		}
		if i > 1000 {
			t.Fatal("partitioner never hit both lanes")
		}
	}
	if _, err := w.Publish(); err == nil {
		t.Fatal("publish succeeded with a failing segment")
	} else if !graph.IsTransient(err) {
		t.Fatalf("segment ENOSPC not classified transient: %v", err)
	}
	degraded := w.DegradedShards()
	if len(degraded) != 1 || degraded[0] != victim {
		t.Fatalf("degraded shards = %v, want [%d]", degraded, victim)
	}

	// The routed retry publishes the healthy lanes' creations that the
	// watermark admits; the victim lane's ops stay pending.
	if w.PendingShard(victim) == 0 {
		t.Fatal("victim lane lost its pending ops")
	}

	// Clearing the fault and the degraded mark drains everything.
	inj.ClearRules()
	w.ClearDegraded()
	snap, err := w.Publish()
	if err != nil {
		t.Fatalf("publish after recovery: %v", err)
	}
	if w.Pending() != 0 {
		t.Fatalf("pending ops after recovery: %d", w.Pending())
	}
	if snap.Epoch() <= last {
		t.Fatalf("epoch did not advance: %d", snap.Epoch())
	}

	// Reopen parity: everything acknowledged replays.
	want := fingerprintDyn(snap.Graph())
	wantEpoch := snap.Epoch()
	ds.Close()
	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.Snapshot().Epoch(); got != wantEpoch {
		t.Fatalf("recovered epoch %d want %d", got, wantEpoch)
	}
	if got := fingerprintDyn(ds2.Snapshot().Graph()); got != want {
		t.Fatalf("recovery after shard fault diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardedCompactCycle compacts a sharded store and keeps writing:
// segments restart empty and bound to the new image, and reopening
// replays only the post-compaction tail.
func TestShardedCompactCycle(t *testing.T) {
	const shards = 2
	base := filepath.Join(t.TempDir(), "g.egoc")
	ds, err := CreateDynamicSharded(base, seedShardGraph(), shards)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactAtBytes(0)
	publishShardBatches(t, ds, 11, 5)
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if records, _, baseEpoch := ds.LogStats(); records != 0 || baseEpoch != ds.Snapshot().Epoch() {
		t.Fatalf("post-compaction log shape: %d records, base epoch %d (snapshot epoch %d)", records, baseEpoch, ds.Snapshot().Epoch())
	}
	last := publishShardBatches(t, ds, 13, 4)
	want := fingerprintDyn(ds.Snapshot().Graph())
	ds.Close()

	ds2, err := OpenDynamic(base)
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := ds2.Snapshot().Epoch(); got != last {
		t.Fatalf("recovered epoch %d want %d", got, last)
	}
	if got := fingerprintDyn(ds2.Snapshot().Graph()); got != want {
		t.Fatalf("post-compaction replay diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardCountRoundTrip checks the header carries the shard count and
// unsharded images keep reading as one shard.
func TestShardCountRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, shards := range []int{1, 2, 16, 255} {
		path := filepath.Join(dir, fmt.Sprintf("g%d.egoc", shards))
		if err := SaveShardedFS(fault.OS{}, path, seedShardGraph(), shards); err != nil {
			t.Fatal(err)
		}
		got, err := imageShardCountFS(fault.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		if got != shards {
			t.Fatalf("shard count round trip: got %d want %d", got, shards)
		}
		// The store reader agrees.
		st, err := Open(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if st.ShardCount() != shards {
			t.Fatalf("Store.ShardCount() = %d want %d", st.ShardCount(), shards)
		}
		st.Close()
	}
	if _, err := CreateDynamicSharded(filepath.Join(dir, "over.egoc"), seedShardGraph(), MaxShards+1); err == nil {
		t.Fatal("shard count beyond the header field was accepted")
	}
}
