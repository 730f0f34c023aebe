package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
	"egocensus/internal/storage"
)

// TestMaintainerFollowsDynamicStore attaches a Maintainer to a durable
// store's writer at one and four shards and publishes random node/edge
// batches (with a small compaction threshold, so log swaps interleave):
// at every published epoch the maintained counts must equal a
// from-scratch CountSnapshot of that epoch's snapshot. CI runs it under
// -race with the other Maintainer tests.
func TestMaintainerFollowsDynamicStore(t *testing.T) {
	specs := map[string]Spec{
		"clq3":  {Pattern: pattern.Clique("clq3", 3, nil), K: 1},
		"lpath": {Pattern: pattern.Clique("lpath", 2, []string{"l0", "l1"}), K: 2},
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const nodes = 24
			base := filepath.Join(t.TempDir(), "g.egoc")
			ds, err := storage.CreateDynamicSharded(base, stressSeedGraph(t, false, nodes, 30, 9), shards)
			if err != nil {
				t.Fatal(err)
			}
			defer ds.Close()
			ds.SetCompactAtBytes(1 << 10)

			mt := NewMaintainer(ds.Snapshot())
			for name, spec := range specs {
				if err := mt.Register(name, spec, Options{Seed: 7}); err != nil {
					t.Fatal(err)
				}
			}
			stop := mt.Attach(ds.Writer())
			defer stop()

			w := ds.Writer()
			rng := rand.New(rand.NewSource(int64(10 + shards)))
			for b := 0; b < 40; b++ {
				for j := 0; j < 1+rng.Intn(6); j++ {
					n := w.Stats().Nodes
					if rng.Intn(4) == 0 {
						w.AddNode()
						continue
					}
					a, c := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
					if a != c {
						w.AddEdge(a, c)
					}
				}
				snap, err := w.Publish()
				if err != nil {
					t.Fatalf("batch %d: %v", b, err)
				}
				if ep, err := mt.CatchUp(snap.Epoch()); err != nil || ep != snap.Epoch() {
					t.Fatalf("batch %d: caught up to %d (err %v), want %d", b, ep, err, snap.Epoch())
				}
				for name, spec := range specs {
					got, epoch, err := mt.Counts(name)
					if err != nil || epoch != snap.Epoch() {
						t.Fatalf("%s: counts at epoch %d (err %v), want %d", name, epoch, err, snap.Epoch())
					}
					want, err := CountSnapshot(snap, spec, PTBas, Options{Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want.Counts) {
						t.Fatalf("%s epoch %d: maintained %d nodes, census %d", name, epoch, len(got), len(want.Counts))
					}
					for v := range got {
						if got[v] != want.Counts[v] {
							t.Fatalf("%s epoch %d node %d: maintained %d, from-scratch %d", name, epoch, v, got[v], want.Counts[v])
						}
					}
				}
			}
		})
	}
}
