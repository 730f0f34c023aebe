package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"egocensus/internal/graph"
	"egocensus/internal/pattern"
	"egocensus/internal/plan"
)

// TestScheduleAffShardBoundaries pins the shard-affine schedule's shape:
// focal order groups shards ascending with cost-descending items inside
// each, chunks never straddle a shard boundary, and every chunk's home
// worker is its shard modulo the worker count.
func TestScheduleAffShardBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ n, workers, shards int }{
		{1, 1, 1}, {7, 2, 2}, {64, 4, 4}, {200, 3, 8}, {50, 8, 2}, {33, 5, 33},
	} {
		p := graph.NewPartitioner(tc.shards)
		cost := make([]int64, tc.n)
		for i := range cost {
			cost[i] = int64(1 + rng.Intn(100))
		}
		aff := &affinity{shards: tc.shards, shard: func(i int) int { return p.Shard(graph.NodeID(i)) }}
		ord, chunks, home := buildScheduleAff(tc.n, tc.workers, func(i int) int64 { return cost[i] }, aff)

		if len(ord) != tc.n {
			t.Fatalf("%+v: ord len %d", tc, len(ord))
		}
		seen := make([]bool, tc.n)
		for _, i := range ord {
			if seen[i] {
				t.Fatalf("%+v: ord repeats %d", tc, i)
			}
			seen[i] = true
		}
		prevShard := -1
		for k := 1; k < len(ord); k++ {
			a, b := int(ord[k-1]), int(ord[k])
			sa, sb := aff.shard(a), aff.shard(b)
			if sb < sa {
				t.Fatalf("%+v: shard order regresses at %d (%d after %d)", tc, k, sb, sa)
			}
			if sa == sb && cost[a] < cost[b] {
				t.Fatalf("%+v: cost order regresses inside shard %d", tc, sa)
			}
		}
		if len(home) != len(chunks) {
			t.Fatalf("%+v: %d homes for %d chunks", tc, len(home), len(chunks))
		}
		covered := 0
		for k, c := range chunks {
			if c.start >= c.end {
				t.Fatalf("%+v: empty chunk %d", tc, k)
			}
			s := aff.shard(int(ord[c.start]))
			for i := c.start; i < c.end; i++ {
				if got := aff.shard(int(ord[i])); got != s {
					t.Fatalf("%+v: chunk %d mixes shards %d and %d", tc, k, s, got)
				}
			}
			if home[k] != s%tc.workers {
				t.Fatalf("%+v: chunk %d home %d, want %d", tc, k, home[k], s%tc.workers)
			}
			covered += int(c.end - c.start)
			if s < prevShard {
				t.Fatalf("%+v: chunk shards out of order", tc)
			}
			prevShard = s
		}
		if covered != tc.n {
			t.Fatalf("%+v: chunks cover %d of %d items", tc, covered, tc.n)
		}
	}
}

// TestShardAffinityCensusParity runs every algorithm with and without a
// partitioner: affinity reroutes scheduling only, so counts are equal.
func TestShardAffinityCensusParity(t *testing.T) {
	g := stressSeedGraph(t, false, 60, 180, 17)
	specs := []Spec{
		{Pattern: pattern.Clique("clq3", 3, nil), K: 1},
		{Pattern: pattern.Clique("lclq", 3, []string{"l0", "l0", "l1"}), K: 1},
	}
	for _, alg := range Algorithms {
		for si, spec := range specs {
			want, err := Count(g, spec, alg, Options{Seed: 7, Workers: 4})
			if err != nil {
				t.Fatalf("%s spec %d: %v", alg, si, err)
			}
			for _, shards := range []int{1, 3, 4} {
				got, err := Count(g, spec, alg, Options{Seed: 7, Workers: 4, Partitioner: graph.NewPartitioner(shards)})
				if err != nil {
					t.Fatalf("%s spec %d P=%d: %v", alg, si, shards, err)
				}
				if got.NumMatches != want.NumMatches || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Fatalf("%s spec %d P=%d: affine census diverges (matches %d vs %d)",
						alg, si, shards, got.NumMatches, want.NumMatches)
				}
			}
		}
	}
}

// TestStressShardedCensusDuringIngest is the sharded twin of
// TestStressConcurrentCensusWithWriter: census queries (scheduled
// shard-affinely through the writer's partitioner) run against pinned
// snapshots while four shard lanes ingest concurrently, and every result
// must match a from-scratch census on an independent copy.
func TestStressShardedCensusDuringIngest(t *testing.T) {
	const (
		shards     = 4
		nodes      = 30
		queries    = 4
		rounds     = 8
		maxBatches = 120
	)
	spec := Spec{Pattern: pattern.Clique("clq3", 3, nil), K: 1}
	labeled := Spec{Pattern: pattern.Clique("lclq", 3, []string{"l0", "l0", "l1"}), K: 1}

	w := graph.NewShardedWriter(stressSeedGraph(t, false, nodes, 60, 8), shards)
	var stop atomic.Bool
	var readers, mutator sync.WaitGroup

	mutator.Add(1)
	go func() {
		defer mutator.Done()
		rng := rand.New(rand.NewSource(9))
		for i := 0; !stop.Load() && i < maxBatches; i++ {
			for j := 0; j < 3; j++ {
				switch rng.Intn(4) {
				case 0:
					n := w.AddNode()
					w.SetLabel(n, fmt.Sprintf("l%d", rng.Intn(2)))
				case 1:
					w.SetLabel(graph.NodeID(rng.Intn(w.Stats().Nodes)), fmt.Sprintf("l%d", rng.Intn(2)))
				case 2:
					w.SetNodeAttr(graph.NodeID(rng.Intn(w.Stats().Nodes)), "touch", fmt.Sprint(i))
				default:
					a := graph.NodeID(rng.Intn(w.Stats().Nodes))
					b := graph.NodeID(rng.Intn(w.Stats().Nodes))
					if a != b {
						w.AddEdge(a, b)
					}
				}
			}
			if _, err := w.Publish(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for q := 0; q < queries; q++ {
		readers.Add(1)
		go func(q int) {
			defer readers.Done()
			alg := NDBas
			sp := spec
			if q%2 == 1 {
				alg = PTOpt
				sp = labeled
			}
			for r := 0; r < rounds; r++ {
				snap := w.Snapshot()
				got, err := CountSnapshot(snap, sp, alg, Options{Seed: 7, Partitioner: w.Partitioner()})
				if err != nil {
					t.Errorf("query %d round %d: %v", q, r, err)
					return
				}
				want, err := Count(snap.Graph().Clone(), sp, alg, Options{Seed: 7})
				if err != nil {
					t.Errorf("query %d round %d (reference): %v", q, r, err)
					return
				}
				if got.NumMatches != want.NumMatches || !reflect.DeepEqual(got.Counts, want.Counts) {
					t.Errorf("query %d round %d epoch %d: sharded census diverges (matches %d vs %d)",
						q, r, snap.Epoch(), got.NumMatches, want.NumMatches)
					return
				}
			}
		}(q)
	}

	readers.Wait()
	stop.Store(true)
	mutator.Wait()
}

// TestEngineInjectsSourcePartitioner checks the engine picks up the
// partitioner from a sharded source — and leaves an explicit option
// alone.
func TestEngineInjectsSourcePartitioner(t *testing.T) {
	g := stressSeedGraph(t, false, 30, 60, 12)
	w := graph.NewShardedWriter(g.Clone(), 4)
	e := NewEngineLive(w)
	if got := e.optionsFor().Partitioner; !got.Enabled() || got.Shards() != 4 {
		t.Fatalf("injected partitioner: enabled=%v shards=%d", got.Enabled(), got.Shards())
	}
	// An explicit option wins over the source's.
	e.Opt.Partitioner = graph.NewPartitioner(2)
	if got := e.optionsFor().Partitioner; got.Shards() != 2 {
		t.Fatalf("explicit partitioner overridden: shards=%d", got.Shards())
	}
	e.Opt.Partitioner = graph.Partitioner{}

	// One-shard live engines stay unaffine.
	oneShard := graph.NewWriter(g.Clone())
	if got := NewEngineLive(oneShard).optionsFor().Partitioner; got.Enabled() {
		t.Fatal("one-shard writer source injected an enabled partitioner")
	}

	// End to end: the sharded engine's results match an unsharded engine
	// over the same graph.
	const script = `PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes`
	want, err := NewEngine(g).Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(script)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0].Rows, want[0].Rows) {
		t.Fatal("sharded engine rows differ from unsharded engine")
	}
}

// TestWriterSourceShardedStats checks the shard-parallel statistics
// aggregation matches the sequential computation, memoized per epoch.
func TestWriterSourceShardedStats(t *testing.T) {
	w := graph.NewShardedWriter(stressSeedGraph(t, false, 50, 150, 14), 4)
	src := plan.FromWriter(w)
	snap := src.Snapshot()
	got, err := src.StatsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := graph.ComputeStats(snap.Graph())
	want.Epoch = snap.Epoch()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded stats diverge:\ngot  %+v\nwant %+v", got, want)
	}
	again, err := src.StatsAt(snap)
	if err != nil {
		t.Fatal(err)
	}
	if again != got {
		t.Fatal("same-epoch stats were recomputed, not memoized")
	}

	// A publish advances the epoch and refreshes the memo.
	w.AddNodes(3)
	if _, err := w.Publish(); err != nil {
		t.Fatal(err)
	}
	snap2 := src.Snapshot()
	got2, err := src.StatsAt(snap2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.Epoch != snap2.Epoch() || got2.Nodes != want.Nodes+3 {
		t.Fatalf("post-publish stats: %+v", got2)
	}
}

// TestPreparedConcurrentPrepareStampede prepares the same statement from
// many goroutines at once: every caller must get a working Prepared, and
// the plan cache must converge on exactly one entry for the fingerprint.
func TestPreparedConcurrentPrepareStampede(t *testing.T) {
	e := NewEngine(preparedTestGraph(t))
	if err := e.DefinePattern(pattern.Clique("tri", 3, nil)); err != nil {
		t.Fatal(err)
	}
	const src = `SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE kind = $k`

	const callers = 8
	var wg sync.WaitGroup
	rows := make([][][]string, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p, err := e.Prepare(src)
			if err != nil {
				errs[c] = err
				return
			}
			tb, err := p.Execute(map[string]string{"k": "odd"})
			if err != nil {
				errs[c] = err
				return
			}
			rows[c] = tb.Rows
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", c, err)
		}
	}
	for c := 1; c < callers; c++ {
		if !reflect.DeepEqual(rows[c], rows[0]) {
			t.Fatalf("caller %d rows diverge from caller 0", c)
		}
	}
	if n := e.plans().Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after stampede, want 1", n)
	}
}
