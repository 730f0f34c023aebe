// Command chaos is the crash-recovery soak harness: it loops
// write → inject-fault → kill → reopen over the dynamic store, cutting
// the write path at randomized points with the fault-injection
// filesystem, and asserts the recovery invariants after every crash:
//
//   - The recovered epoch is lastAcked or lastAcked+1 — a batch whose log
//     record reached disk before the crash may be replayed even though
//     the writer never acknowledged it; anything else is a bug.
//   - The recovered graph is structurally identical to a reference graph
//     maintained outside the store (the acknowledged batches, plus the
//     in-flight one in the +1 case).
//   - A triangle census over the recovered store equals the census over
//     the reference graph — recovery is checked at the query level, not
//     just byte level.
//   - The reopened store accepts and persists new batches.
//
// Interleaved scenarios crash mid-compaction (stale-log recovery) and
// exhaust WAL retries to drive the writer into read-only degraded mode
// while the HTTP layer keeps serving queries and reports "degraded" on
// /healthz.
//
// Usage:
//
//	chaos [-iters 25] [-seed 0]
//
// Seed 0 derives one from the clock. The seed is printed at startup and
// again on failure; rerunning with -seed reproduces the run exactly.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/fault"
	"egocensus/internal/graph"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

const censusQuery = `
PATTERN tri { ?A-?B; ?B-?C; ?C-?A; }
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes
`

func main() {
	iters := flag.Int("iters", 25, "soak iterations")
	seed := flag.Int64("seed", 0, "master seed (0: derive from the clock)")
	shards := flag.Int("shards", 1, "shard count for the stores under test (1 = the historical single-log layout)")
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	fmt.Printf("chaos: %d iterations, seed %d, %d shards (rerun with -seed %d to reproduce)\n", *iters, *seed, *shards, *seed)

	for i := 0; i < *iters; i++ {
		rng := rand.New(rand.NewSource(*seed + int64(i)*7919))
		var err error
		var kind string
		switch {
		case i%5 == 3:
			kind = "compaction-crash"
			err = iterCompactionCrash(rng, *shards)
		case i%5 == 4 && *shards > 1 && i%2 == 0:
			kind = "shard-compaction-kill"
			err = iterShardCompactionKill(rng, *shards)
		case i%5 == 4:
			kind = "degraded-serving"
			err = iterDegradedServing(rng, *shards)
		default:
			kind = "append-crash"
			err = iterAppendCrash(rng, *shards)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: FAIL iteration %d (%s, seed %d): %v\n", i, kind, *seed, err)
			os.Exit(1)
		}
		fmt.Printf("chaos: iteration %d (%s) ok\n", i, kind)
	}
	fmt.Printf("chaos: PASS (%d iterations, seed %d)\n", *iters, *seed)
}

// seedOps builds the deterministic initial graph. Called twice per
// iteration (store + reference), so it must be a pure function of rng
// state — hence a fresh rand seeded identically.
func seedGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(false)
	n := 6 + rng.Intn(6)
	g.AddNodes(n)
	for i := 0; i < 2*n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(a, b)
		}
	}
	for i := 0; i < n; i += 2 {
		g.SetLabel(graph.NodeID(i), "even")
	}
	return g
}

// randBatch generates one mutation batch against a graph currently
// holding nodes node IDs. It returns the ops and the new node count.
func randBatch(rng *rand.Rand, nodes int) ([]graph.Op, int) {
	count := 1 + rng.Intn(5)
	ops := make([]graph.Op, 0, count)
	for i := 0; i < count; i++ {
		switch rng.Intn(4) {
		case 0:
			ops = append(ops, graph.Op{Kind: graph.OpAddNode})
			nodes++
		case 1:
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			if a == b {
				b = (b + 1) % nodes
			}
			ops = append(ops, graph.Op{Kind: graph.OpAddEdge, A: int32(a), B: int32(b)})
		case 2:
			ops = append(ops, graph.Op{Kind: graph.OpSetLabel, A: int32(rng.Intn(nodes)), Val: fmt.Sprintf("l%d", rng.Intn(4))})
		default:
			ops = append(ops, graph.Op{Kind: graph.OpSetNodeAttr, A: int32(rng.Intn(nodes)), Key: "w", Val: fmt.Sprintf("%d", rng.Intn(100))})
		}
	}
	return ops, nodes
}

// stage mirrors a generated batch into the writer's staging API.
func stage(w *graph.Writer, ops []graph.Op) {
	for _, op := range ops {
		switch op.Kind {
		case graph.OpAddNode:
			w.AddNode()
		case graph.OpAddEdge:
			w.AddEdge(graph.NodeID(op.A), graph.NodeID(op.B))
		case graph.OpSetLabel:
			w.SetLabel(graph.NodeID(op.A), op.Val)
		case graph.OpSetNodeAttr:
			w.SetNodeAttr(graph.NodeID(op.A), op.Key, op.Val)
		}
	}
}

// applyRef applies a batch to the out-of-store reference graph.
func applyRef(g *graph.Graph, ops []graph.Op) error {
	for _, op := range ops {
		if err := graph.ApplyOp(g, op); err != nil {
			return fmt.Errorf("reference apply: %w", err)
		}
	}
	return nil
}

// fingerprint canonicalizes a graph's observable state.
func fingerprint(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d m=%d\n", g.NumNodes(), g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		fmt.Fprintf(&b, "e%d:%d-%d\n", e, ed.From, ed.To)
	}
	for n := 0; n < g.NumNodes(); n++ {
		id := graph.NodeID(n)
		fmt.Fprintf(&b, "v%d:%s:%v\n", n, g.LabelString(id), g.NodeAttrs(id))
	}
	return b.String()
}

// census runs the triangle census and canonicalizes the result table.
func census(g *graph.Graph) (string, error) {
	e := core.NewEngine(g)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	tables, err := e.ExecuteContext(ctx, censusQuery)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, t := range tables {
		j := core.NewTableJSON(t)
		for _, row := range j.Rows {
			fmt.Fprintf(&b, "%v\n", row)
		}
	}
	return b.String(), nil
}

// randomCrashRule scripts one fault on the mutation log's append path.
// All variants end with the filesystem halted — the simulated kill.
func randomCrashRule(rng *rand.Rand) fault.Rule {
	// Syncs/writes on the log: #1 is the header; appends start at #2.
	occ := 2 + rng.Intn(6)
	switch rng.Intn(3) {
	case 0:
		// fsync fails and the process dies: the record's bytes may be
		// durable anyway (the epoch+1 recovery case).
		return fault.Rule{Op: fault.OpSync, Path: ".log", From: occ, Count: 1, Err: syscall.EIO, Halt: true}
	case 1:
		// Torn write then death: a genuinely partial frame on disk.
		return fault.Rule{Op: fault.OpWrite, Path: ".log", From: occ, Count: 1, Err: syscall.EIO, KeepBytes: rng.Intn(40), Halt: true}
	default:
		// Write completes, process dies before the fsync call returns.
		return fault.Rule{Op: fault.OpWrite, Path: ".log", From: occ, Count: 1, Halt: true}
	}
}

// iterAppendCrash is the core soak loop body: publish batches through an
// injected filesystem until a scripted fault kills the "process", then
// reopen and check every recovery invariant.
func iterAppendCrash(rng *rand.Rand, shards int) error {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g.egoc")

	gseed := rng.Int63()
	inj := fault.NewInjector(fault.OS{}, rng.Int63())
	ds, err := storage.CreateDynamicShardedFS(inj, base, seedGraph(gseed), shards)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	ds.SetCompactAtBytes(0) // compaction has its own scenario
	ref := seedGraph(gseed)
	nodes := ref.NumNodes()

	// A few clean batches first, then arm the fault and keep writing
	// until it kills us (or we run out of batches — a harmless no-fault
	// iteration when the rule's occurrence is never reached).
	w := ds.Writer()
	w.WALRetry = graph.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	lastAcked := uint64(0)
	var pending []graph.Op
	clean := rng.Intn(3)
	for b := 0; b < 10; b++ {
		if b == clean {
			inj.SetRules(randomCrashRule(rng))
		}
		var ops []graph.Op
		ops, nodes = randBatch(rng, nodes)
		stage(w, ops)
		snap, err := w.Publish()
		if err != nil {
			pending = ops
			break
		}
		lastAcked = snap.Epoch()
		if err := applyRef(ref, ops); err != nil {
			return err
		}
	}
	inj.Halt() // the kill: every descriptor of the dead process goes dark
	ds.Close()

	// Reopen through a healthy filesystem, as the next process would.
	ds2, err := storage.OpenDynamic(base)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer ds2.Close()
	ds2.SetCompactAtBytes(0)
	got := ds2.Snapshot().Epoch()
	var want *graph.Graph
	switch got {
	case lastAcked:
		want = ref
	case lastAcked + 1:
		// The in-flight record was durable despite the failed ack.
		if pending == nil {
			return fmt.Errorf("recovered epoch %d is lastAcked+1 but no batch was in flight", got)
		}
		if err := applyRef(ref, pending); err != nil {
			return err
		}
		want = ref
	default:
		return fmt.Errorf("recovered epoch %d, want %d or %d", got, lastAcked, lastAcked+1)
	}
	if fp, wfp := fingerprint(ds2.Snapshot().Graph()), fingerprint(want); fp != wfp {
		return fmt.Errorf("recovered graph diverges from reference:\n--- recovered\n%s--- reference\n%s", fp, wfp)
	}
	gotCensus, err := census(ds2.Snapshot().Graph())
	if err != nil {
		return fmt.Errorf("census over recovered graph: %w", err)
	}
	wantCensus, err := census(want)
	if err != nil {
		return fmt.Errorf("census over reference graph: %w", err)
	}
	if gotCensus != wantCensus {
		return fmt.Errorf("census diverges after recovery:\n--- recovered\n%s--- reference\n%s", gotCensus, wantCensus)
	}

	// The recovered log must accept appends at the resumed epoch.
	w2 := ds2.Writer()
	ops, _ := randBatch(rng, want.NumNodes())
	stage(w2, ops)
	snap, err := w2.Publish()
	if err != nil {
		return fmt.Errorf("publish after recovery: %w", err)
	}
	if snap.Epoch() != got+1 {
		return fmt.Errorf("post-recovery epoch %d, want %d", snap.Epoch(), got+1)
	}
	return nil
}

// iterCompactionCrash kills the process mid-compaction — before the base
// rename, between rename and log swap (the stale-log window), or at the
// log swap — and checks the store recovers the published state.
func iterCompactionCrash(rng *rand.Rand, shards int) error {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g.egoc")

	gseed := rng.Int63()
	inj := fault.NewInjector(fault.OS{}, rng.Int63())
	ds, err := storage.CreateDynamicShardedFS(inj, base, seedGraph(gseed), shards)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	ds.SetCompactAtBytes(0)
	ref := seedGraph(gseed)
	nodes := ref.NumNodes()

	w := ds.Writer()
	lastAcked := uint64(0)
	for b := 0; b < 3+rng.Intn(4); b++ {
		var ops []graph.Op
		ops, nodes = randBatch(rng, nodes)
		stage(w, ops)
		snap, err := w.Publish()
		if err != nil {
			return fmt.Errorf("clean publish: %w", err)
		}
		lastAcked = snap.Epoch()
		if err := applyRef(ref, ops); err != nil {
			return err
		}
	}

	// Compact's filesystem schedule: temp-image writes/syncs, base
	// rename (#1), new-log create, log rename (#2). Crashing around
	// either rename exercises stale-log detection.
	switch rng.Intn(3) {
	case 0:
		inj.SetRules(fault.Rule{Op: fault.OpRename, From: 1, Count: 1, Halt: true})
	case 1:
		inj.SetRules(fault.Rule{Op: fault.OpRename, From: 2, Count: 1, Err: syscall.EIO, Halt: true})
	default:
		inj.SetRules(fault.Rule{Op: fault.OpSync, Path: ".egoc-save-", From: 1, Count: 1, Err: syscall.EIO, Halt: true})
	}
	_ = ds.Compact() // expected to fail — the "process" dies somewhere inside
	inj.Halt()
	ds.Close()

	ds2, err := storage.OpenDynamic(base)
	if err != nil {
		return fmt.Errorf("reopen after compaction crash: %w", err)
	}
	defer ds2.Close()
	ds2.SetCompactAtBytes(0)
	if got := ds2.Snapshot().Epoch(); got != lastAcked {
		return fmt.Errorf("recovered epoch %d after compaction crash, want %d (no batch was in flight)", got, lastAcked)
	}
	if fp, wfp := fingerprint(ds2.Snapshot().Graph()), fingerprint(ref); fp != wfp {
		return fmt.Errorf("compaction crash lost state:\n--- recovered\n%s--- reference\n%s", fp, wfp)
	}
	// The store must remain fully writable, including a clean compaction.
	w2 := ds2.Writer()
	ops, _ := randBatch(rng, ref.NumNodes())
	stage(w2, ops)
	if _, err := w2.Publish(); err != nil {
		return fmt.Errorf("publish after compaction crash: %w", err)
	}
	if err := ds2.Compact(); err != nil {
		return fmt.Errorf("compaction after recovery: %w", err)
	}
	return nil
}

// iterDegradedServing fails every WAL fsync so the writer exhausts its
// retries and degrades, then checks the serving contract: queries keep
// answering from the pinned snapshot (reference-equal), /healthz reports
// degraded without failing the probe, and clearing the fault plus
// ClearDegraded resumes publishing.
func iterDegradedServing(rng *rand.Rand, shards int) error {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g.egoc")

	gseed := rng.Int63()
	inj := fault.NewInjector(fault.OS{}, rng.Int63())
	ds, err := storage.CreateDynamicShardedFS(inj, base, seedGraph(gseed), shards)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	defer ds.Close()
	ds.SetCompactAtBytes(0)
	ref := seedGraph(gseed)
	nodes := ref.NumNodes()

	w := ds.Writer()
	w.WALRetry = graph.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	var ops []graph.Op
	ops, nodes = randBatch(rng, nodes)
	stage(w, ops)
	if _, err := w.Publish(); err != nil {
		return fmt.Errorf("clean publish: %w", err)
	}
	if err := applyRef(ref, ops); err != nil {
		return err
	}

	srv := serve.New(core.NewEngineLive(w), serve.Config{WriteHealth: w.Degraded})

	// Every further fsync on the log hits ENOSPC: retries exhaust and the
	// writer degrades.
	inj.SetRules(fault.Rule{Op: fault.OpSync, Path: ".log", Err: syscall.ENOSPC})
	ops, nodes = randBatch(rng, nodes)
	stage(w, ops)
	if _, err := w.Publish(); err == nil {
		return fmt.Errorf("publish succeeded with every fsync failing")
	}
	if w.Degraded() == nil {
		return fmt.Errorf("writer not degraded after exhausted retries")
	}

	// Probe: 200 + "degraded", never 503 — reads still serve.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), "degraded") {
		return fmt.Errorf("healthz while degraded: %d %q", rec.Code, rec.Body.String())
	}

	// Queries against the degraded server equal the reference census.
	body := fmt.Sprintf(`{"query": %q}`, censusQuery)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("query while degraded: %d %s", rec.Code, rec.Body.String())
	}
	wantCensus, err := census(ref)
	if err != nil {
		return err
	}
	gotCensus, err := census(ds.Snapshot().Graph())
	if err != nil {
		return fmt.Errorf("census while degraded: %w", err)
	}
	if gotCensus != wantCensus {
		return fmt.Errorf("degraded-mode census diverges:\n--- served\n%s--- reference\n%s", gotCensus, wantCensus)
	}

	// Operator clears the fault: the retained batch publishes and the
	// probe flips back to ok.
	inj.ClearRules()
	if !w.ClearDegraded() {
		return fmt.Errorf("ClearDegraded found a healthy writer")
	}
	snap, err := w.Publish()
	if err != nil {
		return fmt.Errorf("publish after recovery: %w", err)
	}
	if err := applyRef(ref, ops); err != nil {
		return err
	}
	if snap.Epoch() != 2 {
		return fmt.Errorf("post-recovery epoch %d, want 2", snap.Epoch())
	}
	if fp, wfp := fingerprint(snap.Graph()), fingerprint(ref); fp != wfp {
		return fmt.Errorf("post-recovery graph diverges:\n--- store\n%s--- reference\n%s", fp, wfp)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		return fmt.Errorf("healthz after recovery: %d %q", rec.Code, rec.Body.String())
	}
	return nil
}

// iterShardCompactionKill targets the sharded compaction swap: a P-shard
// compaction renames the base image and then each of the P log segments
// in turn, and those P+1 renames cannot be atomic together. The process
// is killed at a random segment rename, leaving a mix of swapped (new,
// empty) and stale (bound to the previous image) segments. Reopening
// must resolve the mix per segment: the shards whose swap never happened
// lose nothing — their batches are already folded into the renamed image
// — and the recovered epoch and graph equal the last acknowledged state.
func iterShardCompactionKill(rng *rand.Rand, shards int) error {
	dir, err := os.MkdirTemp("", "chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	base := filepath.Join(dir, "g.egoc")

	gseed := rng.Int63()
	inj := fault.NewInjector(fault.OS{}, rng.Int63())
	ds, err := storage.CreateDynamicShardedFS(inj, base, seedGraph(gseed), shards)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	ds.SetCompactAtBytes(0)
	ref := seedGraph(gseed)
	nodes := ref.NumNodes()

	w := ds.Writer()
	lastAcked := uint64(0)
	for b := 0; b < 3+rng.Intn(4); b++ {
		var ops []graph.Op
		ops, nodes = randBatch(rng, nodes)
		stage(w, ops)
		snap, err := w.Publish()
		if err != nil {
			return fmt.Errorf("clean publish: %w", err)
		}
		lastAcked = snap.Epoch()
		if err := applyRef(ref, ops); err != nil {
			return err
		}
	}

	// Rename #1 is the base image; #2 … #shards+1 swap the segments.
	// Killing at a random segment swap leaves segments 0..k-2 new and
	// k-1..P-1 stale.
	k := 2 + rng.Intn(shards)
	inj.SetRules(fault.Rule{Op: fault.OpRename, From: k, Count: 1, Err: syscall.EIO, Halt: true})
	_ = ds.Compact() // the "process" dies mid-swap
	inj.Halt()
	ds.Close()

	ds2, err := storage.OpenDynamic(base)
	if err != nil {
		return fmt.Errorf("reopen after shard-compaction kill: %w", err)
	}
	defer ds2.Close()
	ds2.SetCompactAtBytes(0)
	if got := ds2.Snapshot().Epoch(); got != lastAcked {
		return fmt.Errorf("recovered epoch %d after shard-compaction kill at rename %d, want %d", got, k, lastAcked)
	}
	if ds2.Shards() != shards {
		return fmt.Errorf("recovered store has %d shards, want %d", ds2.Shards(), shards)
	}
	if fp, wfp := fingerprint(ds2.Snapshot().Graph()), fingerprint(ref); fp != wfp {
		return fmt.Errorf("shard-compaction kill lost state:\n--- recovered\n%s--- reference\n%s", fp, wfp)
	}
	gotCensus, err := census(ds2.Snapshot().Graph())
	if err != nil {
		return fmt.Errorf("census over recovered graph: %w", err)
	}
	wantCensus, err := census(ref)
	if err != nil {
		return err
	}
	if gotCensus != wantCensus {
		return fmt.Errorf("census diverges after shard-compaction kill:\n--- recovered\n%s--- reference\n%s", gotCensus, wantCensus)
	}

	// Still fully writable across every shard, and a clean compaction
	// completes the interrupted swap.
	w2 := ds2.Writer()
	var ops []graph.Op
	ops, nodes = randBatch(rng, ref.NumNodes())
	stage(w2, ops)
	if _, err := w2.Publish(); err != nil {
		return fmt.Errorf("publish after shard-compaction kill: %w", err)
	}
	if err := ds2.Compact(); err != nil {
		return fmt.Errorf("compaction after recovery: %w", err)
	}
	return nil
}
