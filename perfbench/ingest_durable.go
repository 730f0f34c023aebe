package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"egocensus/internal/fault"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/storage"
)

const (
	// durableRound is the publishes per store: each round creates a store
	// from the base graph, publishes into it, closes and reopens it, so
	// the graph the window writes into stays the same size run to run.
	durableRound = 2000
	// durableCompactAt lowers the background compaction threshold so a
	// round of ~1.2 KiB records runs about two compactions.
	durableCompactAt = 1 << 20
)

// runIngestDurable is the write-heavy workload: one caller publishing
// mixed batches into a durable single-shard store in a closed loop, then
// closing and reopening it; no census runs.
func runIngestDurable(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	g := baseGraph(cfg)
	rng := rand.New(rand.NewSource(cfg.seed*7919 + 3))
	var fsys fault.FS = fault.OS{}
	var cfs *countFS
	if tr != nil {
		cfs = newCountFS(tr)
		fsys = cfs
	}

	var setups, reopens, lats []time.Duration
	var records, overlay, csrCompactions []float64
	var cpu time.Duration
	edges, publishes, rounds := 0, 0, 0
	// spent is the time inside publish loops: the measured window.
	var spent time.Duration
	for ; rounds == 0 || spent < cfg.window; rounds++ {
		dir, err := storeDir(cfg.work, fmt.Sprintf("durable-%v-%d", tr != nil, rounds))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, "graph.egoc")
		t0 := time.Now()
		ds, err := storage.CreateDynamicFS(fsys, path, g)
		if err != nil {
			return nil, err
		}
		ds.SetCompactAtBytes(durableCompactAt)
		setups = append(setups, time.Since(t0))

		w := ds.Writer()
		nodes := ds.Snapshot().NumNodes()
		var acked uint64
		if cfs != nil {
			cfs.active.Store(true)
		}
		c0, loopStart := cpuTime(), time.Now()
		for i := 0; i < durableRound && spent+time.Since(loopStart) < cfg.window; i++ {
			w.AddNodes(5)
			nodes += 5
			stageEdges(w, rng, nodes, 100)
			for j := 0; j < 5; j++ {
				w.SetLabel(graph.NodeID(rng.Intn(nodes)), gen.LabelName(rng.Intn(4)))
			}
			for j := 0; j < 5; j++ {
				w.SetNodeAttr(graph.NodeID(rng.Intn(nodes)), "score", strconv.Itoa(rng.Intn(1<<(4*(j+1)))))
			}
			o.attempted++
			pid := tr.newID()
			if cfs != nil {
				cfs.publish.Store(pid)
			}
			p0 := time.Now()
			snap, err := w.Publish()
			p1 := time.Now()
			if cfs != nil {
				cfs.publish.Store(0)
				tr.add(span{ID: pid, Trace: pid, Name: "graph.publish",
					Start: p0.Sub(tr.epoch).Nanoseconds(), End: p1.Sub(tr.epoch).Nanoseconds()})
			}
			if err != nil {
				o.fail("publish: %v", err)
				continue
			}
			lats = append(lats, p1.Sub(p0))
			acked = snap.Epoch()
			edges += 100
			publishes++
		}
		spent += time.Since(loopStart)
		cpu += cpuTime() - c0

		// Close after the last acknowledgement, reopen, and check that
		// everything acknowledged came back.
		before := ds.Snapshot()
		ws := w.Stats()
		overlay = append(overlay, float64(ws.OverlayRows))
		csrCompactions = append(csrCompactions, float64(ws.Compactions))
		wantDigest := degreeDigest(before.Graph())
		if err := ds.Close(); err != nil {
			return nil, err
		}
		if cfs != nil {
			cfs.active.Store(false)
		}
		o.attempted++
		r0 := time.Now()
		re, err := storage.OpenDynamicFS(fsys, path)
		if err != nil {
			o.fail("reopen: %v", err)
			continue
		}
		after := re.Snapshot()
		r1 := time.Now()
		tr.record("storage.replay", 0, 0, r0, r1)
		reopens = append(reopens, r1.Sub(r0))
		n, _, _ := re.LogStats()
		records = append(records, float64(n))
		switch {
		case after.Epoch() != acked:
			o.fail("reopen: epoch %d, last acknowledged %d", after.Epoch(), acked)
		case after.NumNodes() != before.NumNodes() || after.NumEdges() != before.NumEdges():
			o.fail("reopen: %d nodes %d edges, before close %d/%d", after.NumNodes(), after.NumEdges(), before.NumNodes(), before.NumEdges())
		case degreeDigest(after.Graph()) != wantDigest:
			o.fail("reopen: degree digest differs from the pre-close snapshot")
		}
		if err := re.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
		// Collect the round's store so rounds do not raise the run's
		// peak memory.
		runtime.GC()
	}

	o.e2e["setup_s"] = percentile(setups, 0.5).Seconds()
	o.e2e["latency_p50_ms"] = medianMs(lats)
	// The tail is p90: p99 publish latency is the disk's fsync tail,
	// which moves with the other tenants of a shared host far more than
	// the program's own cost does. p99 is reported below and traced as
	// graph.publish_p99_ms.
	o.e2e["latency_tail_ms"] = ms(percentile(lats, 0.9))
	o.e2e["throughput_per_s"] = float64(edges) / spent.Seconds()
	o.note("reopen_s", percentile(reopens, 0.5).Seconds(), "s")
	o.note("publish_p99_ms", ms(percentile(lats, 0.99)), "ms")
	o.note("publishes", float64(publishes), "count")
	o.note("rounds", float64(rounds), "count")
	o.note("latency_tail_ms is p90", float64(len(lats))/10, "samples beyond")
	if tr == nil {
		return o, nil
	}

	L := o.layer
	pubs := spanDurs(tr.byName("graph.publish"))
	L["graph.publish_p50_ms"] = medianMs(pubs)
	L["graph.publish_p99_ms"] = ms(percentile(pubs, 0.99))
	L["graph.publish_self_ms"] = medianMs(tr.selfTimes("graph.publish"))
	L["graph.overlay_rows"] = medianF(overlay)
	L["graph.csr_compactions"] = medianF(csrCompactions)
	L["core.cpu_util"] = ratio(cpu.Seconds(), spent.Seconds()*float64(gomaxprocs()))
	storageLayer(L, cfs.figures(), publishes, edges)
	L["storage.replay_ms"] = medianMs(reopens)
	L["storage.replay_records"] = medianF(records)
	return o, nil
}

// storageLayer fills the storage metrics from the counting seam.
func storageLayer(L map[string]float64, fig storageFigures, publishes, edges int) {
	L["storage.fsync_p50_ms"] = ms(percentile(fig.syncs, 0.5))
	L["storage.fsync_p99_ms"] = ms(percentile(fig.syncs, 0.99))
	L["storage.fsyncs_per_publish"] = ratio(float64(len(fig.syncs)), float64(publishes))
	L["storage.wal_bytes_per_edge"] = ratio(float64(fig.logBytes), float64(edges))
	L["storage.compactions"] = float64(len(fig.compactions))
	L["storage.compaction_ms"] = medianMs(fig.compactions)
	L["storage.compaction_bytes"] = float64(fig.tempBytes)
}
