package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/fault"
	"egocensus/internal/graph"
	"egocensus/internal/match"
	"egocensus/internal/storage"
)

// batchQuery is one census-batch query: a Fig 4 workload of the paper and
// the fixed algorithm that computes its reference answer.
type batchQuery struct {
	name, text, refAlg string
}

// censusBatchQueries run in this order every round. The reference
// algorithms differ from the planner's choices where an affordable one
// exists; no node-driven driver finishes the pair query in minutes.
var censusBatchQueries = []batchQuery{
	{"fig4c", `SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes`, "ND-PVOT"},
	{"fig4d", `SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes`, "ND-PVOT"},
	{"fig4h", `SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) FROM nodes AS n1, nodes AS n2 WHERE n1.ID < 50`, "PT-BAS"},
}

// batchPatterns is defined once per engine: /v1/query and Execute both
// reject a second definition of a pattern name.
const batchPatterns = triPattern + "\n" + clq3Pattern + "\n" + edgePattern

const setupRepeats = 9

// runCensusBatch is the paper's workload: uncached ExecuteContext calls
// over a hydrated on-disk graph, one caller, no writes.
func runCensusBatch(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	g := baseGraph(cfg)
	dir, err := storeDir(cfg.work, fmt.Sprintf("census-batch-%v", tr != nil))
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "graph.egoc")
	var fsys fault.FS = fault.OS{}
	var cfs *countFS
	if tr != nil {
		cfs = newCountFS(tr)
		fsys = cfs
	}
	// Saving the image prepares the input; it is not set-up.
	if err := storage.SaveFS(fsys, path, g); err != nil {
		return nil, err
	}

	// Set-up, repeated for a steady median: open the store, build the
	// engine, define the patterns and hydrate the graph.
	var setups, hydrates []time.Duration
	var e *core.Engine
	var st *storage.Store
	var hg *graph.Graph
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.Close()
			// Collect the previous instance so repeated set-ups do not
			// raise the run's peak memory.
			runtime.GC()
		}
		start := time.Now()
		if st, err = storage.OpenFS(fsys, path, 0); err != nil {
			return nil, err
		}
		e = core.NewEngineFromSource(st)
		engineOptions(e)
		if _, err := e.ExecuteContext(ctx, batchPatterns); err != nil {
			return nil, err
		}
		h0 := time.Now()
		if hg, err = e.Graph(); err != nil {
			return nil, err
		}
		end := time.Now()
		tr.record("storage.hydrate", 0, 0, h0, end)
		hydrates = append(hydrates, end.Sub(h0))
		setups = append(setups, end.Sub(start))
	}
	defer st.Close()

	// Reference answers by fixed algorithms, outside set-up and window.
	ref := core.NewEngine(hg)
	engineOptions(ref)
	if _, err := ref.ExecuteContext(ctx, batchPatterns); err != nil {
		return nil, err
	}
	want := make([]uint64, len(censusBatchQueries))
	for i, q := range censusBatchQueries {
		ref.Alg = core.Algorithm(q.refAlg)
		ts, err := ref.ExecuteContext(ctx, q.text)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		want[i] = tableDigest(ts[0].Rows)
	}

	type roundStats struct {
		parse, plan, focal, render time.Duration
		census                     map[string]time.Duration
		matches                    int
	}
	var lats []time.Duration
	var rounds []roundStats
	var busy, cpu time.Duration
	last := make([]*core.Table, len(censusBatchQueries))
	if cfs != nil {
		cfs.reset()
		cfs.active.Store(true)
	}
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)
	for time.Now().Before(deadline) {
		rs := roundStats{census: map[string]time.Duration{}}
		for i, q := range censusBatchQueries {
			o.attempted++
			c0, t0 := cpuTime(), time.Now()
			ts, err := e.ExecuteContext(ctx, q.text)
			t1 := time.Now()
			cpu += cpuTime() - c0
			busy += t1.Sub(t0)
			lats = append(lats, t1.Sub(t0))
			if err != nil {
				o.fail("%s: %v", q.name, err)
				continue
			}
			t := ts[0]
			last[i] = t
			if d := tableDigest(t.Rows); d != want[i] {
				o.fail("%s: digest %x, reference %s gives %x", q.name, d, q.refAlg, want[i])
			}
			s := t.Stats
			rs.parse += s.ParseTime
			rs.plan += s.PlanTime
			rs.focal += s.FocalTime
			rs.render += s.RenderTime
			rs.census[string(t.Algorithm)] += s.CensusTime
			rs.matches += s.MatchSetSize
			if tr != nil {
				id := tr.record("core.execute", 0, 0, t0, t1)
				tr.derived(span{ID: id, Trace: id, Start: t0.Sub(tr.epoch).Nanoseconds()}, []stage{
					{"lang.parse", s.ParseTime}, {"plan.plan", s.PlanTime}, {"core.focal", s.FocalTime},
					{"core.census", s.CensusTime}, {"core.render", s.RenderTime}})
			}
		}
		rounds = append(rounds, rs)
	}
	elapsed := time.Since(winStart)
	if cfs != nil {
		cfs.active.Store(false)
	}

	o.e2e["setup_s"] = percentile(setups, 0.5).Seconds()
	o.e2e["latency_p50_ms"] = medianMs(lats)
	o.e2e["latency_tail_ms"] = ms(percentile(lats, batchTail))
	o.e2e["throughput_per_s"] = float64(len(lats)) / elapsed.Seconds()
	o.note("queries", float64(len(lats)), "count")
	o.note("rounds", float64(len(rounds)), "count")
	o.note(fmt.Sprintf("latency_tail_ms is p%.0f", batchTail*100), float64(len(lats))*(1-batchTail), "samples beyond")
	if tr == nil {
		return o, nil
	}

	perRound := func(f func(roundStats) time.Duration) float64 {
		ds := make([]time.Duration, len(rounds))
		for i, r := range rounds {
			ds[i] = f(r)
		}
		return medianMs(ds)
	}
	L := o.layer
	L["lang.parse_ms"] = perRound(func(r roundStats) time.Duration { return r.parse })
	L["plan.plan_ms"] = perRound(func(r roundStats) time.Duration { return r.plan })
	L["core.focal_ms"] = perRound(func(r roundStats) time.Duration { return r.focal })
	L["core.render_ms"] = perRound(func(r roundStats) time.Duration { return r.render })
	for _, a := range algNames {
		L["core.census_ms."+a] = perRound(func(r roundStats) time.Duration { return r.census[a] })
	}
	matches := make([]float64, len(rounds))
	for i, r := range rounds {
		matches[i] = float64(r.matches)
	}
	L["core.match_set_size"] = medianF(matches)
	L["core.cpu_util"] = ratio(cpu.Seconds(), busy.Seconds()*float64(gomaxprocs()))
	L["storage.hydrate_ms"] = medianMs(hydrates)
	cache := e.CacheStats()
	L["plan.cache_hit_ratio"] = ratio(float64(cache.Plan.Hits), float64(cache.Plan.Hits+cache.Plan.Misses))
	L["core.result_hit_ratio"] = ratio(float64(cache.Result.Hits), float64(cache.Result.Hits+cache.Result.Misses))
	fig := cfs.figures()
	L["storage.fsync_p50_ms"] = ms(percentile(fig.syncs, 0.5))
	L["storage.fsync_p99_ms"] = ms(percentile(fig.syncs, 0.99))

	// CN matching alone, for each pattern of the batch.
	cat := e.Patterns()
	var cn time.Duration
	var found int
	for _, name := range []string{"tri", "clq3", "e1"} {
		t0 := time.Now()
		found += len(match.FindMatches(match.CN{}, hg, cat[name]))
		t1 := time.Now()
		tr.record("match.cn", 0, 0, t0, t1)
		cn += t1.Sub(t0)
	}
	L["match.cn_ms"] = ms(cn)
	L["match.matches"] = float64(found)

	// Plan probe: every query under each of the six algorithms.
	var regrets, mq, fq []float64
	driver := map[string]time.Duration{}
	for i, q := range censusBatchQueries {
		if last[i] == nil {
			continue
		}
		pr, err := probe(cfg, tr, func(alg string, c context.Context) (*core.Table, error) {
			e.Alg = core.Algorithm(alg)
			defer func() { e.Alg = "" }()
			ts, err := e.ExecuteContext(c, q.text)
			if err != nil {
				return nil, err
			}
			return ts[0], nil
		}, last[i])
		if err != nil {
			o.fail("probe %s: %v", q.name, err)
			continue
		}
		for a, d := range pr.census {
			driver[a] += d
		}
		regrets = append(regrets, pr.regret)
		mq = append(mq, pr.matchQ)
		if pr.focalQ > 0 {
			fq = append(fq, pr.focalQ)
		}
		o.note("probe."+q.name+".timeouts", float64(pr.timeouts), "count")
	}
	for _, a := range algNames {
		L["core.driver_ms."+a] = ms(driver[a])
	}
	L["plan.regret"] = medianF(regrets)
	L["plan.match_qerror"] = medianF(mq)
	L["plan.focal_qerror"] = medianF(fq)
	return o, nil
}

// batchTail is census-batch's tail percentile: the highest of the usual
// ones that keeps ten or more of a 30-second run's 42-54 queries beyond
// it. It falls inside the pair query's latencies, the slowest third.
const batchTail = 0.75

// probeResult is what forcing each algorithm on one query showed.
type probeResult struct {
	census   map[string]time.Duration
	regret   float64
	matchQ   float64
	focalQ   float64
	timeouts int
}

// probe runs exec under each of the six algorithms with a deadline of
// cfg.probeCap; a run that hits the cap counts at the cap. chosen is the
// planner's own execution of the same query on the same snapshot.
func probe(cfg config, tr *tracer, exec func(alg string, ctx context.Context) (*core.Table, error), chosen *core.Table) (*probeResult, error) {
	pr := &probeResult{census: map[string]time.Duration{}}
	actualM := chosen.Stats.MatchSetSize
	for _, a := range algNames {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.probeCap)
		t0 := time.Now()
		t, err := exec(a, ctx)
		t1 := time.Now()
		cancel()
		var ce *core.CanceledError
		switch {
		case errors.As(err, &ce):
			pr.census[a] = cfg.probeCap
			pr.timeouts++
		case err != nil:
			return nil, fmt.Errorf("%s: %w", a, err)
		default:
			pr.census[a] = t.Stats.CensusTime
			actualM = max(actualM, t.Stats.MatchSetSize)
		}
		tr.record("plan.probe."+a, 0, 0, t0, t1)
	}
	best := pr.census[algNames[0]]
	for _, d := range pr.census {
		best = min(best, d)
	}
	pr.regret = ratio(float64(pr.census[string(chosen.Algorithm)]), float64(best))
	if chosen.Plan != nil && len(chosen.Plan.Choices) > 0 {
		pr.matchQ = qerror(chosen.Plan.Choices[0].Matches, float64(actualM))
		if chosen.Stats.FocalCount >= 0 {
			pr.focalQ = qerror(chosen.Plan.Focals, float64(chosen.Stats.FocalCount))
		}
	}
	return pr, nil
}
