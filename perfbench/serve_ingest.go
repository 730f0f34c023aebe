package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/fault"
	"egocensus/internal/graph"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

// serveQuery is one query shape of the serve-ingest mix. Each text
// defines its own pattern name: /v1/query prepares texts one by one and
// rejects a second text that redefines a name.
type serveQuery struct {
	name, pattern, patName string
	k, width               int
}

func (q serveQuery) text() string {
	return fmt.Sprintf("%s\nSELECT ID, COUNTP(%s, SUBGRAPH(ID, %d)) FROM nodes WHERE ID >= $lo AND ID < $hi",
		q.pattern, q.patName, q.k)
}

var serveQueries = []serveQuery{
	{"clq3-k1", clq3Pattern, "clq3", 1, 100}, // 4 of every 5 requests
	{"tri-k2", triPattern, "tri", 2, 10},     // 1 of every 5
}

const (
	// serveBlocks fixed ID blocks of 100 nodes cover the base graph; a
	// request's range starts at a block drawn Zipf-like by popularity
	// rank. Rank r maps to block (67r+37) mod 200, the same for every
	// seed, so the hub-heavy low blocks carry the same share of traffic
	// in every run.
	serveBlocks = 200
	ingestEvery = 100 * time.Millisecond
	ingestEdges = 100
	// Every verifyEvery-th response, up to verifyMax, keeps its snapshot
	// for the check; a fixed choice keeps the snapshots the run holds,
	// and so its peak memory, the same from seed to seed. 12 shares no
	// factor with the five-request mix, so the samples cover both shapes.
	verifyEvery  = 12
	verifyMax    = 12
	probeSamples = 6
	ringEpochs   = 32
	serveSetups  = 9
)

func blockOf(rank int) int { return (rank*67 + 37) % serveBlocks }

// served is one successful response and what the harness saw of it.
type served struct {
	q      serveQuery
	lo, hi int
	lat    time.Duration
	table  core.TableJSON
	// snap is the version the response observed, kept for the responses
	// the run verifies.
	snap *graph.Snapshot
}

// snapRing keeps the last published snapshots by epoch so a sampled
// response can be recomputed on exactly the version it observed.
type snapRing struct {
	mu sync.Mutex
	m  map[uint64]*graph.Snapshot
}

func (r *snapRing) add(s *graph.Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[s.Epoch()] = s
	delete(r.m, s.Epoch()-ringEpochs)
}

func (r *snapRing) get(epoch uint64) *graph.Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[epoch]
}

// liveServer is one set-up instance: store, engine and HTTP listener.
type liveServer struct {
	ds  *storage.DynamicStore
	e   *core.Engine
	hs  *http.Server
	url string
	wg  sync.WaitGroup
}

func startServer(fsys fault.FS, path string, g *graph.Graph) (*liveServer, error) {
	ds, err := storage.CreateDynamicFS(fsys, path, g)
	if err != nil {
		return nil, err
	}
	e := core.NewEngineLiveSharded(ds.Writer())
	engineOptions(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ds.Close()
		return nil, err
	}
	ls := &liveServer{ds: ds, e: e, hs: &http.Server{Handler: serve.New(e, serve.Config{})},
		url: "http://" + ln.Addr().String() + "/v1/query"}
	ls.wg.Add(1)
	go func() {
		defer ls.wg.Done()
		ls.hs.Serve(ln)
	}()
	return ls, nil
}

// stop closes the listener and waits for the serving goroutine; the
// store stays open for the caller.
func (ls *liveServer) stop() {
	ls.hs.Close()
	ls.wg.Wait()
}

// runServeIngest is the serving rung: one keep-alive HTTP client in a
// closed loop of census queries while one caller publishes into the
// durable store on a fixed schedule.
func runServeIngest(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	g := baseGraph(cfg)
	var fsys fault.FS = fault.OS{}
	var cfs *countFS
	if tr != nil {
		cfs = newCountFS(tr)
		fsys = cfs
	}

	var setups []time.Duration
	var ls *liveServer
	for i := 0; i < serveSetups; i++ {
		if ls != nil {
			ls.stop()
			ls.ds.Close()
			// Collect the previous instance so repeated set-ups do not
			// raise the run's peak memory.
			runtime.GC()
		}
		dir, err := storeDir(cfg.work, fmt.Sprintf("serve-%v-%d", tr != nil, i))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if ls, err = startServer(fsys, filepath.Join(dir, "graph.egoc"), g); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("serve-%v-%d", tr != nil, serveSetups-1), "graph.egoc")
	w := ls.ds.Writer()
	ring := &snapRing{m: map[uint64]*graph.Snapshot{}}
	ring.add(ls.ds.Snapshot())
	texts := make([]string, len(serveQueries))
	for i, q := range serveQueries {
		texts[i] = q.text()
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	cache0 := ls.e.CacheStats()
	if cfs != nil {
		cfs.reset()
		cfs.active.Store(true)
	}
	c0 := cpuTime()
	winStart := time.Now()
	deadline := winStart.Add(cfg.window)

	// Ingest: open loop, one publish of 100 random edges every 100 ms,
	// each timed from when it was due.
	var ingestWG sync.WaitGroup
	var pubLat, lags, statsTimes []time.Duration
	var lastAcked uint64
	var pubFailed []error
	ingestWG.Add(1)
	go func() {
		defer ingestWG.Done()
		irng := rand.New(rand.NewSource(cfg.seed*104729 + 11))
		nodes := ls.ds.Snapshot().NumNodes()
		for i := 0; ; i++ {
			due := winStart.Add(time.Duration(i) * ingestEvery)
			if !due.Before(deadline) {
				return
			}
			time.Sleep(time.Until(due))
			start := time.Now()
			lags = append(lags, start.Sub(due))
			stageEdges(w, irng, nodes, ingestEdges)
			pid := tr.newID()
			if cfs != nil {
				cfs.publish.Store(pid)
			}
			snap, err := w.Publish()
			ack := time.Now()
			if cfs != nil {
				cfs.publish.Store(0)
				tr.add(span{ID: pid, Trace: pid, Name: "graph.publish",
					Start: start.Sub(tr.epoch).Nanoseconds(), End: ack.Sub(tr.epoch).Nanoseconds()})
			}
			if err != nil {
				pubFailed = append(pubFailed, err)
				continue
			}
			pubLat = append(pubLat, ack.Sub(due))
			lastAcked = snap.Epoch()
			ring.add(snap)
			if tr != nil {
				s0 := time.Now()
				graph.ComputeStats(snap.Graph())
				s1 := time.Now()
				tr.record("plan.stats", 0, 0, s0, s1)
				statsTimes = append(statsTimes, s1.Sub(s0))
			}
		}
	}()

	// Queries: one client, closed loop, with one rank sequence per query
	// shape, each from a seeded start.
	qrng := rand.New(rand.NewSource(cfg.seed*15485863 + 5))
	draws := make([]*zipf, len(serveQueries))
	for i := range draws {
		draws[i] = newZipf(serveBlocks, qrng.Float64())
	}
	var done []served
	attempts, rejected, unheld := 0, 0, 0
	for i := 0; time.Now().Before(deadline); i++ {
		// Every fifth request is the triangle query: a fixed mix, so the
		// run's throughput does not swing with how many expensive
		// requests the draws happened to pick.
		qi := 0
		if i%5 == 4 {
			qi = 1
		}
		q := serveQueries[qi]
		lo := blockOf(draws[qi].next()) * (cfg.nodes / serveBlocks)
		hi := min(lo+q.width, cfg.nodes)
		body, err := json.Marshal(serve.QueryRequest{Query: texts[qi],
			Params: map[string]string{"lo": strconv.Itoa(lo), "hi": strconv.Itoa(hi)}})
		if err != nil {
			return nil, err
		}
		attempts++
		t0 := time.Now()
		status, resp, err := post(client, ls.url, body)
		t1 := time.Now()
		if err != nil || status != http.StatusOK {
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				rejected++
			}
			o.fail("%s [%d,%d): status %d: %v %s", q.name, lo, hi, status, err, resp)
			continue
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(resp, &qr); err != nil || len(qr.Tables) != 1 {
			o.fail("%s: undecodable response: %v", q.name, err)
			continue
		}
		s := served{q: q, lo: lo, hi: hi, lat: t1.Sub(t0), table: qr.Tables[0]}
		if len(done)%verifyEvery == verifyEvery/2 && countVerified(done) < verifyMax {
			// A response older than the ring cannot be recomputed; it is
			// counted as unverified, not as wrong.
			if s.snap = ring.get(s.table.Epoch); s.snap == nil {
				unheld++
			}
		}
		done = append(done, s)
		if tr != nil {
			id := tr.record("serve.request", 0, 0, t0, t1)
			st := s.table.Stats
			if !st.ResultCached {
				tr.derived(span{ID: id, Trace: id, Start: t0.Sub(tr.epoch).Nanoseconds()}, []stage{
					{"lang.parse", us(st.ParseMicros)}, {"plan.plan", us(st.PlanMicros)},
					{"core.focal", us(st.FocalMicros)}, {"core.census", us(st.CensusMicros)},
					{"core.render", us(st.RenderMicros)}})
			}
		}
	}
	elapsed := time.Since(winStart)
	ingestWG.Wait()
	cpu := cpuTime() - c0
	if cfs != nil {
		cfs.active.Store(false)
	}
	o.attempted += attempts + len(pubLat) + len(pubFailed)
	for _, err := range pubFailed {
		o.fail("publish: %v", err)
	}
	cache1 := ls.e.CacheStats()
	ws := w.Stats()
	ls.stop()

	// Recompute the sampled responses row by row with ND-BAS on the
	// snapshots they observed.
	for _, s := range done {
		if s.snap == nil {
			continue
		}
		o.attempted++
		if err := verifyServed(s); err != nil {
			o.fail("%s [%d,%d) epoch %d: %v", s.q.name, s.lo, s.hi, s.table.Epoch, err)
		}
	}

	// Reopen the store: the recovered epoch is the last acknowledged one.
	before := ls.ds.Snapshot()
	if err := ls.ds.Close(); err != nil {
		return nil, err
	}
	o.attempted++
	r0 := time.Now()
	re, err := storage.OpenDynamicFS(fsys, path)
	var reopen time.Duration
	if err != nil {
		o.fail("reopen: %v", err)
	} else {
		after := re.Snapshot()
		reopen = time.Since(r0)
		tr.record("storage.replay", 0, 0, r0, r0.Add(reopen))
		if after.Epoch() != lastAcked || after.NumEdges() != before.NumEdges() {
			o.fail("reopen: epoch %d with %d edges, last acknowledged %d with %d", after.Epoch(), after.NumEdges(), lastAcked, before.NumEdges())
		}
		defer re.Close()
	}

	lats := make([]time.Duration, len(done))
	for i, s := range done {
		lats[i] = s.lat
	}
	o.e2e["setup_s"] = percentile(setups, 0.5).Seconds()
	o.e2e["latency_p50_ms"] = medianMs(lats)
	o.e2e["latency_tail_ms"] = ms(percentile(lats, 0.9))
	o.e2e["throughput_per_s"] = float64(len(done)) / elapsed.Seconds()
	o.note("queries", float64(len(done)), "count")
	for _, q := range serveQueries {
		var shape []time.Duration
		for _, s := range done {
			if s.q.name == q.name {
				shape = append(shape, s.lat)
			}
		}
		o.note(q.name+"_p50_ms", medianMs(shape), "ms")
	}
	o.note("latency_tail_ms is p90", float64(len(lats))/10, "samples beyond")
	o.note("publish_p50_ms", medianMs(pubLat), "ms")
	o.note("ingest_lag_ms", ms(percentile(lags, 0.9)), "ms")
	o.note("publishes", float64(len(pubLat)), "count")
	o.note("reopen_s", reopen.Seconds(), "s")
	o.note("verified_responses", float64(countVerified(done)), "count")
	o.note("unverified_snapshot_gone", float64(unheld), "count")
	if tr == nil {
		return o, nil
	}

	L := o.layer
	var self, plan, focal, render []time.Duration
	var msize []float64
	census := map[string][]time.Duration{}
	for _, s := range done {
		st := s.table.Stats
		if st.ResultCached {
			self = append(self, s.lat)
			continue
		}
		self = append(self, s.lat-us(st.ParseMicros+st.PlanMicros+st.FocalMicros+st.CensusMicros+st.RenderMicros))
		if !st.PlanCached {
			plan = append(plan, us(st.PlanMicros))
		}
		focal = append(focal, us(st.FocalMicros))
		render = append(render, us(st.RenderMicros))
		census[s.table.Algorithm] = append(census[s.table.Algorithm], us(st.CensusMicros))
		msize = append(msize, float64(st.MatchSetSize))
	}
	L["serve.request_ms"] = medianMs(lats)
	L["serve.self_ms"] = medianMs(self)
	L["serve.rejected"] = ratio(float64(rejected), float64(attempts))
	L["plan.plan_ms"] = medianMs(plan)
	L["core.focal_ms"] = medianMs(focal)
	L["core.render_ms"] = medianMs(render)
	for _, a := range algNames {
		L["core.census_ms."+a] = medianMs(census[a])
	}
	L["core.match_set_size"] = medianF(msize)
	ph, pm := cache1.Plan.Hits-cache0.Plan.Hits, cache1.Plan.Misses-cache0.Plan.Misses
	rh, rm := cache1.Result.Hits-cache0.Result.Hits, cache1.Result.Misses-cache0.Result.Misses
	L["plan.cache_hit_ratio"] = ratio(float64(ph), float64(ph+pm))
	L["core.result_hit_ratio"] = ratio(float64(rh), float64(rh+rm))
	o.note("plan_cache_lookups", float64(ph+pm), "count")
	o.note("result_cache_lookups", float64(rh+rm), "count")
	L["core.cpu_util"] = ratio(cpu.Seconds(), elapsed.Seconds()*float64(gomaxprocs()))
	L["plan.stats_ms"] = medianMs(statsTimes)
	pubs := spanDurs(tr.byName("graph.publish"))
	L["graph.publish_p50_ms"] = medianMs(pubs)
	L["graph.publish_p99_ms"] = ms(percentile(pubs, 0.99))
	L["graph.publish_self_ms"] = medianMs(tr.selfTimes("graph.publish"))
	L["graph.overlay_rows"] = float64(ws.OverlayRows)
	L["graph.csr_compactions"] = float64(ws.Compactions)
	storageLayer(L, cfs.figures(), len(pubLat), len(pubLat)*ingestEdges)
	L["storage.replay_ms"] = ms(reopen)
	if re != nil {
		n, _, _ := re.LogStats()
		L["storage.replay_records"] = float64(n)
	}

	// Plan probe on the first sampled responses, outside the window.
	var regrets, mq, fq []float64
	driver := map[string][]time.Duration{}
	probed := 0
	for _, s := range done {
		if s.snap == nil || probed == probeSamples {
			continue
		}
		probed++
		params := map[string]string{"lo": strconv.Itoa(s.lo), "hi": strconv.Itoa(s.hi)}
		exec := func(alg string, ctx context.Context) (*core.Table, error) {
			e := core.NewEngine(s.snap.Graph())
			engineOptions(e)
			e.Alg = core.Algorithm(alg)
			p, err := e.Prepare(s.q.text())
			if err != nil {
				return nil, err
			}
			return p.ExecuteContext(ctx, params, core.ExecOptions{NoResultCache: true})
		}
		chosen, err := exec("", context.Background())
		if err != nil {
			o.fail("probe %s: %v", s.q.name, err)
			continue
		}
		if string(chosen.Algorithm) != s.table.Algorithm {
			o.note("probe_plan_differs_"+s.q.name, 1, "count")
		}
		pr, err := probe(cfg, tr, exec, chosen)
		if err != nil {
			o.fail("probe %s: %v", s.q.name, err)
			continue
		}
		for a, d := range pr.census {
			driver[a] = append(driver[a], d)
		}
		regrets = append(regrets, pr.regret)
		mq = append(mq, pr.matchQ)
		fq = append(fq, pr.focalQ)
		o.note(fmt.Sprintf("probe.%s.%d.regret", s.q.name, s.lo), pr.regret, "ratio")
	}
	for _, a := range algNames {
		L["core.driver_ms."+a] = medianMs(driver[a])
	}
	L["plan.regret"] = medianF(regrets)
	L["plan.match_qerror"] = medianF(mq)
	L["plan.focal_qerror"] = medianF(fq)
	return o, nil
}

func us(v int64) time.Duration { return time.Duration(v) * time.Microsecond }

func countVerified(done []served) int {
	n := 0
	for _, s := range done {
		if s.snap != nil {
			n++
		}
	}
	return n
}

// post sends one request and reads the whole response.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// verifyServed recomputes a response's counts with ND-BAS on the
// snapshot the response reports and compares them row by row.
func verifyServed(s served) error {
	p, err := parsePattern(s.q.pattern, s.q.patName)
	if err != nil {
		return err
	}
	focal := make([]graph.NodeID, 0, s.hi-s.lo)
	for n := s.lo; n < s.hi; n++ {
		focal = append(focal, graph.NodeID(n))
	}
	want, err := core.CountSnapshot(s.snap, core.Spec{Pattern: p, K: s.q.k, Focal: focal}, core.NDBas,
		core.Options{Workers: gomaxprocs()})
	if err != nil {
		return err
	}
	if len(s.table.Rows) != len(focal) {
		return fmt.Errorf("%d rows for %d focal nodes", len(s.table.Rows), len(focal))
	}
	for _, row := range s.table.Rows {
		if len(row) != 2 {
			return fmt.Errorf("row %v", row)
		}
		id, err1 := strconv.Atoi(row[0])
		got, err2 := strconv.ParseInt(row[1], 10, 64)
		if err1 != nil || err2 != nil || id < s.lo || id >= s.hi {
			return fmt.Errorf("row %v", row)
		}
		if got != want.Counts[id] {
			return fmt.Errorf("node %d: served %d, ND-BAS %d", id, got, want.Counts[id])
		}
	}
	return nil
}
