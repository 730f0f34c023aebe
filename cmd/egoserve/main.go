// Command egoserve serves ego-centric pattern census queries over
// HTTP/JSON from a stored graph.
//
// Usage:
//
//	egoserve -graph graph.egoc [-addr :8080] [-alg PT-OPT] [-workers N]
//	egoserve -graph graph.egoc -mutlog   # serve the crash-recovered dynamic store
//
// Endpoints:
//
//	POST /v1/query  {"query": "...", "params": {"name": "value"}, "timeout_ms": 1000, "max_rows": 100}
//	GET  /v1/stats  graph version, cache counters, admission gauges
//	GET  /healthz   liveness probe
//
// Single-SELECT requests run through prepared statements cached by query
// text: repeated requests skip parsing and planning (epoch-keyed plan
// cache), and repeated requests with identical parameters against an
// unchanged graph version return straight from the result cache.
// Admission control executes at most -inflight queries concurrently,
// queues at most -queue more, and sheds the rest with HTTP 429.
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight queries
// finish (up to -drain), then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/graph"
	"egocensus/internal/serve"
	"egocensus/internal/storage"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "graph file written by gengraph (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		alg         = flag.String("alg", "", "force algorithm: ND-BAS, ND-DIFF, ND-PVOT, PT-BAS, PT-RND, PT-OPT")
		workers     = flag.Int("workers", core.DefaultWorkers(), "parallel workers per query's counting phase")
		seed        = flag.Int64("seed", 1, "seed for RND() sampling")
		mutlog      = flag.Bool("mutlog", false, "open -graph as a dynamic store: replay its mutation-log sidecar(s) and serve the recovered snapshot")
		shards      = flag.Int("shards", 0, "shard-affine scheduling: partition focal work across this many shards (0 = the store's own shard count for -mutlog, no affinity otherwise)")
		inflight    = flag.Int("inflight", 0, "max concurrently executing queries (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 0, "max queries waiting for a slot before 429 (0 = 4x inflight)")
		reqTimeout  = flag.Duration("timeout", 30*time.Second, "default per-request evaluation deadline")
		maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "cap on client-requested deadlines")
		planEntries = flag.Int("plan-cache", core.DefaultPlanCacheEntries, "plan cache capacity in entries (<=0 disables)")
		resultMB    = flag.Int64("result-cache-mb", core.DefaultResultCacheBytes>>20, "result cache budget in MiB (<=0 disables)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight queries")
	)
	flag.Parse()
	if *graphPath == "" {
		fmt.Fprintln(os.Stderr, "egoserve: -graph is required")
		flag.Usage()
		os.Exit(2)
	}

	var e *core.Engine
	var writeHealth func() error
	if *mutlog {
		ds, err := storage.OpenDynamic(*graphPath)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		if *shards > 0 && *shards != ds.Shards() {
			fatal(fmt.Errorf("egoserve: store %s has %d shards, not %d", *graphPath, ds.Shards(), *shards))
		}
		records, bytes, baseEpoch := ds.LogStats()
		fmt.Fprintf(os.Stderr, "egoserve: recovered epoch %d (base image at epoch %d, %d shards, %d log records, %d bytes)\n",
			ds.Snapshot().Epoch(), baseEpoch, ds.Shards(), records, bytes)
		e = core.NewEngineLive(ds.Writer())
		// A writer that degrades on WAL failure keeps serving reads;
		// /healthz reports it so operators see the read-only (or
		// partially writable, for sharded stores) state.
		writeHealth = ds.Writer().Degraded
	} else {
		st, err := storage.Open(*graphPath, 0)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		e = core.NewEngineFromSource(st)
		if *shards > 1 {
			e.Opt.Partitioner = graph.NewPartitioner(*shards)
		}
	}
	e.Alg = core.Algorithm(*alg)
	e.Opt.Workers = core.EffectiveWorkers(*workers)
	e.Seed = *seed
	e.ConfigureCaches(*planEntries, *resultMB<<20)

	srv := serve.New(e, serve.Config{
		MaxInFlight:    *inflight,
		MaxQueue:       *queue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		WriteHealth:    writeHealth,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "egoserve: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "egoserve: %s — draining (up to %v)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "egoserve: drain incomplete: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "egoserve: drained")
	}
}

func fatal(err error) {
	msg := err.Error()
	if !strings.HasPrefix(msg, "egoserve: ") {
		msg = "egoserve: " + msg
	}
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
