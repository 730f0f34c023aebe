// Command perfbench is egocensus's standing benchmark. It drives one of
// three workloads through the engine's Go API and its HTTP handler,
// checks every answer it can, and prints the workload's metrics; the
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured
// untraced. With --trace 1 the workload runs twice, untraced and then
// traced, and the metrics are the per-layer ones from the traced pass
// plus the tracing overhead between the two. Metric names and units are
// listed in BENCHMARK.json; perfbench/DESIGN.md says why each workload
// exists and which end-to-end metric each layer metric should move.
//
// Run it from the repository root through the wrapper that builds it:
//
//	python3 perfbench/run.py --workload serve-ingest --seed 1 --seconds 30 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	// nodes is the base graph size; the self-test shrinks it.
	nodes int
	// work holds the run's stores; traces is where span files go.
	work, traces string
	// probeCap bounds each forced-algorithm execution of the plan probe.
	probeCap time.Duration
}

// outcome is what one pass of a workload measured and checked.
type outcome struct {
	e2e    map[string]float64
	layer  map[string]float64
	report []reportLine
	// attempted counts operations (queries, publishes, reopens) and the
	// answers checked; failed counts errors, refusals and wrong answers.
	attempted, failed int
	failures          []string
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) note(name string, value float64, unit string) {
	o.report = append(o.report, reportLine{name, value, unit})
}

// fail records a failed operation or wrong answer.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports. Every workload
// reports each one; latency and throughput refer to the workload's
// foreground operation (see DESIGN.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// algNames are the six census algorithms in core.Algorithms order.
var algNames = []string{"ND-BAS", "ND-DIFF", "ND-PVOT", "PT-BAS", "PT-RND", "PT-OPT"}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// never calls reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"serve.request_ms", "ms"},
		{"serve.self_ms", "ms"},
		{"serve.rejected", "ratio"},
		{"lang.parse_ms", "ms"},
		{"plan.plan_ms", "ms"},
		{"plan.cache_hit_ratio", "ratio"},
		{"plan.stats_ms", "ms"},
		{"plan.match_qerror", "ratio"},
		{"plan.focal_qerror", "ratio"},
		{"plan.regret", "ratio"},
		{"core.focal_ms", "ms"},
	}
	for _, a := range algNames {
		defs = append(defs, metricDef{"core.census_ms." + a, "ms"})
	}
	for _, a := range algNames {
		defs = append(defs, metricDef{"core.driver_ms." + a, "ms"})
	}
	return append(defs,
		metricDef{"core.render_ms", "ms"},
		metricDef{"core.result_hit_ratio", "ratio"},
		metricDef{"core.match_set_size", "count"},
		metricDef{"core.cpu_util", "ratio"},
		metricDef{"match.cn_ms", "ms"},
		metricDef{"match.matches", "count"},
		metricDef{"graph.publish_p50_ms", "ms"},
		metricDef{"graph.publish_p99_ms", "ms"},
		metricDef{"graph.publish_self_ms", "ms"},
		metricDef{"graph.overlay_rows", "count"},
		metricDef{"graph.csr_compactions", "count"},
		metricDef{"storage.fsync_p50_ms", "ms"},
		metricDef{"storage.fsync_p99_ms", "ms"},
		metricDef{"storage.fsyncs_per_publish", "ratio"},
		metricDef{"storage.wal_bytes_per_edge", "B/edge"},
		metricDef{"storage.compactions", "count"},
		metricDef{"storage.compaction_ms", "ms"},
		metricDef{"storage.compaction_bytes", "B"},
		metricDef{"storage.replay_ms", "ms"},
		metricDef{"storage.replay_records", "count"},
		metricDef{"storage.hydrate_ms", "ms"},
		metricDef{"trace.overhead_pct", "%"},
	)
}()

var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"serve-ingest":   runServeIngest,
	"census-batch":   runCensusBatch,
	"ingest-durable": runIngestDurable,
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "serve-ingest, census-batch or ingest-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: query parameters and ingest batches derive from it")
	flag.Float64Var(&seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: report per-layer metrics from a traced pass")
	flag.Parse()
	if _, ok := workloads[cfg.workload]; !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.nodes = 20000
	cfg.probeCap = time.Second
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	build := filepath.Join(root, ".bench_build")
	cfg.work = filepath.Join(build, fmt.Sprintf("work-%d", os.Getpid()))
	cfg.traces = filepath.Join(build, "traces")

	for _, kv := range runMetadata(cfg, root) {
		fmt.Printf("# %s=%s\n", kv[0], kv[1])
	}
	res, err := run(cfg)
	os.RemoveAll(cfg.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(res)
	line, err := resultLine(cfg, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// run executes the configured workload: once untraced, and with tracing
// once more traced, merging what the trace pass adds.
func run(cfg config) (*outcome, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	fn := workloads[cfg.workload]
	plain, err := fn(cfg, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		plain.e2e["peak_rss_mb"] = peakRSSMB()
		return plain, nil
	}
	tr := newTracer()
	traced, err := fn(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(cfg.traces, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	base, with := plain.e2e["latency_p50_ms"], traced.e2e["latency_p50_ms"]
	traced.layer["trace.overhead_pct"] = 100 * ratio(with-base, base)
	traced.note("untraced_latency_p50_ms", base, "ms")
	traced.note("traced_latency_p50_ms", with, "ms")
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.failures = append(plain.failures, traced.failures...)
	traced.e2e["peak_rss_mb"] = peakRSSMB()
	return traced, nil
}

func printReport(res *outcome) {
	for _, d := range endToEnd {
		if v, ok := res.e2e[d.name]; ok {
			fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	for _, r := range res.report {
		fmt.Printf("%-34s %14.4f %s\n", r.name, r.value, r.unit)
	}
	if len(res.layer) > 0 {
		for _, d := range perLayer {
			fmt.Printf("%-34s %14.4f %s\n", d.name, res.layer[d.name], d.unit)
		}
	}
	fmt.Printf("%-34s %14.6f ratio (%d failed of %d attempted)\n", "error_rate",
		ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Println("# failure:", f)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final JSON object: the end-to-end metrics, or
// with tracing the per-layer ones.
func resultLine(cfg config, res *outcome) (string, error) {
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("workload %s did not measure %s", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", d.name, v)
		}
		metrics[d.name] = metricValue{v, d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	return string(b), err
}

// runMetadata is the run's provenance: machine, toolchain, seed and the
// source it was built from.
func runMetadata(cfg config, root string) [][2]string {
	return [][2]string{
		{"workload", cfg.workload},
		{"seed", fmt.Sprint(cfg.seed)},
		{"seconds", cfg.window.String()},
		{"trace", fmt.Sprint(cfg.trace)},
		{"num_cpu", fmt.Sprint(runtime.NumCPU())},
		{"gomaxprocs", fmt.Sprint(gomaxprocs())},
		{"go_version", runtime.Version()},
		{"commit", gitCommit(root)},
		{"source_sha256", sourceDigest(root)},
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// gitCommit resolves HEAD when the tree is a git checkout ("none"
// otherwise: the benchmark also runs from exported trees).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the tree, so a
// report identifies the code it measured even without git.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
