package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkFile mirrors the metric lists of the repository's
// BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestWorkloadsEmitEveryMetric runs each workload briefly on a small
// graph, untraced and traced, and checks that the result line carries
// every metric BENCHMARK.json names, with its unit, and that every
// answer checked out.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			wl, trace := wl.Name, trace
			t.Run(wl+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				if _, ok := workloads[wl]; !ok {
					t.Fatalf("no workload %q", wl)
				}
				dir := t.TempDir()
				cfg := config{workload: wl, seed: 3, window: time.Second, trace: trace, nodes: 2000,
					work: filepath.Join(dir, "work"), traces: filepath.Join(dir, "traces"), probeCap: time.Second}
				if testing.Short() {
					cfg.window = 300 * time.Millisecond
				}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				line, err := resultLine(cfg, res)
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &got); err != nil {
					t.Fatal(err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", got.Correct, got.Failed, got.Attempted, res.failures)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(got.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(got.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := got.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					case !trace && v.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if trace {
					if _, err := os.Stat(filepath.Join(cfg.traces, wl+"-seed3.json")); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}
