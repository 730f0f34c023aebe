package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

// graphSeed generates the base graph. The graph is the benchmark's data
// set and the same for every run seed: a census costs what the graph
// holds (triangles, hubs near a small ID range), so a graph per seed
// makes each run's cost a draw of its own. The run seed drives the
// operation streams: query ranges and ingest batches.
const graphSeed = 1

// baseGraph is every workload's starting graph: a preferential-attachment
// graph with five edges per node (the paper's density) and four labels.
func baseGraph(cfg config) *graph.Graph {
	g := gen.PreferentialAttachment(cfg.nodes, 5, graphSeed)
	gen.AssignLabels(g, 4, graphSeed)
	return g
}

// Pattern texts shared by the workloads. Fig 4(c)/(d) of the paper: the
// unlabeled and the l0/l1/l2-labeled triangle.
const (
	triPattern  = `PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }`
	clq3Pattern = `PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='l0']; [?B.LABEL='l1']; [?C.LABEL='l2']; }`
	edgePattern = `PATTERN e1 { ?A-?B; }`
)

// parsePattern compiles one PATTERN text with the language front end.
func parsePattern(text, name string) (*pattern.Pattern, error) {
	s, err := lang.Parse(text)
	if err != nil {
		return nil, err
	}
	p, ok := s.Patterns[name]
	if !ok {
		return nil, fmt.Errorf("pattern %s not defined by %q", name, text)
	}
	return p, nil
}

// engineOptions applies the benchmark's execution settings: one census
// worker per GOMAXPROCS.
func engineOptions(e *core.Engine) {
	e.Opt.Workers = gomaxprocs()
}

// tableDigest hashes a table's rendered rows independent of row order.
func tableDigest(rows [][]string) uint64 {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = strings.Join(r, "\x1f")
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// degreeDigest fingerprints a graph's shape: node and edge counts plus
// every node's degree, label and the score attribute ingest-durable sets.
func degreeDigest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d\n", g.NumNodes(), g.NumEdges())
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		score, _ := g.NodeAttr(n, "score")
		fmt.Fprintf(h, "%d:%s:%s\n", g.Degree(n), g.LabelString(n), score)
	}
	return h.Sum64()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1).
// Its points come from a golden-ratio (Weyl) sequence with a seeded
// start rather than from independent draws: any m consecutive draws give
// every rank its Zipf share to within about one draw, so the mix of
// cheap and costly ranks a run sees does not swing with the seed or
// with how many requests the run completes.
type zipf struct {
	cum []float64
	u   float64
}

func newZipf(n int, start float64) *zipf {
	z := &zipf{cum: make([]float64, n), u: start}
	total := 0.0
	for i := range z.cum {
		total += 1 / float64(i+1)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	z.u = math.Mod(z.u+0.6180339887498949, 1)
	return min(sort.SearchFloat64s(z.cum, z.u), len(z.cum)-1)
}

// storeDir returns a fresh directory for one store under the run's work
// directory.
func storeDir(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// stageEdges stages count random edges between distinct existing nodes.
func stageEdges(w *graph.ShardedWriter, rng *rand.Rand, nodes, count int) {
	for i := 0; i < count; i++ {
		a := rng.Intn(nodes)
		b := rng.Intn(nodes - 1)
		if b >= a {
			b++
		}
		w.AddEdge(graph.NodeID(a), graph.NodeID(b))
	}
}
