package plan

import (
	"testing"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
)

// goldenGraph is small and hand-built so every statistic in the golden
// plans below is exact and stable.
func goldenGraph() *graph.Graph {
	g := graph.New(false)
	g.AddNodes(6)
	edges := [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	for n := 0; n < 3; n++ {
		g.SetLabel(graph.NodeID(n), "core")
	}
	return g
}

func optimizeScript(t *testing.T, src string, env Env) *Physical {
	t.Helper()
	script, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Build(script.Queries()[0], script.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Optimize(l, env)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExplainGoldenSelective(t *testing.T) {
	env := Env{Stats: graph.ComputeStats(goldenGraph())}
	p := optimizeScript(t, `
PATTERN lt { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='core']; }
SELECT ID, COUNTP(lt, SUBGRAPH(ID, 2)) FROM nodes WHERE RND() < 0.5 ORDER BY COUNT DESC LIMIT 3`, env)
	want := `Plan [cost-based, est cost 18.4, est focal 3]
OrderLimit [ORDER BY COUNT DESC LIMIT 3]
└─ Census [1 aggregate(s), SUBGRAPH(ID, 2)] (PT-BAS est cost 18.4)
   ├─ PatternDef [lt: 3 nodes (1 labeled), 3 edges (0 negated), 0 predicates, pivot ?A ecc 1]
   └─ FocalSelect [WHERE RND()<'0.5'] over nodes (est selectivity 0.5)
      └─ NodeScan [6 nodes, 7 edges, 1 labels, directed=false]
candidates for lt (est |M| 0.729, 2 automorphism(s)):
  PT-BAS   18.4  <- chosen
  PT-OPT   24.3
  PT-RND   31.3
  ND-DIFF  32.8
  ND-PVOT  35.5
  ND-BAS   51.8
`
	if got := p.Explain(); got != want {
		t.Fatalf("golden selective mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExplainGoldenNonSelective(t *testing.T) {
	env := Env{Stats: graph.ComputeStats(goldenGraph())}
	p := optimizeScript(t, `
PATTERN e1 { ?A-?B; }
SELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes`, env)
	want := `Plan [cost-based, est cost 30.2, est focal 6]
Census [1 aggregate(s), SUBGRAPH(ID, 1)] (PT-BAS est cost 30.2)
├─ PatternDef [e1: 2 nodes (0 labeled), 1 edges (0 negated), 0 predicates, pivot ?A ecc 1]
└─ NodeScan [6 nodes, 7 edges, 1 labels, directed=false]
candidates for e1 (est |M| 7, 2 automorphism(s)):
  PT-BAS   30.2  <- chosen
  ND-DIFF  31.9
  PT-OPT   31.9
  PT-RND   38.1
  ND-PVOT  46.8
  ND-BAS   81.7
`
	if got := p.Explain(); got != want {
		t.Fatalf("golden non-selective mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExplainGoldenPairForced(t *testing.T) {
	env := Env{Stats: graph.ComputeStats(goldenGraph()), Forced: PTOpt, KMeansIters: 5}
	p := optimizeScript(t, `
PATTERN e1 { ?A-?B; }
SELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-UNION(n1.ID, n2.ID, 1))
FROM nodes AS n1, nodes AS n2`, env)
	want := `Plan [forced PT-OPT, est cost 38.4, est focal 36]
PairCensus [SUBGRAPH-UNION(n1, n2, 1)] (PT-OPT, est cost 38.4)
├─ PatternDef [e1: 2 nodes (0 labeled), 1 edges (0 negated), 0 predicates, pivot ?A ecc 1]
└─ NodeScan [6 nodes, 7 edges, 1 labels, directed=false]
candidates for e1 (est |M| 7, 2 automorphism(s)):
  PT-BAS   35.9
  PT-OPT   38.4  <- chosen
  PT-RND   51.7
  ND-PVOT  285
  ND-BAS   863
`
	if got := p.Explain(); got != want {
		t.Fatalf("golden pair mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
