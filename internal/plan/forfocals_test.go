package plan

import (
	"reflect"
	"testing"

	"egocensus/internal/gen"
	"egocensus/internal/graph"
)

// servingStats is the statistics snapshot of a preferential-attachment
// graph shaped like a range-census serving workload: 20,000 nodes, five
// edges per node, four labels.
func servingStats() *graph.Stats {
	g := gen.PreferentialAttachment(20000, 5, 1)
	gen.AssignLabels(g, 4, 1)
	return graph.ComputeStats(g)
}

const (
	clq3Def = `PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='l0']; [?B.LABEL='l1']; [?C.LABEL='l2']; }`
	triDef  = `PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }`
	e1Def   = `PATTERN e1 { ?A-?B; }`
)

// clonePhysical deep-copies the fields ForFocals must leave untouched.
func clonePhysical(p *Physical) Physical {
	c := *p
	c.Choices = make([]AggChoice, len(p.Choices))
	for i, ch := range p.Choices {
		ch.Costs = make(map[string]float64, len(ch.Costs))
		for alg, cost := range p.Choices[i].Costs {
			ch.Costs[alg] = cost
		}
		c.Choices[i] = ch
	}
	c.inputs = append([]CostInput(nil), p.inputs...)
	return c
}

func TestForFocalsRepicksRangeCensus(t *testing.T) {
	env := Env{Stats: servingStats()}
	for _, tc := range []struct {
		name, src string
		focals    int
	}{
		{"clq3-k1", clq3Def + "\nSELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= $lo AND ID < $hi", 100},
		{"tri-k2", triDef + "\nSELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE ID >= $lo AND ID < $hi", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := optimizeScript(t, tc.src, env)
			// The range guess (1/3)² prices thousands of focal nodes, which
			// favors paying one global matching pass.
			if p.Focals < 2000 || p.Algorithm(0) == NDBas {
				t.Fatalf("estimate: focals %v, chose %s; want a global-matching driver", p.Focals, p.Algorithm(0))
			}
			before := clonePhysical(p)
			q := p.ForFocals(tc.focals)
			if q == p {
				t.Fatal("ForFocals returned the cached plan instead of a copy")
			}
			if q.Algorithm(0) != NDBas {
				t.Fatalf("ForFocals(%d) chose %s, want %s", tc.focals, q.Algorithm(0), NDBas)
			}
			if want := q.Choices[0].Costs[NDBas]; q.TotalCost != want {
				t.Fatalf("TotalCost = %v, want the ND-BAS cost %v", q.TotalCost, want)
			}
			if q.Focals != p.Focals || q.Selectivity != p.Selectivity {
				t.Fatalf("ForFocals changed the estimates: focals %v→%v, selectivity %v→%v",
					p.Focals, q.Focals, p.Selectivity, q.Selectivity)
			}
			if !reflect.DeepEqual(*p, before) {
				t.Fatal("ForFocals mutated the original plan")
			}
		})
	}
}

func TestForFocalsAtEstimateReproducesOptimize(t *testing.T) {
	// RND() < 0.5 over the six-node golden graph estimates exactly three
	// focal nodes; re-picking on that count must reproduce Optimize,
	// single- and multi-aggregate alike.
	env := Env{Stats: graph.ComputeStats(goldenGraph())}
	for _, src := range []string{
		e1Def + "\nSELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)) FROM nodes WHERE RND() < 0.5",
		e1Def + "\n" + triDef + "\nSELECT ID, COUNTP(e1, SUBGRAPH(ID, 1)), COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE RND() < 0.5",
	} {
		p := optimizeScript(t, src, env)
		if p.Focals != 3 {
			t.Fatalf("estimated focals = %v, want 3", p.Focals)
		}
		if q := p.ForFocals(3); !reflect.DeepEqual(*q, *p) {
			t.Fatalf("ForFocals(3) differs from Optimize:\n%s\nvs\n%s", q.Explain(), p.Explain())
		}
	}
}

func TestForFocalsPassesThrough(t *testing.T) {
	s := servingStats()
	rangeSrc := clq3Def + "\nSELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= $lo AND ID < $hi"
	for _, tc := range []struct {
		name string
		src  string
		env  Env
	}{
		{"forced", rangeSrc, Env{Stats: s, Forced: PTOpt}},
		{"pair", e1Def + "\nSELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) FROM nodes AS n1, nodes AS n2 WHERE n1.ID < 50", Env{Stats: s}},
		{"no WHERE", clq3Def + "\nSELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes", Env{Stats: s}},
	} {
		p := optimizeScript(t, tc.src, tc.env)
		if q := p.ForFocals(1); q != p {
			t.Errorf("%s: ForFocals returned a re-picked plan (%s), want the plan as it is", tc.name, q.Algorithm(0))
		}
	}
}

// TestPaperCensusesPlanPTBas pins the plans of the paper's Fig 4(c), 4(d)
// and 4(h) censuses on the 20,000-node graph: all three are whole-graph
// (or pairwise) censuses, so re-picking never applies and the estimate
// alone decides — PT-BAS in each case.
func TestPaperCensusesPlanPTBas(t *testing.T) {
	env := Env{Stats: servingStats()}
	for name, src := range map[string]string{
		"fig4c": triDef + "\nSELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes",
		"fig4d": clq3Def + "\nSELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes",
		"fig4h": e1Def + "\nSELECT n1.ID, n2.ID, COUNTP(e1, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) FROM nodes AS n1, nodes AS n2 WHERE n1.ID < 50",
	} {
		p := optimizeScript(t, src, env)
		if p.Algorithm(0) != PTBas {
			t.Errorf("%s planned %s, want %s", name, p.Algorithm(0), PTBas)
		}
		if q := p.ForFocals(50); q != p {
			t.Errorf("%s: ForFocals re-picked a plan that has nothing to re-pick", name)
		}
	}
}
