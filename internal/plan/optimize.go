package plan

import (
	"fmt"

	"egocensus/internal/graph"
)

// Env carries the optimizer's inputs beyond the logical plan itself.
type Env struct {
	// Stats is the statistics snapshot of the target graph (required).
	Stats *graph.Stats
	// Forced pins the algorithm choice (the engine's \alg escape hatch);
	// empty selects cost-based optimization. Pair queries substitute
	// ND-PVOT for a forced ND-DIFF, which has no pairwise variant.
	Forced string
	// KMeansIters bounds PT-OPT clustering iterations (0 → paper's 10).
	KMeansIters int
}

// AggChoice records the optimizer's decision for one aggregate.
type AggChoice struct {
	// Algorithm is the chosen census algorithm name (core.Algorithm text).
	Algorithm string
	// Cost is the estimated cost of the choice in abstract units.
	Cost float64
	// Matches is the estimated global match-set size |M|.
	Matches float64
	// Autos is the automorphism divisor used in the |M| estimate.
	Autos int
	// Costs holds every candidate algorithm's estimate (for EXPLAIN).
	Costs map[string]float64
}

// Physical is an optimized plan: the logical tree annotated with
// statistics, selectivity, and per-aggregate algorithm choices.
type Physical struct {
	*Logical
	Stats *graph.Stats
	// Selectivity is the estimated WHERE retention rate; Focals the
	// resulting focal-node (or ordered-pair) count.
	Selectivity float64
	Focals      float64
	// NbrNodes / NbrEdges estimate the k-hop neighborhood reach.
	NbrNodes, NbrEdges float64
	// Choices has one entry per aggregate, in SELECT-list order.
	Choices []AggChoice
	// Batched marks a multi-aggregate census evaluated with one shared
	// BFS per focal node (the batched ND-PVOT driver) instead of
	// independent per-aggregate runs.
	Batched bool
	// TotalCost sums the chosen strategies' estimates.
	TotalCost float64
	// Forced echoes Env.Forced (after pairwise ND-DIFF substitution).
	Forced string

	// inputs holds each aggregate's cost-model input, kept so ForFocals
	// can re-price the plan on a resolved focal count.
	inputs []CostInput
}

// Algorithm returns the algorithm executed for aggregate i.
func (p *Physical) Algorithm(i int) string { return p.Choices[i].Algorithm }

// Optimize chooses the physical strategy for a logical plan: it estimates
// WHERE selectivity and per-pattern match-set sizes from the statistics
// snapshot, prices all six algorithms, and picks the cheapest (or the
// forced one). The logical tree is annotated in place (NodeScan gains the
// snapshot, FocalSelect its selectivity estimate) so EXPLAIN renders the
// optimized tree.
func Optimize(l *Logical, env Env) (*Physical, error) {
	s := env.Stats
	if s == nil {
		return nil, fmt.Errorf("plan: optimizer needs a statistics snapshot")
	}
	p := &Physical{
		Logical:     l,
		Stats:       s,
		Selectivity: WhereSelectivity(l.Query.Where, s),
		NbrNodes:    s.NeighborhoodNodes(l.K),
		NbrEdges:    s.NeighborhoodEdges(l.K),
		Forced:      env.Forced,
	}

	n := float64(s.Nodes)
	contain := 0.0
	if n > 0 {
		contain = p.NbrNodes / n
		if contain > 1 {
			contain = 1
		}
	}
	if l.Pair {
		p.Focals = p.Selectivity * n * n
		if l.Union {
			contain = clamp01(2*contain - contain*contain)
		} else {
			contain = contain * contain
		}
		if p.Forced == NDDiff {
			p.Forced = NDPvot
		}
	} else {
		p.Focals = p.Selectivity * n
	}

	p.inputs = make([]CostInput, len(l.Aggs))
	p.Choices = make([]AggChoice, len(l.Aggs))
	for i, agg := range l.Aggs {
		matches, _, autos := EstimateMatches(agg.Pattern, agg.Subpattern, s)
		posEdges := 0
		for _, e := range agg.Pattern.Edges() {
			if !e.Negated {
				posEdges++
			}
		}
		in := CostInput{
			Matches:      matches,
			Focals:       p.Focals,
			NbrNodes:     p.NbrNodes,
			NbrEdges:     p.NbrEdges,
			Contain:      contain,
			PatternEdges: posEdges,
			KMeansIters:  env.KMeansIters,
			Stats:        s,
		}
		if l.Pair {
			// A pair touches two neighborhoods; double the per-focal BFS work.
			in.NbrNodes *= 2
			in.NbrEdges *= 2
		}
		p.inputs[i] = in
		p.Choices[i] = AggChoice{Matches: matches, Autos: autos}
	}
	p.pick()

	// Annotate the logical tree for EXPLAIN.
	annotate(l.Root, s, p.Selectivity)
	return p, nil
}

// ForFocals re-picks the drivers for a resolved focal count n: the WHERE
// estimate Optimize priced is replaced by the count the focal-select
// stage actually produced. It returns a shallow copy with Choices,
// Batched and TotalCost re-picked and leaves p untouched, because a
// cached plan is shared by concurrent executions. Focals and Selectivity
// stay the estimates, so they can still be compared with the resolved
// count. Forced plans, pair plans (the pairwise focal stage needs the
// algorithm before it resolves pairs) and plans without a WHERE clause
// (the estimate is exact) are returned as they are.
func (p *Physical) ForFocals(n int) *Physical {
	if p.Forced != "" || p.Pair || p.Query.Where == nil {
		return p
	}
	q := *p
	q.inputs = make([]CostInput, len(p.inputs))
	for i, in := range p.inputs {
		in.Focals = float64(n)
		q.inputs[i] = in
	}
	q.Choices = append([]AggChoice(nil), p.Choices...)
	q.pick()
	return &q
}

// pick prices every allowed algorithm on p.inputs and chooses each
// aggregate's driver — the cheapest, or the forced one — then decides
// whether a multi-aggregate census runs batched. It is the one place a
// driver is chosen: Optimize calls it on the WHERE estimate, ForFocals on
// the resolved focal count. It overwrites p.Choices' decision fields,
// p.Batched and p.TotalCost, so callers pass a plan they own.
func (p *Physical) pick() {
	allowed := Algorithms
	if p.Pair {
		allowed = PairAlgorithms
	}
	for i, in := range p.inputs {
		choice := &p.Choices[i]
		choice.Costs = make(map[string]float64, len(allowed))
		for _, alg := range allowed {
			choice.Costs[alg] = in.Cost(alg)
		}
		if p.Forced != "" {
			choice.Algorithm = p.Forced
			choice.Cost = in.Cost(p.Forced)
		} else {
			choice.Algorithm, choice.Cost = in.Best(allowed)
		}
	}

	p.Batched, p.TotalCost = false, 0
	if p.Pair || len(p.inputs) < 2 {
		for i := range p.Choices {
			p.TotalCost += p.Choices[i].Cost
		}
		return
	}
	// Multi-aggregate censuses can batch: one BFS distance plane per focal
	// node shared by every aggregate's containment probes (the CountMany
	// driver, which is ND-PVOT-shaped). Compare against independent runs.
	batched := p.inputs[0].Focals * p.inputs[0].NbrNodes // the shared BFS, paid once
	perAgg := 0.0
	for i, in := range p.inputs {
		batched += in.commonCost() + in.Focals*in.Matches*in.Contain*cContain
		perAgg += p.Choices[i].Cost
	}
	if p.Forced == NDPvot || (p.Forced == "" && batched < perAgg) {
		p.Batched = true
		for i := range p.Choices {
			p.Choices[i].Algorithm = NDPvot
		}
		p.TotalCost = batched
	} else {
		p.TotalCost = perAgg
	}
}

func annotate(n Node, s *graph.Stats, sel float64) {
	switch x := n.(type) {
	case *NodeScan:
		x.Stats = s
	case *FocalSelect:
		x.Selectivity = sel
	}
	for _, c := range n.Children() {
		annotate(c, s, sel)
	}
}
