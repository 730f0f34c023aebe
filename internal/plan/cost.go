package plan

import (
	"math"
	"strconv"
	"strings"

	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/pattern"
)

// Algorithm names, mirrored from internal/core as plain strings (core
// imports plan, so plan cannot import core; core.Algorithm is a string
// type and converts directly).
const (
	NDBas  = "ND-BAS"
	NDDiff = "ND-DIFF"
	NDPvot = "ND-PVOT"
	PTBas  = "PT-BAS"
	PTRnd  = "PT-RND"
	PTOpt  = "PT-OPT"
)

// Algorithms lists the census algorithms in presentation order.
var Algorithms = []string{NDBas, NDDiff, NDPvot, PTBas, PTRnd, PTOpt}

// PairAlgorithms lists the algorithms with a pairwise variant (ND-DIFF's
// DFS-order sharing has none; the engine substitutes ND-PVOT).
var PairAlgorithms = []string{NDBas, NDPvot, PTBas, PTRnd, PTOpt}

// Cost-unit constants, calibrated so the model reproduces the measured
// ranking of BENCH_1.json's fig4c sweep (unlabeled triangle census,
// n=1000 preferential-attachment, k=2): ND-PVOT < PT-BAS < ND-DIFF <<
// PT-OPT < PT-RND << ND-BAS. A unit is roughly one adjacency-array touch.
//
// Re-checked after the bitset/hub-bitmap CN kernels and the zero-alloc
// counting runs landed: the speedup is close to uniform across drivers
// (the shared global matching pass and ND-BAS's in-place masked counting
// both ride the same kernels), so the measured fig4c order is unchanged
// and the constants still rank correctly. PT-RND and PT-OPT now measure
// within ~2% of each other on this workload — effectively a tie, in
// either order — and the model's tiny PT-OPT preference remains a valid
// tiebreak.
const (
	// cMatchEdge is the per-edge cost of a candidate check in CN matching.
	cMatchEdge = 1.5
	// cContain is the per-match cost of probing anchor distances against a
	// focal node's BFS plane (ND-PVOT's counting step).
	cContain = 0.1
	// cPTVisit is the per-half-edge cost of a PT-BAS reverse BFS step,
	// discounted because a match's k-hop ball is walked once for all its
	// anchors, but dearer per edge than ND-PVOT's flat distance plane.
	cPTVisit = 0.105
	// cCluster is the per-match×cluster×iteration cost of a K-means
	// distance evaluation (PT-OPT's clustering step; K = |M|/4 makes this
	// quadratic in |M|).
	cCluster = 0.005
	// ndDiffReuse is the fraction of ND-BAS work ND-DIFF retains when the
	// whole node set is focal and DFS-order delta maintenance applies.
	ndDiffReuse = 0.09
	// clusterOverlap discounts the cluster-BFS term of PT-OPT: members of
	// a K-means cluster share most of their neighborhood expansion.
	clusterOverlap = 0.5
	// defaultEqSel / defaultNeSel / defaultRangeSel are the textbook
	// selectivity guesses for predicates over attributes the statistics
	// snapshot knows nothing about.
	defaultEqSel    = 0.1
	defaultNeSel    = 0.9
	defaultRangeSel = 1.0 / 3
)

// CostInput gathers the estimated quantities one aggregate's cost
// formulas share. Build it with (*Physical fields set by) Optimize or
// directly in tests.
type CostInput struct {
	// Matches is the estimated global match-set size |M|.
	Matches float64
	// Focals is the estimated number of focal nodes (or ordered pairs)
	// after the WHERE clause.
	Focals float64
	// NbrNodes / NbrEdges estimate the k-hop neighborhood size and the
	// half-edges a BFS over it scans.
	NbrNodes, NbrEdges float64
	// Contain is the probability that a given match lies inside a given
	// focal neighborhood.
	Contain float64
	// PatternEdges counts the pattern's positive edges.
	PatternEdges int
	// KMeansIters bounds PT-OPT's clustering iterations (paper default 10).
	KMeansIters int
	// Stats is the underlying snapshot (degree sum, node count).
	Stats *graph.Stats
}

// Clusters is the K-means cluster count the PT drivers default to:
// |M|/4, at least 1.
func (c CostInput) Clusters() float64 {
	k := c.Matches / 4
	if k < 1 {
		k = 1
	}
	return k
}

func (c CostInput) iters() float64 {
	if c.KMeansIters <= 0 {
		return 10
	}
	return float64(c.KMeansIters)
}

// commonCost is the work every match-materializing algorithm pays first:
// a global CN matching pass (degree-sum scan plus per-match edge joins).
func (c CostInput) commonCost() float64 {
	return c.Stats.FallingMoment(1) + c.Matches*float64(c.PatternEdges)*cMatchEdge
}

// Cost estimates the work of running alg on this input, in abstract
// adjacency-touch units. Unknown names cost +Inf.
func (c CostInput) Cost(alg string) float64 {
	local := c.Matches * c.Contain // matches inside one focal neighborhood
	switch alg {
	case NDBas:
		// Per focal node: extract the ego subgraph (scan its half-edges),
		// then re-match locally — work proportional to the local matches.
		return c.Focals * (c.NbrEdges + local*float64(c.PatternEdges)*cMatchEdge)
	case NDDiff:
		// Global matching (the driver materializes M like ND-PVOT), then
		// delta maintenance along a DFS order reuses neighbor censuses;
		// the advantage decays as the focal set thins out.
		frac := 0.0
		if c.Stats.Nodes > 0 {
			frac = c.Focals / float64(c.Stats.Nodes)
			if frac > 1 {
				frac = 1
			}
		}
		reuse := math.Pow(ndDiffReuse, frac)
		return c.commonCost() + reuse*c.Cost(NDBas)
	case NDPvot:
		// Global matching, then per focal node one BFS distance plane plus
		// an anchor-distance probe per match.
		return c.commonCost() + c.Focals*c.NbrNodes + c.Focals*local*cContain
	case PTBas:
		// Global matching, then per match a reverse BFS of radius k
		// crediting every focal node it reaches.
		return c.commonCost() + c.Matches*c.NbrEdges*cPTVisit
	case PTRnd:
		// Random clustering: one BFS per cluster, no sharing within it.
		return c.commonCost() + c.Clusters()*c.NbrEdges
	case PTOpt:
		// K-means clustering (quadratic in |M| through K=|M|/4), then one
		// partially-shared BFS per cluster.
		return c.commonCost() +
			c.Matches*c.Clusters()*c.iters()*cCluster +
			c.Clusters()*c.NbrEdges*clusterOverlap
	}
	return math.Inf(1)
}

// Best returns the cheapest of the allowed algorithms and its cost.
func (c CostInput) Best(allowed []string) (string, float64) {
	best, bestCost := "", math.Inf(1)
	for _, alg := range allowed {
		if cost := c.Cost(alg); cost < bestCost {
			best, bestCost = alg, cost
		}
	}
	return best, bestCost
}

// EstimateMatches predicts the global match-set size |M| for a pattern
// under the configuration model: the expected number of label- and
// predicate-consistent homomorphic images, divided by the number of
// counting-equivalent automorphisms. sub names the designated subpattern
// for COUNTSP semantics ("" for COUNTP): automorphisms must then fix the
// subpattern pointwise, because re-assignments of the subpattern image
// count as distinct matches (Table I row 4).
func EstimateMatches(p *pattern.Pattern, sub string, s *graph.Stats) (matches, homs float64, autos int) {
	posEdges := 0
	for _, e := range p.Edges() {
		if !e.Negated {
			posEdges++
		}
	}
	// Configuration model: Π_i M_{δ_i} / (Σd)^e, where M_j is the j-th
	// falling-factorial degree moment — the number of ways to pick j
	// distinct half-edge stubs at one node — and each pattern edge consumes
	// one stub pairing with probability ≈ 1/Σd. Label constraints thin each
	// node's candidate pool by the label frequency.
	homs = 1
	for i := 0; i < p.NumNodes(); i++ {
		homs *= s.FallingMoment(len(p.PositiveNeighbors(i)))
		if l := p.Node(i).Label; l != "" {
			homs *= s.LabelFreq(l)
		}
	}
	degSum := s.FallingMoment(1)
	for j := 0; j < posEdges; j++ {
		if degSum == 0 {
			homs = 0
			break
		}
		homs /= degSum
	}
	for _, pr := range p.Predicates() {
		homs *= PredicateSelectivity(pr, s)
	}
	var fixed []int
	if sub != "" {
		fixed, _ = p.Subpattern(sub)
	}
	autos = Automorphisms(p, fixed)
	return homs / float64(autos), homs, autos
}

// Automorphisms counts the permutations of pattern nodes that preserve
// labels and the full edge structure (positive and negated, with
// orientation) while fixing every node in fixed pointwise. Patterns are
// tiny, so plain enumeration suffices; above 8 nodes the count degrades
// to 1 (a conservative over-estimate of |M|).
func Automorphisms(p *pattern.Pattern, fixed []int) int {
	n := p.NumNodes()
	if n == 0 || n > 8 {
		return 1
	}
	edges := map[[3]int]bool{}
	for _, e := range p.Edges() {
		edges[edgeKey(e.From, e.To, e.Directed, e.Negated)] = true
	}
	isFixed := make([]bool, n)
	for _, i := range fixed {
		isFixed[i] = true
	}
	perm := make([]int, n)
	used := make([]bool, n)
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, e := range p.Edges() {
				if !edges[edgeKey(perm[e.From], perm[e.To], e.Directed, e.Negated)] {
					return
				}
			}
			count++
			return
		}
		if isFixed[i] {
			if used[i] {
				return
			}
			perm[i], used[i] = i, true
			rec(i + 1)
			used[i] = false
			return
		}
		for j := 0; j < n; j++ {
			if used[j] || isFixed[j] && j != i || p.Node(j).Label != p.Node(i).Label {
				continue
			}
			perm[i], used[j] = j, true
			rec(i + 1)
			used[j] = false
		}
	}
	rec(0)
	if count < 1 {
		return 1
	}
	return count
}

func edgeKey(from, to int, directed, negated bool) [3]int {
	kind := 0
	if directed {
		kind = 1
	}
	if negated {
		kind += 2
	}
	if !directed && from > to {
		from, to = to, from
	}
	return [3]int{from, to, kind}
}

// PredicateSelectivity estimates the fraction of candidate matches a
// pattern predicate retains. LABEL comparisons use the snapshot's label
// frequencies; other attributes fall back to textbook constants.
func PredicateSelectivity(pr pattern.Predicate, s *graph.Stats) float64 {
	eq := predicateEqSel(pr, s)
	switch pr.Op {
	case pattern.OpEq:
		return eq
	case pattern.OpNe:
		return clamp01(1 - eq)
	default:
		return defaultRangeSel
	}
}

func predicateEqSel(pr pattern.Predicate, s *graph.Stats) float64 {
	lLabel := isLabelAttr(pr.L)
	rLabel := isLabelAttr(pr.R)
	switch {
	case lLabel && rLabel:
		return s.LabelMatchProb()
	case lLabel && isConstOperand(pr.R):
		return s.LabelFreq(pr.R.Const)
	case rLabel && isConstOperand(pr.L):
		return s.LabelFreq(pr.L.Const)
	default:
		return defaultEqSel
	}
}

func isLabelAttr(o pattern.Operand) bool {
	return o.Node >= 0 && strings.EqualFold(o.Attr, graph.LabelAttr)
}

func isConstOperand(o pattern.Operand) bool {
	return o.Node < 0 && o.EdgeFrom < 0
}

// WhereSelectivity estimates the fraction of focal candidates a WHERE
// clause retains: AND multiplies, OR uses inclusion-exclusion, NOT
// complements, RND()<c samples at rate c, and comparisons use label
// frequencies where the snapshot knows them.
func WhereSelectivity(e lang.Expr, s *graph.Stats) float64 {
	if e == nil {
		return 1
	}
	switch x := e.(type) {
	case *lang.BoolExpr:
		l, r := WhereSelectivity(x.L, s), WhereSelectivity(x.R, s)
		if x.Op == "AND" {
			return l * r
		}
		return clamp01(l + r - l*r)
	case *lang.NotExpr:
		return clamp01(1 - WhereSelectivity(x.E, s))
	case *lang.CmpExpr:
		return cmpSelectivity(x, s)
	}
	return 1
}

func cmpSelectivity(x *lang.CmpExpr, s *graph.Stats) float64 {
	if _, ok := x.L.(lang.RndOperand); ok {
		return rndSelectivity(x.Op, x.R, false)
	}
	if _, ok := x.R.(lang.RndOperand); ok {
		return rndSelectivity(x.Op, x.L, true)
	}
	eq := whereEqSel(x, s)
	switch x.Op {
	case pattern.OpEq:
		return eq
	case pattern.OpNe:
		return clamp01(1 - eq)
	default:
		return defaultRangeSel
	}
}

func whereEqSel(x *lang.CmpExpr, s *graph.Stats) float64 {
	lc, lCol := x.L.(lang.ColOperand)
	rc, rCol := x.R.(lang.ColOperand)
	lLabel := lCol && strings.EqualFold(lc.Ref.Name, graph.LabelAttr)
	rLabel := rCol && strings.EqualFold(rc.Ref.Name, graph.LabelAttr)
	switch {
	case lLabel && rLabel:
		return s.LabelMatchProb()
	case lLabel:
		if lit, ok := x.R.(lang.LitOperand); ok {
			return s.LabelFreq(lit.Value)
		}
	case rLabel:
		if lit, ok := x.L.(lang.LitOperand); ok {
			return s.LabelFreq(lit.Value)
		}
	}
	return defaultEqSel
}

// rndSelectivity handles RND() op X (mirrored=false) or X op RND()
// (mirrored=true) where X is a numeric literal sampling rate.
func rndSelectivity(op pattern.CmpOp, other lang.Operand, mirrored bool) float64 {
	lit, ok := other.(lang.LitOperand)
	if !ok {
		return 0.5
	}
	c, err := strconv.ParseFloat(lit.Value, 64)
	if err != nil {
		return 0.5
	}
	c = clamp01(c)
	if mirrored {
		// 'c' op RND(): flip the inequality direction.
		switch op {
		case pattern.OpLt, pattern.OpLe:
			return clamp01(1 - c)
		case pattern.OpGt, pattern.OpGe:
			return c
		}
	} else {
		switch op {
		case pattern.OpLt, pattern.OpLe:
			return c
		case pattern.OpGt, pattern.OpGe:
			return clamp01(1 - c)
		}
	}
	switch op {
	case pattern.OpEq:
		return 0
	default: // !=
		return 1
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
