// Package egocensus is a Go implementation of ego-centric graph pattern
// census queries (Moustafa, Deshpande, Getoor — "Ego-centric Graph Pattern
// Census", ICDE 2012): for every focal node (or pair of nodes) in a graph,
// count the matches of a structural pattern inside the node's k-hop
// neighborhood (or the intersection/union of two nodes' neighborhoods).
//
// The package is a curated facade over the implementation packages:
//
//   - property graphs and neighborhood traversal (internal/graph),
//   - the declarative query language — PATTERN definitions and SELECT
//     statements with COUNTP/COUNTSP aggregates (internal/lang),
//   - the CN subgraph pattern matching algorithm and a GraphQL-style
//     baseline (internal/match),
//   - the census evaluation algorithms ND-BAS, ND-DIFF, ND-PVOT, PT-BAS,
//     PT-RND and PT-OPT (internal/core),
//   - synthetic workload generators (internal/gen),
//   - a disk-resident binary graph store (internal/storage),
//   - the link-prediction harness of the paper's DBLP experiment
//     (internal/linkpred).
//
// # Quick start
//
//	g := egocensus.PreferentialAttachment(10000, 5, 1)
//	e := egocensus.NewEngine(g)
//	tables, err := e.Execute(`
//	    PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; }
//	    SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes`)
package egocensus

import (
	"context"

	"egocensus/internal/centers"
	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/lang"
	"egocensus/internal/linkpred"
	"egocensus/internal/match"
	"egocensus/internal/measures"
	"egocensus/internal/pattern"
	"egocensus/internal/plan"
	"egocensus/internal/signature"
	"egocensus/internal/stats"
	"egocensus/internal/storage"
)

// Graph types.
type (
	// Graph is an adjacency-list property graph (directed or undirected)
	// with node labels and free-form node/edge attributes.
	Graph = graph.Graph
	// NodeID identifies a node (dense, 0-based).
	NodeID = graph.NodeID
	// EdgeID identifies an edge (dense, 0-based).
	EdgeID = graph.EdgeID
	// Subgraph is an extracted neighborhood subgraph with local/global ID
	// mappings.
	Subgraph = graph.Subgraph
)

// NewGraph returns an empty graph; directed selects edge semantics.
func NewGraph(directed bool) *Graph { return graph.New(directed) }

// Pattern types.
type (
	// Pattern is a pattern graph: variables, undirected/directed/negated
	// edges, attribute predicates, and named subpatterns.
	Pattern = pattern.Pattern
	// Match is an embedding of a pattern: Match[i] is the image of
	// pattern node i.
	Match = pattern.Match
	// Predicate is an attribute comparison attached to a pattern.
	Predicate = pattern.Predicate
)

// NewPattern returns an empty named pattern for programmatic construction;
// most users write PATTERN statements instead.
func NewPattern(name string) *Pattern { return pattern.New(name) }

// Pattern library constructors (the shapes of the paper's Figure 3).
var (
	// SingleNodePattern builds the single_node pattern (Table I row 1).
	SingleNodePattern = pattern.SingleNode
	// SingleEdgePattern builds the single_edge pattern (Table I row 2).
	SingleEdgePattern = pattern.SingleEdge
	// CliquePattern builds an n-clique (clq3, clq4, clq3-unlb of Fig 3).
	CliquePattern = pattern.Clique
	// SquarePattern builds the 4-cycle sqr pattern.
	SquarePattern = pattern.Square
	// ChainPattern builds a simple path.
	ChainPattern = pattern.Chain
	// StarPattern builds a hub-and-leaves star.
	StarPattern = pattern.Star
	// CoordinatorTriadPattern builds the brokerage triad with its
	// coordinator subpattern (Table I row 4).
	CoordinatorTriadPattern = pattern.CoordinatorTriad
	// UnstableTrianglePattern builds the structural-balance triangle with
	// 1 or 3 negative edges.
	UnstableTrianglePattern = pattern.UnstableTriangle
)

// Matching.
type (
	// Matcher finds pattern embeddings in a graph.
	Matcher = match.Matcher
	// MaskedMatcher is a Matcher that can restrict matching to a node
	// subset in place on the parent graph; the node-driven census drivers
	// use it to avoid extracting neighborhood subgraphs.
	MaskedMatcher = match.MaskedMatcher
	// CN is the paper's candidate-neighbor matching algorithm
	// (Algorithm 1).
	CN = match.CN
	// GQL is the GraphQL-style baseline matcher.
	GQL = match.GQL
)

// FindMatches runs a matcher and deduplicates automorphic embeddings,
// yielding the set of matches M.
func FindMatches(m Matcher, g *Graph, p *Pattern) []Match {
	return match.FindMatches(m, g, p)
}

// Census evaluation.
type (
	// Algorithm names a census evaluation algorithm.
	Algorithm = core.Algorithm
	// Spec describes a single-node census (COUNTP/COUNTSP over
	// SUBGRAPH(ID, k)).
	Spec = core.Spec
	// PairSpec describes a pairwise census over neighborhood
	// intersections or unions.
	PairSpec = core.PairSpec
	// Pair is an unordered node pair in canonical order.
	Pair = core.Pair
	// Options tunes algorithm internals (centers, clustering, matcher).
	Options = core.Options
	// Result holds per-node census counts.
	Result = core.Result
	// PairResult holds per-pair census counts.
	PairResult = core.PairResult
	// PairMode selects intersection or union pairwise neighborhoods.
	PairMode = core.PairMode
)

// Failure semantics: every evaluation entry point has a Context variant
// whose cancellation, deadline, and resource limits surface as typed
// errors carrying partial results (see doc/ARCHITECTURE.md, "Failure
// semantics").
type (
	// Limits bounds the resources one evaluation may consume; set it on
	// Options.Limits. The zero value imposes no limits.
	Limits = core.Limits
	// Progress snapshots how far an evaluation got before it stopped.
	Progress = core.Progress
	// CanceledError reports a context cancellation or deadline expiry,
	// with partial results attached.
	CanceledError = core.CanceledError
	// LimitError reports an exceeded resource limit, with partial results
	// attached.
	LimitError = core.LimitError
	// InternalError reports a panic inside the engine's execution
	// pipeline, converted at the execution boundary with the query text
	// and plan attached.
	InternalError = core.InternalError
	// CorruptFileError reports a graph file that failed structural
	// validation on open.
	CorruptFileError = storage.CorruptFileError
)

// The census algorithms of Section IV.
const (
	NDBas  = core.NDBas
	NDDiff = core.NDDiff
	NDPvot = core.NDPvot
	PTBas  = core.PTBas
	PTRnd  = core.PTRnd
	PTOpt  = core.PTOpt
)

// Pairwise neighborhood modes.
const (
	Intersection = core.Intersection
	Union        = core.Union
)

// DefaultWorkers returns the worker count the front ends use for "auto"
// parallelism (one worker per CPU); set Options.Workers to it to use every
// core for the counting phase.
func DefaultWorkers() int { return core.DefaultWorkers() }

// Count evaluates a single-node census with the chosen algorithm.
func Count(g *Graph, spec Spec, alg Algorithm, opt Options) (*Result, error) {
	return core.Count(g, spec, alg, opt)
}

// CensusContext is Count under a context: cancellation, deadline expiry,
// and the resource limits of opt.Limits stop evaluation within a bounded
// interval, returning a *CanceledError or *LimitError that carries the
// partial census accumulated so far.
func CensusContext(ctx context.Context, g *Graph, spec Spec, alg Algorithm, opt Options) (*Result, error) {
	return core.CountContext(ctx, g, spec, alg, opt)
}

// CountPairs evaluates a pairwise census.
func CountPairs(g *Graph, spec PairSpec, alg Algorithm, opt Options) (*PairResult, error) {
	return core.CountPairs(g, spec, alg, opt)
}

// PairCensusContext is CountPairs under a context, with the failure
// semantics of CensusContext.
func PairCensusContext(ctx context.Context, g *Graph, spec PairSpec, alg Algorithm, opt Options) (*PairResult, error) {
	return core.CountPairsContext(ctx, g, spec, alg, opt)
}

// MakePair returns the canonical form of an unordered pair.
func MakePair(a, b NodeID) Pair { return core.MakePair(a, b) }

// Extensions (the paper's future-work section, implemented here).
type (
	// NodeCount is one ranked census result.
	NodeCount = core.NodeCount
	// PairCount is one ranked pairwise census result.
	PairCount = core.PairCount
	// ApproxResult holds estimated census counts from match sampling.
	ApproxResult = core.ApproxResult
)

// TopK returns the k focal nodes with the highest census counts.
func TopK(g *Graph, spec Spec, k int, alg Algorithm, opt Options) ([]NodeCount, error) {
	return core.TopK(g, spec, k, alg, opt)
}

// TopKPairs returns the k pairs with the highest pairwise census counts.
func TopKPairs(g *Graph, spec PairSpec, k int, alg Algorithm, opt Options) ([]PairCount, error) {
	return core.TopKPairs(g, spec, k, alg, opt)
}

// CountApprox estimates a census by match sampling: each match is kept
// with probability sampleRate and counts are scaled by its inverse — an
// unbiased estimator that shrinks the counting phase proportionally.
func CountApprox(g *Graph, spec Spec, sampleRate float64, opt Options) (*ApproxResult, error) {
	return core.CountApprox(g, spec, sampleRate, opt)
}

// Incremental maintains a census over a growing graph: per-node counts are
// updated after every AddEdge without recomputation.
type Incremental = core.Incremental

// NewIncremental computes the initial census and returns the maintained
// state; grow the graph through its AddNode/AddEdge methods.
func NewIncremental(g *Graph, spec Spec, opt Options) (*Incremental, error) {
	return core.NewIncremental(g, spec, opt)
}

// CountMany evaluates several censuses sharing one radius and focal set in
// a single pass, amortizing the per-node neighborhood traversal across
// patterns.
func CountMany(g *Graph, specs []Spec, opt Options) ([]*Result, error) {
	return core.CountMany(g, specs, opt)
}

// Query engine.
type (
	// Engine executes census scripts against a graph (or a lazy Source).
	Engine = core.Engine
	// ResultTable is one query's rendered result.
	ResultTable = core.Table
	// ResultRow is one typed result row.
	ResultRow = core.Row
	// ExecStats breaks one query's execution down per pipeline stage.
	ExecStats = core.ExecStats
	// Script is a parsed script (PATTERN definitions + SELECT queries).
	Script = lang.Script
	// GraphStats is the statistical snapshot the cost-based optimizer
	// plans against.
	GraphStats = graph.Stats
	// QueryPlan is an optimized plan: the logical tree annotated with
	// cost estimates and per-aggregate algorithm choices.
	QueryPlan = plan.Physical
	// GraphSource supplies planner statistics and lazily hydrates a graph
	// for execution; Store implements it, so engines can plan and EXPLAIN
	// against a disk store before materialization.
	GraphSource = plan.Source
	// Prepared is a compiled census query: parsed and fingerprinted once,
	// executed many times with per-call $name parameter bindings, sharing
	// the engine's epoch-keyed plan and result caches. Safe for unlimited
	// concurrent callers.
	Prepared = core.Prepared
	// ExecOptions are per-execution knobs for a prepared query (limit
	// overrides, result-cache bypass).
	ExecOptions = core.ExecOptions
	// ParamError reports missing or unexpected parameter bindings.
	ParamError = core.ParamError
	// EngineCacheStats reports the engine's plan- and result-cache
	// counters.
	EngineCacheStats = core.CacheStats
	// QueryFingerprint is the canonical 128-bit cache key of a query.
	QueryFingerprint = lang.Fingerprint
)

// NewEngine returns a query engine over g.
func NewEngine(g *Graph) *Engine { return core.NewEngine(g) }

// NewEngineFromSource returns a query engine over a lazy graph source
// (e.g. a *Store): planning and EXPLAIN use only the source's statistics
// snapshot; the graph materializes when a query first executes.
func NewEngineFromSource(src GraphSource) *Engine { return core.NewEngineFromSource(src) }

// ComputeGraphStats takes the statistics snapshot of an in-memory graph.
func ComputeGraphStats(g *Graph) *GraphStats { return graph.ComputeStats(g) }

// ParseScript parses a census script without executing it.
func ParseScript(src string) (*Script, error) { return lang.Parse(src) }

// FormatTable renders a result table as aligned text.
func FormatTable(t *ResultTable) string { return core.FormatTable(t) }

// Center index (PT-OPT internals, exposed for the Fig 4(f) ablation).
type (
	// CenterIndex holds precomputed center distance rows.
	CenterIndex = centers.Index
	// CenterStrategy selects degree-based or random centers.
	CenterStrategy = centers.Strategy
)

// Center selection strategies.
const (
	CentersByDegree = centers.ByDegree
	CentersRandom   = centers.Random
)

// BuildCenters builds a center distance index over g.
func BuildCenters(g *Graph, numCenters int, strategy CenterStrategy, seed int64) *CenterIndex {
	return centers.Build(g, numCenters, strategy, seed)
}

// Synthetic workloads.
var (
	// PreferentialAttachment generates a Barabási–Albert graph (the
	// paper's synthetic database graphs).
	PreferentialAttachment = gen.PreferentialAttachment
	// ErdosRenyi generates a uniform random graph.
	ErdosRenyi = gen.ErdosRenyi
	// AssignLabels labels every node uniformly from a label set.
	AssignLabels = gen.AssignLabels
	// AssignSigns marks edges with +/- signs for signed-network analyses.
	AssignSigns = gen.AssignSigns
	// GenerateCoauthorship builds a temporal co-authorship corpus (the
	// DBLP substitute of the link-prediction experiment).
	GenerateCoauthorship = gen.GenerateCoauthorship
	// DefaultCoauthConfig mirrors the scale of the paper's DBLP corpus.
	DefaultCoauthConfig = gen.DefaultCoauthConfig
)

// Coauthorship types.
type (
	// CoauthConfig configures the co-authorship generator.
	CoauthConfig = gen.CoauthConfig
	// Coauthorship is a generated temporal co-authorship corpus.
	Coauthorship = gen.Coauthorship
)

// Storage.
var (
	// SaveGraph writes a graph to the binary disk format.
	SaveGraph = storage.Save
	// LoadGraph reads a graph file fully into memory.
	LoadGraph = storage.Load
	// OpenStore opens a graph file for on-demand, cache-backed access.
	OpenStore = storage.Open
)

// Store serves a graph file without materializing it.
type Store = storage.Store

// Versioned graph core (MVCC): a single Writer batches mutations and
// atomically publishes immutable, epoch-stamped snapshots; readers pin a
// version in O(1) and are never blocked by writes (nor writes by reads).
// See doc/ARCHITECTURE.md, "Versioning & concurrency".
type (
	// Snapshot is one immutable published version of a mutating graph;
	// census evaluation against it is exact for its epoch.
	Snapshot = graph.Snapshot
	// GraphWriter is the single mutation path of a versioned graph: it
	// stages AddNode/AddEdge/SetLabel/Set*Attr batches into one lane per
	// shard and Publish installs the next snapshot copy-on-write under a
	// single global epoch, with per-shard degraded mode.
	GraphWriter = graph.Writer
	// WriterStats is a point-in-time monitoring view of a GraphWriter
	// (epoch, staged sizes, delta-overlay shape, compactions).
	WriterStats = graph.WriterStats
	// Mutation is one staged graph operation of a mutation batch.
	Mutation = graph.Op
	// MutationBatch is one published batch of mutations with the epoch
	// it produced; Writer subscribers and the durable mutation log
	// consume these.
	MutationBatch = graph.Delta
	// Maintainer keeps registered census queries incrementally up to
	// date against the batches a GraphWriter publishes, without
	// recomputation.
	Maintainer = core.Maintainer
	// DynamicStore durably backs a mutating graph: a base .egoc image
	// plus an fsynced append-only mutation log, with crash recovery on
	// open and background log compaction.
	DynamicStore = storage.DynamicStore
	// Partitioner is the deterministic node-to-shard map of a sharded
	// store; its shard count is fixed at creation and recorded in the
	// image header. The zero value is disabled (one shard).
	Partitioner = graph.Partitioner
)

// NewWriter freezes g as the epoch-0 snapshot and returns its one-shard
// writer; all further mutation goes through the writer.
func NewWriter(g *Graph) *GraphWriter { return graph.NewWriter(g) }

// FreezeGraph seals g as an immutable epoch-0 snapshot without a writer.
func FreezeGraph(g *Graph) *Snapshot { return graph.Freeze(g) }

// NewLiveEngine returns a query engine over a mutating graph: every query
// pins the writer's snapshot current at execution start, so results (and
// the Epoch stamped on each table) are version-consistent even while
// ingest continues. Over a multi-shard writer, census scheduling is
// seeded shard-affinely through the writer's partitioner (results are
// identical to the unsharded engine's).
func NewLiveEngine(w *GraphWriter) *Engine { return core.NewEngineLive(w) }

// NewShardedWriter freezes g as the epoch-0 snapshot of a P-lane writer;
// NewPartitioner(shards) is its node-to-shard map.
func NewShardedWriter(g *Graph, shards int) *GraphWriter {
	return graph.NewShardedWriter(g, shards)
}

// NewPartitioner returns the deterministic node-to-shard map used by
// sharded writers and stores with the given shard count.
func NewPartitioner(shards int) Partitioner { return graph.NewPartitioner(shards) }

// CountSnapshot evaluates a single-node census against one pinned
// version.
func CountSnapshot(s *Snapshot, spec Spec, alg Algorithm, opt Options) (*Result, error) {
	return core.CountSnapshot(s, spec, alg, opt)
}

// CountPairsSnapshot evaluates a pairwise census against one pinned
// version.
func CountPairsSnapshot(s *Snapshot, spec PairSpec, alg Algorithm, opt Options) (*PairResult, error) {
	return core.CountPairsSnapshot(s, spec, alg, opt)
}

// NewMaintainer starts incremental census maintenance from snapshot s;
// Register queries, then Attach the maintainer to the snapshot's writer.
func NewMaintainer(s *Snapshot) *Maintainer { return core.NewMaintainer(s) }

// CreateDynamic initializes a durable dynamic store at basePath from g
// (base image + empty mutation log); fails if basePath exists.
func CreateDynamic(basePath string, g *Graph) (*DynamicStore, error) {
	return storage.CreateDynamic(basePath, g)
}

// CreateDynamicSharded initializes a durable dynamic store with P
// independent ingest lanes: the mutation log becomes P per-shard segment
// files that append, fsync, and replay in parallel, and one full shard
// degrades alone instead of blocking the rest. The shard count is
// recorded in the image header; shards == 1 produces the unsharded
// layout byte for byte.
func CreateDynamicSharded(basePath string, g *Graph, shards int) (*DynamicStore, error) {
	return storage.CreateDynamicSharded(basePath, g, shards)
}

// OpenDynamic opens a dynamic store, replaying the mutation log onto the
// base image — truncating a torn tail from a crashed append, discarding a
// stale log from a crashed compaction — and resumes the epoch sequence.
// The store's recorded shard count (one for pre-sharding stores) selects
// the log layout automatically.
func OpenDynamic(basePath string) (*DynamicStore, error) {
	return storage.OpenDynamic(basePath)
}

// Graph indexing (Section I application): census-based node signatures
// for subgraph-search candidate pruning.
type (
	// SignatureIndex holds per-node census signatures.
	SignatureIndex = signature.Index
	// SignatureConfig selects the signature pattern family and radius.
	SignatureConfig = signature.Config
	// SignatureMatcher wraps a matcher with signature pre-filtering.
	SignatureMatcher = signature.Matcher
)

// BuildSignatures computes a signature index over g.
func BuildSignatures(g *Graph, cfg SignatureConfig) (*SignatureIndex, error) {
	return signature.Build(g, cfg)
}

// Global network statistics (the socio-centric analyses of Section I/VI).
var (
	// DegreeHistogram returns counts of nodes per degree.
	DegreeHistogram = stats.DegreeHistogram
	// DegreeSummary summarizes the degree distribution.
	DegreeSummary = stats.Degrees
	// LocalClustering returns per-node clustering coefficients.
	LocalClustering = stats.LocalClustering
	// GlobalClustering returns the mean local clustering coefficient.
	GlobalClustering = stats.GlobalClustering
	// Components labels connected components by decreasing size.
	Components = stats.Components
	// EstimateDiameter lower-bounds the diameter by sampled BFS.
	EstimateDiameter = stats.EstimateDiameter
	// CoreNumbers computes the k-core decomposition.
	CoreNumbers = stats.CoreNumbers
)

// Ego-centric measures expressed as censuses (the Section I reductions).
var (
	// DegreeCensus computes degrees via the single-node census.
	DegreeCensus = measures.Degree
	// ClusteringCoefficientCensus computes (k-)clustering coefficients via
	// node and edge censuses.
	ClusteringCoefficientCensus = measures.ClusteringCoefficient
	// JaccardCensus computes a pair's Jaccard coefficient via pairwise
	// censuses.
	JaccardCensus = measures.Jaccard
	// BrokerageScoresCensus counts the open triads a node brokers in a
	// given Gould-Fernandez role (Fig 1(c)).
	BrokerageScoresCensus = measures.BrokerageScores
)

// BrokerageRole names a Gould-Fernandez broker type.
type BrokerageRole = measures.BrokerageRole

// The five brokerage roles.
const (
	Coordinator    = measures.Coordinator
	Gatekeeper     = measures.Gatekeeper
	Representative = measures.Representative
	Consultant     = measures.Consultant
	Liaison        = measures.Liaison
)

// Link prediction.
type (
	// LinkPredMeasure is one pairwise census measure configuration.
	LinkPredMeasure = linkpred.Measure
	// LinkPredEval evaluates predictions by precision@K.
	LinkPredEval = linkpred.Eval
)

// LinkPredMeasures returns the paper's nine census measures.
func LinkPredMeasures() []LinkPredMeasure { return linkpred.Measures() }

// JaccardScores computes Jaccard coefficients for all pairs with common
// neighbors.
func JaccardScores(g *Graph) map[Pair]float64 { return linkpred.Jaccard(g) }

// RandomScores scores random pairs (the random-predictor baseline).
func RandomScores(g *Graph, numPairs int, seed int64) map[Pair]float64 {
	return linkpred.RandomScores(g, numPairs, seed)
}
