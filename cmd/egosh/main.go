// Command egosh is an interactive shell for ego-centric pattern census
// queries: load or generate a graph, declare patterns, and run SELECT
// statements, with results printed as tables.
//
//	$ egosh -graph g.egoc
//	egosh> PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }
//	egosh> SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes
//	       ORDER BY COUNT DESC LIMIT 5;
//
// Statements may span lines; they execute when braces are balanced and the
// line ends with ';'. Shell commands start with a backslash:
//
//	\open <file>          load a graph (binary .egoc opens lazily, text loads)
//	\save <file>          save the current graph
//	\gen <nodes> [labels] generate a preferential-attachment graph
//	\alg <name|auto>      force an algorithm (ND-PVOT, PT-OPT, ...)
//	\workers <n|auto>     parallel workers for the counting phase
//	\explain <query>      show the optimized plan without executing
//	\prepare <name> <q>   compile a parameterized statement once
//	\execute <name> [k=v] run a prepared statement with $name bindings
//	\timing               toggle per-stage timing after each query
//	\ingest <file> [P]    stream a text edge list through P ingest lanes
//	\snapshot             show the writer's epoch, overlay, and ingest state
//	\dot <node> <k> <f>   export an ego subgraph as Graphviz DOT
//	\stats                print graph statistics
//	\patterns             list declared patterns
//	\help                 show this help
//	\quit                 exit (aliases: \q, \exit)
//
// \ingest runs in the background: mutations are staged through the MVCC
// writer and published in batches, so SELECTs keep answering against
// consistent pinned snapshots while the graph grows underneath them.
//
// Ctrl-C cancels the query in flight (printing any partial results) and
// returns to the prompt; a second Ctrl-C, or one at an idle prompt, exits.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"egocensus/internal/core"
	"egocensus/internal/gen"
	"egocensus/internal/graph"
	"egocensus/internal/stats"
	"egocensus/internal/storage"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file to load on startup")
		seed      = flag.Int64("seed", 1, "seed for \\gen and RND()")
	)
	flag.Parse()
	sh := newShell(os.Stdout, *seed)
	if *graphPath != "" {
		if err := sh.open(*graphPath); err != nil {
			fmt.Fprintf(os.Stderr, "egosh: %v\n", err)
			os.Exit(1)
		}
	}
	// Ctrl-C cancels the in-flight query and returns to the prompt; with
	// no query running (including a second Ctrl-C after a cancellation)
	// it exits the shell.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		for range sigc {
			if !sh.cancelInflight() {
				fmt.Fprintln(os.Stderr, "\negosh: interrupt")
				os.Exit(130)
			}
		}
	}()
	sh.run(os.Stdin)
}

// shell holds REPL state; it is separated from main for testability.
type shell struct {
	out     io.Writer
	engine  *core.Engine
	seed    int64
	alg     core.Algorithm
	workers int
	timing  bool

	// writer is non-nil once the session graph went live (\ingest): the
	// engine then pins a fresh snapshot per query while the writer
	// publishes mutation batches underneath it.
	// prepared holds \prepare'd statements; adopting a new engine clears
	// it (compiled statements are bound to the engine they came from).
	prepared map[string]*core.Prepared

	writer       *graph.Writer
	ingestActive atomic.Bool
	ingestFile   string       // set by the REPL goroutine while inactive
	ingestOps    atomic.Int64 // mutations staged by the running ingest
	ingestWG     sync.WaitGroup

	mu       sync.Mutex
	inflight context.CancelFunc // non-nil while a query is executing
}

// syncWriter serializes writes so the background ingest goroutine can
// report completion without racing the REPL's own output.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (sw *syncWriter) Write(p []byte) (int, error) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.w.Write(p)
}

// cancelInflight cancels the executing query, if any, reporting whether
// there was one to cancel.
func (sh *shell) cancelInflight() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.inflight == nil {
		return false
	}
	sh.inflight()
	sh.inflight = nil
	fmt.Fprintln(sh.out, "canceling query...")
	return true
}

// beginQuery installs ctx's cancel as the in-flight query; endQuery
// clears it.
func (sh *shell) beginQuery(cancel context.CancelFunc) {
	sh.mu.Lock()
	sh.inflight = cancel
	sh.mu.Unlock()
}

func (sh *shell) endQuery() {
	sh.mu.Lock()
	sh.inflight = nil
	sh.mu.Unlock()
}

func newShell(out io.Writer, seed int64) *shell {
	sh := &shell{out: &syncWriter{w: out}, seed: seed, workers: core.DefaultWorkers()}
	sh.setGraph(graph.New(false))
	return sh
}

func (sh *shell) setGraph(g *graph.Graph) {
	sh.writer = nil
	sh.adoptEngine(core.NewEngine(g))
}

// adoptEngine installs a new engine, carrying declared patterns and
// session settings across graph switches.
func (sh *shell) adoptEngine(e *core.Engine) {
	if sh.engine != nil {
		for _, p := range sh.engine.Patterns() {
			if err := e.DefinePattern(p); err != nil {
				fmt.Fprintf(sh.out, "warning: %v\n", err)
			}
		}
	}
	e.Seed = sh.seed
	e.Alg = sh.alg
	e.Opt.Workers = sh.workers
	sh.engine = e
	if len(sh.prepared) > 0 {
		fmt.Fprintf(sh.out, "note: %d prepared statement(s) dropped (graph changed)\n", len(sh.prepared))
	}
	sh.prepared = map[string]*core.Prepared{}
}

func (sh *shell) open(path string) error {
	if strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".tsv") || strings.HasSuffix(path, ".el") {
		g, err := storage.LoadText(path)
		if err != nil {
			return err
		}
		sh.setGraph(g)
		fmt.Fprintf(sh.out, "loaded %s: %d nodes, %d edges\n", path, g.NumNodes(), g.NumEdges())
		return nil
	}
	// Binary stores open as a plan.Source: the shell can plan and EXPLAIN
	// against the resident statistics; the graph materializes on the first
	// executing query.
	st, err := storage.Open(path, 0)
	if err != nil {
		return err
	}
	sh.writer = nil
	sh.adoptEngine(core.NewEngineFromSource(st))
	s, err := st.GraphStats()
	if err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "opened %s: %d nodes, %d edges, %d labels (deferred load)\n",
		path, s.Nodes, s.Edges, s.NumLabels())
	return nil
}

// ingestBlocked refuses graph-replacing commands while an ingest is
// mutating the live writer.
func (sh *shell) ingestBlocked() bool {
	if sh.ingestActive.Load() {
		fmt.Fprintf(sh.out, "error: ingest of %s is running; wait for it to finish (\\snapshot shows progress)\n", sh.ingestFile)
		return true
	}
	return false
}

// goLive promotes the session graph to a mutating one: the current graph
// is frozen as epoch 0 under a graph.Writer and the engine is replaced
// by a live engine that pins a fresh snapshot per query. shards > 1
// partitions staging into independent ingest lanes (0 keeps the current
// writer's shard count, or 1 lane for a fresh writer).
func (sh *shell) goLive(shards int) bool {
	if sh.writer != nil {
		if shards > 1 && sh.writer.Shards() != shards {
			fmt.Fprintf(sh.out, "error: session is already live with %d shard(s)\n", sh.writer.Shards())
			return false
		}
		return true
	}
	g := sh.graphOrComplain()
	if g == nil {
		return false
	}
	if shards < 1 {
		shards = 1
	}
	sh.writer = graph.NewShardedWriter(g, shards)
	sh.adoptEngine(core.NewEngineLive(sh.writer))
	return true
}

// startIngest begins streaming a text edge list through the writer in the
// background. The file uses the storage text format conventions: bare
// "<a> <b>" pairs, "edge <a> <b> [k=v ...]", "node <id> [k=v ...]", '#'
// comments. Node IDs are literal: referencing an ID beyond the current
// graph creates the nodes up to it.
func (sh *shell) startIngest(path string, shards int) {
	if sh.ingestActive.Load() {
		fmt.Fprintf(sh.out, "error: ingest of %s already running\n", sh.ingestFile)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	if !sh.goLive(shards) {
		f.Close()
		return
	}
	sh.ingestFile = path
	sh.ingestOps.Store(0)
	sh.ingestActive.Store(true)
	sh.ingestWG.Add(1)
	go sh.runIngest(path, f)
	fmt.Fprintf(sh.out, "ingesting %s in the background; queries keep running against pinned snapshots\n", path)
}

// runIngest is the background ingest worker: it stages mutations through
// the writer and publishes a snapshot every ingestBatchOps operations, so
// progress becomes visible to queries incrementally.
func (sh *shell) runIngest(path string, f *os.File) {
	defer sh.ingestWG.Done()
	defer sh.ingestActive.Store(false)
	defer f.Close()
	const ingestBatchOps = 1000
	w := sh.writer
	nodes := w.Stats().Nodes
	node := func(tok string) (graph.NodeID, error) {
		id, err := strconv.ParseUint(tok, 10, 31)
		if err != nil {
			return 0, fmt.Errorf("invalid node id %q", tok)
		}
		if int(id) >= nodes {
			w.AddNodes(int(id) - nodes + 1)
			sh.ingestOps.Add(int64(int(id) - nodes + 1))
			nodes = int(id) + 1
		}
		return graph.NodeID(id), nil
	}
	attrs := func(fields []string, set func(k, v string)) error {
		for _, fl := range fields {
			eq := strings.IndexByte(fl, '=')
			if eq <= 0 {
				return fmt.Errorf("malformed attribute %q", fl)
			}
			set(fl[:eq], fl[eq+1:])
			sh.ingestOps.Add(1)
		}
		return nil
	}
	edge := func(a, b string, rest []string) error {
		from, err := node(a)
		if err != nil {
			return err
		}
		to, err := node(b)
		if err != nil {
			return err
		}
		e := w.AddEdge(from, to)
		sh.ingestOps.Add(1)
		return attrs(rest, func(k, v string) { w.SetEdgeAttr(e, k, v) })
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	var lineErr error
	for sc.Scan() && lineErr == nil {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "graph":
			// Direction is fixed by the live graph; the header is advisory.
		case fields[0] == "node" && len(fields) >= 2:
			var id graph.NodeID
			if id, lineErr = node(fields[1]); lineErr == nil {
				lineErr = attrs(fields[2:], func(k, v string) { w.SetNodeAttr(id, k, v) })
			}
		case fields[0] == "edge" && len(fields) >= 3:
			lineErr = edge(fields[1], fields[2], fields[3:])
		case fields[0] != "edge" && fields[0] != "node" && len(fields) >= 2:
			lineErr = edge(fields[0], fields[1], fields[2:])
		default:
			lineErr = fmt.Errorf("unrecognized record %q", line)
		}
		if w.Pending() >= ingestBatchOps {
			if _, err := w.Publish(); err != nil {
				lineErr = err
				break
			}
		}
	}
	if lineErr == nil {
		lineErr = sc.Err()
	} else if lineNo > 0 {
		lineErr = fmt.Errorf("line %d: %w", lineNo, lineErr)
	}
	// Publish whatever parsed cleanly, then report.
	snap, pubErr := w.Publish()
	switch {
	case lineErr != nil:
		fmt.Fprintf(sh.out, "\ningest %s failed: %v (published through epoch %d)\n", path, lineErr, w.Snapshot().Epoch())
	case pubErr != nil:
		fmt.Fprintf(sh.out, "\ningest %s: publish failed: %v\n", path, pubErr)
	default:
		fmt.Fprintf(sh.out, "\ningest done: %s, %d ops, epoch %d (%d nodes, %d edges)\n",
			path, sh.ingestOps.Load(), snap.Epoch(), snap.NumNodes(), snap.NumEdges())
	}
}

// printSnapshot reports the writer's published version and overlay shape.
func (sh *shell) printSnapshot() {
	if sh.writer == nil {
		fmt.Fprintln(sh.out, "static graph (no writer); \\ingest makes it live")
		return
	}
	st := sh.writer.Stats()
	fmt.Fprintf(sh.out, "epoch %d: %d nodes, %d edges (%d ops published, %d pending)\n",
		st.Epoch, st.Nodes, st.Edges, st.OpsPublished, st.PendingOps)
	if st.CSRBuilt {
		fmt.Fprintf(sh.out, "csr overlay: %d rows awaiting compaction, %d background compactions done\n",
			st.OverlayRows, st.Compactions)
	} else {
		fmt.Fprintln(sh.out, "csr: not built yet (the first traversal builds it)")
	}
	if sh.writer.Shards() > 1 {
		for _, ss := range sh.writer.ShardStats() {
			state := "ok"
			if ss.Degraded {
				state = "degraded"
			}
			fmt.Fprintf(sh.out, "shard %d: %d pending ops, %s\n", ss.Shard, ss.PendingOps, state)
		}
	}
	if sh.ingestActive.Load() {
		fmt.Fprintf(sh.out, "ingest running: %s (%d ops staged so far)\n", sh.ingestFile, sh.ingestOps.Load())
	}
}

// graphOrComplain hydrates the engine's graph for commands that need it.
func (sh *shell) graphOrComplain() *graph.Graph {
	g, err := sh.engine.Graph()
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return nil
	}
	return g
}

func (sh *shell) run(in io.Reader) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(sh.out, "egosh> ")
		} else {
			fmt.Fprint(sh.out, "  ...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !sh.command(trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if statementComplete(buf.String()) {
			sh.execute(buf.String())
			buf.Reset()
		}
		prompt()
	}
	if buf.Len() > 0 {
		sh.execute(buf.String())
	}
	fmt.Fprintln(sh.out)
}

// statementComplete reports whether the buffered text forms complete
// statements: balanced braces/parens and, outside any braces, a trailing
// ';' (or a PATTERN block that just closed).
func statementComplete(src string) bool {
	depth := 0
	inString := byte(0)
	lastMeaningful := byte(0)
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inString != 0 {
			if c == inString {
				inString = 0
			}
			continue
		}
		switch c {
		case '\'', '"':
			inString = c
		case '{', '(':
			depth++
		case '}', ')':
			depth--
		case '-':
			if i+1 < len(src) && src[i+1] == '-' {
				// comment to end of line
				for i < len(src) && src[i] != '\n' {
					i++
				}
				continue
			}
		}
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			lastMeaningful = c
		}
	}
	if depth != 0 || inString != 0 {
		return false
	}
	return lastMeaningful == ';' || lastMeaningful == '}'
}

func (sh *shell) execute(src string) {
	if strings.TrimSpace(src) == "" {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	sh.beginQuery(cancel)
	tables, err := sh.engine.ExecuteContext(ctx, src)
	sh.endQuery()
	cancel()
	if err != nil {
		sh.printFailure(err)
		return
	}
	if len(tables) == 0 {
		fmt.Fprintln(sh.out, "ok")
		return
	}
	for _, t := range tables {
		fmt.Fprintf(sh.out, "-- %s, %d matches, %d rows, %v\n",
			t.Algorithm, t.NumMatches, len(t.Rows), t.Elapsed)
		if sh.timing {
			sh.printTiming(t)
		}
		sh.printRows(t)
	}
}

// executePrepared runs one prepared statement with the given bindings,
// sharing the inflight/cancel bookkeeping and output paths with execute.
func (sh *shell) executePrepared(p *core.Prepared, params map[string]string) {
	ctx, cancel := context.WithCancel(context.Background())
	sh.beginQuery(cancel)
	t, err := p.ExecuteContext(ctx, params, core.ExecOptions{})
	sh.endQuery()
	cancel()
	if err != nil {
		sh.printFailure(err)
		return
	}
	fmt.Fprintf(sh.out, "-- %s, %d matches, %d rows, %v\n",
		t.Algorithm, t.NumMatches, len(t.Rows), t.Elapsed)
	if sh.timing {
		sh.printTiming(t)
	}
	sh.printRows(t)
}

// printRows prints a table's rows, truncated for terminal sanity.
func (sh *shell) printRows(t *core.Table) {
	limit := 40
	if len(t.Rows) > limit {
		trimmed := *t
		trimmed.Rows = t.Rows[:limit]
		fmt.Fprint(sh.out, core.FormatTable(&trimmed))
		fmt.Fprintf(sh.out, "... (%d more rows; use LIMIT)\n", len(t.Rows)-limit)
		return
	}
	fmt.Fprint(sh.out, core.FormatTable(t))
}

// printFailure reports a failed query. Cancellation and limit failures
// print the rows produced before the stop; internal errors print the
// plan that was executing.
func (sh *shell) printFailure(err error) {
	var ce *core.CanceledError
	var le *core.LimitError
	var ie *core.InternalError
	var partial *core.Table
	switch {
	case errors.As(err, &ce):
		partial = ce.PartialTable
	case errors.As(err, &le):
		partial = le.PartialTable
	case errors.As(err, &ie):
		fmt.Fprintf(sh.out, "error: %v\n", err)
		if ie.Plan != "" {
			fmt.Fprintf(sh.out, "plan was:\n%s", ie.Plan)
		}
		return
	}
	if partial != nil && len(partial.Rows) > 0 {
		fmt.Fprintf(sh.out, "-- partial results (%d rows before the query stopped)\n", len(partial.Rows))
		sh.printRows(partial)
	}
	fmt.Fprintf(sh.out, "error: %v\n", err)
}

// printTiming prints the per-stage breakdown of one executed query.
func (sh *shell) printTiming(t *core.Table) {
	st := t.Stats
	if st.ResultCached {
		fmt.Fprintln(sh.out, "   result served from cache (no execution)")
		return
	}
	focal := "pairs from match set"
	if st.FocalCount >= 0 {
		focal = fmt.Sprintf("%d focal", st.FocalCount)
	}
	planNote := ""
	if st.PlanCached {
		planNote = " (cached)"
	}
	fmt.Fprintf(sh.out, "   plan %v%s | focal-select %v (%s) | census %v (|M|=%d) | render %v (%d rows)\n",
		st.PlanTime, planNote, st.FocalTime, focal, st.CensusTime, st.MatchSetSize, st.RenderTime, st.Rows)
}

// command handles a backslash command; it returns false to exit the shell.
func (sh *shell) command(line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`, `\exit`:
		return false
	case `\help`:
		fmt.Fprint(sh.out, `statements: PATTERN name { ... }  |  SELECT ... FROM nodes ... ;
commands:
  \open <file>           load a graph (.egoc binary, .txt/.tsv/.el text)
  \save <file>           save the current graph
  \gen <nodes> [labels]  generate a preferential-attachment graph (|E|=5|V|)
  \alg <name|auto>       force ND-BAS/ND-DIFF/ND-PVOT/PT-BAS/PT-RND/PT-OPT
  \workers <n|auto>      parallel workers for the counting phase (auto = one per CPU; out-of-range values are clamped)
  \explain <query>       show the optimized plan without executing
  \prepare <name> <stmt> compile one SELECT once; $param placeholders allowed
  \execute <name> [k=v]  run a prepared statement with parameter bindings
  \timing                toggle per-stage timing after each query
  \ingest <file> [P]     stream a text edge list through P shard lanes
                         in the background (queries stay snapshot-consistent)
  \snapshot              writer epoch, delta-overlay size, ingest progress
  \dot <node> <k> <file> export S(node, k) as Graphviz DOT
  \stats                 graph statistics
  \patterns              list declared patterns
  \help                  show this help
  \quit                  exit (aliases: \q, \exit)
`)
	case `\timing`:
		sh.timing = !sh.timing
		state := "off"
		if sh.timing {
			state = "on"
		}
		fmt.Fprintf(sh.out, "timing: %s\n", state)
	case `\explain`:
		q := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
		if q == "" {
			fmt.Fprintln(sh.out, "usage: \\explain SELECT ...")
			break
		}
		if !strings.HasSuffix(q, ";") {
			q += ";"
		}
		sh.execute("EXPLAIN " + q)
	case `\prepare`:
		rest := strings.TrimSpace(strings.TrimPrefix(line, `\prepare`))
		sp := strings.IndexAny(rest, " \t")
		if rest == "" || sp < 0 {
			fmt.Fprintln(sh.out, "usage: \\prepare <name> SELECT ...")
			break
		}
		name, text := rest[:sp], strings.TrimSpace(rest[sp:])
		if !strings.HasSuffix(text, ";") {
			text += ";"
		}
		p, err := sh.engine.Prepare(text)
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		if _, exists := sh.prepared[name]; exists {
			fmt.Fprintf(sh.out, "replacing prepared statement %s\n", name)
		}
		sh.prepared[name] = p
		if params := p.Params(); len(params) > 0 {
			fmt.Fprintf(sh.out, "prepared %s (params: $%s)\n", name, strings.Join(params, ", $"))
		} else {
			fmt.Fprintf(sh.out, "prepared %s (no params)\n", name)
		}
	case `\execute`:
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, "usage: \\execute <name> [param=value ...]")
			break
		}
		p, ok := sh.prepared[fields[1]]
		if !ok {
			fmt.Fprintf(sh.out, "error: no prepared statement %q (see \\prepare)\n", fields[1])
			break
		}
		params := make(map[string]string, len(fields)-2)
		bad := false
		for _, f := range fields[2:] {
			k, v, found := strings.Cut(f, "=")
			if !found || k == "" {
				fmt.Fprintf(sh.out, "error: bindings are param=value, got %q\n", f)
				bad = true
				break
			}
			params[k] = v
		}
		if bad {
			break
		}
		sh.executePrepared(p, params)
	case `\save`:
		if len(fields) != 2 {
			fmt.Fprintln(sh.out, "usage: \\save <file>")
			break
		}
		g := sh.graphOrComplain()
		if g == nil {
			break
		}
		path := fields[1]
		var err error
		if strings.HasSuffix(path, ".txt") || strings.HasSuffix(path, ".tsv") || strings.HasSuffix(path, ".el") {
			err = storage.SaveText(path, g)
		} else {
			err = storage.Save(path, g)
		}
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "saved %s (%d nodes, %d edges)\n", path, g.NumNodes(), g.NumEdges())
	case `\open`:
		if len(fields) != 2 {
			fmt.Fprintln(sh.out, "usage: \\open <file>")
			break
		}
		if sh.ingestBlocked() {
			break
		}
		if err := sh.open(fields[1]); err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
		}
	case `\ingest`:
		if len(fields) != 2 && len(fields) != 3 {
			fmt.Fprintln(sh.out, "usage: \\ingest <file> [shards]")
			break
		}
		shards := 0
		if len(fields) == 3 {
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 1 {
				fmt.Fprintf(sh.out, "error: invalid shard count %q\n", fields[2])
				break
			}
			shards = n
		}
		sh.startIngest(fields[1], shards)
	case `\snapshot`:
		sh.printSnapshot()
	case `\gen`:
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, "usage: \\gen <nodes> [labels]")
			break
		}
		if sh.ingestBlocked() {
			break
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n <= 0 {
			fmt.Fprintln(sh.out, "error: invalid node count")
			break
		}
		labels := 0
		if len(fields) > 2 {
			if labels, err = strconv.Atoi(fields[2]); err != nil || labels < 0 {
				fmt.Fprintln(sh.out, "error: invalid label count")
				break
			}
		}
		g := gen.PreferentialAttachment(n, 5, sh.seed)
		if labels > 0 {
			gen.AssignLabels(g, labels, sh.seed+1)
		}
		sh.setGraph(g)
		fmt.Fprintf(sh.out, "generated %d nodes, %d edges, %d labels\n", g.NumNodes(), g.NumEdges(), labels)
	case `\alg`:
		if len(fields) != 2 {
			fmt.Fprintln(sh.out, "usage: \\alg <name|auto>")
			break
		}
		if fields[1] == "auto" {
			sh.alg = ""
		} else {
			sh.alg = core.Algorithm(strings.ToUpper(fields[1]))
			valid := false
			for _, a := range core.Algorithms {
				if a == sh.alg {
					valid = true
					break
				}
			}
			if !valid {
				fmt.Fprintf(sh.out, "error: unknown algorithm %q\n", fields[1])
				sh.alg = ""
				break
			}
		}
		sh.engine.Alg = sh.alg
		fmt.Fprintf(sh.out, "algorithm: %s\n", orAuto(string(sh.alg)))
	case `\workers`:
		if len(fields) != 2 {
			fmt.Fprintf(sh.out, "workers: %d (usage: \\workers <n|auto>)\n", sh.workers)
			break
		}
		if fields[1] == "auto" {
			sh.workers = core.DefaultWorkers()
		} else {
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				fmt.Fprintln(sh.out, "error: workers must be an integer or auto")
				break
			}
			if eff := core.EffectiveWorkers(n); eff != n {
				fmt.Fprintf(sh.out, "workers: %d clamped to %d\n", n, eff)
				sh.workers = eff
			} else {
				sh.workers = n
			}
		}
		sh.engine.Opt.Workers = sh.workers
		fmt.Fprintf(sh.out, "workers: %d\n", sh.workers)
	case `\dot`:
		if len(fields) != 4 {
			fmt.Fprintln(sh.out, "usage: \\dot <node> <k> <file.dot>")
			break
		}
		g := sh.graphOrComplain()
		if g == nil {
			break
		}
		node, err1 := strconv.Atoi(fields[1])
		k, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || node < 0 || node >= g.NumNodes() || k < 0 {
			fmt.Fprintln(sh.out, "error: invalid node or radius")
			break
		}
		sg := g.EgoSubgraph(graph.NodeID(node), k)
		f, err := os.Create(fields[3])
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		ego := sg.ToLocal[graph.NodeID(node)]
		sg.G.SetNodeAttr(ego, "highlight", "lightblue")
		err = sg.G.WriteDOT(f, fmt.Sprintf("S(%d,%d)", node, k))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(sh.out, "error: %v\n", err)
			break
		}
		fmt.Fprintf(sh.out, "wrote %s (%d nodes, %d edges)\n", fields[3], sg.G.NumNodes(), sg.G.NumEdges())
	case `\stats`:
		g := sh.graphOrComplain()
		if g == nil {
			break
		}
		ds := stats.Degrees(g)
		_, comps := stats.Components(g)
		fmt.Fprintf(sh.out, "nodes %d, edges %d, directed %v\n", g.NumNodes(), g.NumEdges(), g.Directed())
		fmt.Fprintf(sh.out, "degree min/mean/median/max: %d/%.1f/%.0f/%d\n", ds.Min, ds.Mean, ds.Median, ds.Max)
		fmt.Fprintf(sh.out, "components: %d (largest %d)\n", len(comps), largest(comps))
		fmt.Fprintf(sh.out, "clustering: %.4f, diameter >= %d\n",
			stats.GlobalClustering(g), stats.EstimateDiameter(g, 4))
	case `\patterns`:
		names := make([]string, 0)
		for name := range sh.engine.Patterns() {
			names = append(names, name)
		}
		if len(names) == 0 {
			fmt.Fprintln(sh.out, "(none)")
			break
		}
		sortStringsInPlace(names)
		for _, n := range names {
			fmt.Fprintln(sh.out, sh.engine.Patterns()[n].String())
		}
	default:
		fmt.Fprintf(sh.out, "unknown command %s (try \\help)\n", fields[0])
	}
	return true
}

func orAuto(s string) string {
	if s == "" {
		return "auto"
	}
	return s
}

func largest(sizes []int) int {
	if len(sizes) == 0 {
		return 0
	}
	return sizes[0]
}

func sortStringsInPlace(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
