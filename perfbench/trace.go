package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// a layer of the program. Spans of one request or publish share Trace;
// Parent links a child to the span that caused it.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a child span whose duration the program reported
	// (ExecStats) rather than one the harness timed; its placement inside
	// the parent is sequential, not observed.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for the run and writes them out at the
// end. A nil *tracer is the untraced mode: every method is a no-op, so
// the untraced path pays one nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, trace, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.newID()
	if trace == 0 {
		trace = id
	}
	t.add(span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// derived records children of parent from program-reported stage
// durations, laid end to end from the parent's start.
func (t *tracer) derived(parent span, stages []stage) {
	if t == nil {
		return
	}
	at := parent.Start
	for _, st := range stages {
		if st.d <= 0 {
			continue
		}
		t.add(span{ID: t.newID(), Parent: parent.ID, Trace: parent.Trace, Name: st.name,
			Start: at, End: at + st.d.Nanoseconds(), Derived: true})
		at += st.d.Nanoseconds()
	}
}

type stage struct {
	name string
	d    time.Duration
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, for each span named name, its duration minus the
// part of it that its children cover.
func (t *tracer) selfTimes(name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		out = append(out, s.dur()-covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curS, curE int64
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return time.Duration(total)
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of ds, or
// 0 for an empty sample.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func medianMs(ds []time.Duration) float64 { return ms(percentile(ds, 0.5)) }

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func spanDurs(ss []span) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.dur()
	}
	return out
}

// qerror is the symmetric ratio between an estimate and an actual count,
// both floored at 1 so empty results stay finite.
func qerror(est, act float64) float64 {
	est, act = math.Max(est, 1), math.Max(act, 1)
	return math.Max(est/act, act/est)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
