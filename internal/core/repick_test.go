package core

import (
	"context"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"egocensus/internal/gen"
)

// TestPreparedRangeRepicksDriver is a differential test of re-picking on
// the resolved focal set: a prepared range census over ranges of 0, 1,
// 10, 100 and all nodes, executed concurrently off one cached plan, must
// answer exactly like a forced ND-BAS run and report the driver chosen
// for the range's actual size.
func TestPreparedRangeRepicksDriver(t *testing.T) {
	const nodes = 1000
	g := gen.PreferentialAttachment(nodes, 5, 1)
	gen.AssignLabels(g, 4, 1)
	const src = `
PATTERN clq3 { ?A-?B; ?B-?C; ?A-?C; [?A.LABEL='l0']; [?B.LABEL='l1']; [?C.LABEL='l2']; }
SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= $lo AND ID < $hi`

	ref := NewEngine(g)
	ref.Alg = NDBas
	refP, err := ref.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	p, err := e.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	est, err := e.Plan(p.Query())
	if err != nil {
		t.Fatal(err)
	}

	type rng struct{ lo, hi int }
	ranges := []rng{{500, 500}, {7, 8}, {0, 10}, {300, 400}, {0, nodes}}
	bind := func(r rng) map[string]string {
		return map[string]string{"lo": strconv.Itoa(r.lo), "hi": strconv.Itoa(r.hi)}
	}
	ctx := context.Background()
	noCache := ExecOptions{NoResultCache: true}
	// Warm the plan cache so every concurrent execution shares one plan.
	if _, err := p.ExecuteContext(ctx, bind(ranges[0]), noCache); err != nil {
		t.Fatal(err)
	}

	// Two executions per range, all in flight at once.
	got := make([]*Table, 2*len(ranges))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = p.ExecuteContext(ctx, bind(ranges[i%len(ranges)]), noCache)
		}()
	}
	wg.Wait()

	repicked := map[Algorithm]bool{}
	for i, tab := range got {
		r := ranges[i%len(ranges)]
		if errs[i] != nil {
			t.Fatalf("range %v: %v", r, errs[i])
		}
		if !tab.Stats.PlanCached {
			t.Fatalf("range %v: plan not served from the cache", r)
		}
		if n := r.hi - r.lo; tab.Stats.FocalCount != n {
			t.Fatalf("range %v: focal count %d, want %d", r, tab.Stats.FocalCount, n)
		}
		want, err := refP.ExecuteContext(ctx, bind(r), noCache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tab.Rows, want.Rows) {
			t.Fatalf("range %v: %s rows differ from ND-BAS:\n%v\nvs\n%v", r, tab.Algorithm, tab.Rows, want.Rows)
		}
		wantAlg := Algorithm(est.ForFocals(tab.Stats.FocalCount).Algorithm(0))
		if tab.Algorithm != wantAlg || Algorithm(tab.Plan.Algorithm(0)) != wantAlg {
			t.Fatalf("range %v: ran %s (plan %s), want the re-picked %s",
				r, tab.Algorithm, tab.Plan.Algorithm(0), wantAlg)
		}
		if tab.Plan.Focals != est.Focals {
			t.Fatalf("range %v: Plan.Focals %v, want the estimate %v", r, tab.Plan.Focals, est.Focals)
		}
		repicked[tab.Algorithm] = true
	}
	// The estimate and the smallest ranges must disagree, or nothing was
	// re-picked and the test proves little.
	if est.Algorithm(0) == string(NDBas) || !repicked[NDBas] {
		t.Fatalf("estimate chose %s, re-picked %v; want a global-matching estimate and ND-BAS for small ranges",
			est.Algorithm(0), repicked)
	}
}
