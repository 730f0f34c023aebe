package core

import "testing"

func cacheKeyAt(epoch uint64, params string) resultKey {
	return resultKey{epoch: epoch, params: params}
}

func TestResultCachePrunesSupersededEpochs(t *testing.T) {
	c := newResultCache(1 << 20)
	tab := &Table{Header: []string{"ID"}}
	for _, k := range []resultKey{cacheKeyAt(4, "a"), cacheKeyAt(5, "a"), cacheKeyAt(5, "b")} {
		c.put(k, tab)
	}
	// The epoch-5 put dropped the epoch-4 entry.
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after epoch 5: %+v, want 2 entries and 1 eviction", st)
	}

	// A put for epoch 6 evicts every entry of epoch ≤ 5 and counts them.
	c.put(cacheKeyAt(6, "a"), tab)
	st := c.Stats()
	if st.Entries != 1 || st.Evictions != 3 || st.Bytes != tableBytes(tab) {
		t.Fatalf("after epoch 6: %+v, want 1 entry, 3 evictions, %d bytes", st, tableBytes(tab))
	}
	for _, k := range []resultKey{cacheKeyAt(5, "a"), cacheKeyAt(5, "b")} {
		if _, ok := c.get(k); ok {
			t.Fatalf("superseded entry %+v still served", k)
		}
	}
	if _, ok := c.get(cacheKeyAt(6, "a")); !ok {
		t.Fatal("current-epoch entry lost")
	}

	// A late put for an older epoch is not stored and evicts nothing.
	c.put(cacheKeyAt(5, "c"), tab)
	if _, ok := c.get(cacheKeyAt(5, "c")); ok {
		t.Fatal("late put for epoch 5 was stored after epoch 6")
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 3 {
		t.Fatalf("after late put: %+v, want 1 entry and 3 evictions", st)
	}
}

func TestResultCacheStaticSourceNeverPrunes(t *testing.T) {
	// Static sources report epoch 0 forever: entries only leave by LRU
	// pressure, exactly as before epoch pruning existed.
	tab := &Table{Header: []string{"ID"}}
	size := tableBytes(tab)
	c := newResultCache(3 * size)
	for _, p := range []string{"a", "b", "c"} {
		c.put(cacheKeyAt(0, p), tab)
	}
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("static puts: %+v, want 3 entries and no evictions", st)
	}
	c.get(cacheKeyAt(0, "a")) // a becomes most recent; b is now the LRU
	c.put(cacheKeyAt(0, "d"), tab)
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("over budget: %+v, want 3 entries and 1 eviction", st)
	}
	if _, ok := c.get(cacheKeyAt(0, "b")); ok {
		t.Fatal("LRU entry b survived the over-budget put")
	}
	for _, p := range []string{"a", "c", "d"} {
		if _, ok := c.get(cacheKeyAt(0, p)); !ok {
			t.Fatalf("entry %s lost", p)
		}
	}
}
