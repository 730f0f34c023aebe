package core

import (
	"container/list"
	"sort"
	"strings"
	"sync"

	"egocensus/internal/lang"
)

// resultKey identifies one cached census result: the query fingerprint,
// the snapshot epoch it ran against, the engine configuration, the RND()
// seed (sampling predicates are seed-deterministic), and the canonical
// parameter bindings. A Writer publish advances the epoch, so results
// computed on superseded versions stop hitting; the first put for a newer
// epoch drops them (see resultCache.put) — the cache never needs an
// invalidation hook.
type resultKey struct {
	fp     lang.Fingerprint
	epoch  uint64
	config uint64
	seed   int64
	params string
}

// canonicalParams flattens parameter bindings into a deterministic string
// for cache keying.
func canonicalParams(params map[string]string) string {
	if len(params) == 0 {
		return ""
	}
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(name)
		b.WriteByte(0)
		b.WriteString(params[name])
		b.WriteByte(0)
	}
	return b.String()
}

// ResultCacheStats are cumulative counters for the result cache.
type ResultCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the approximate resident size of the cached tables.
	Bytes int64 `json:"bytes"`
}

// resultCache is a byte-budgeted, concurrency-safe LRU of whole result
// tables for prepared executions. Sizes are approximate — rendered cells,
// typed rows, and struct overhead — which is enough to keep the resident
// set near the budget.
type resultCache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[resultKey]*list.Element
	lru     *list.List // front = most recent
	stats   ResultCacheStats
	// epoch is the newest snapshot epoch a put has carried. Every query
	// pins the latest snapshot, so entries of older epochs can never hit
	// again.
	epoch uint64
}

type resultEntry struct {
	key   resultKey
	table *Table
	size  int64
}

// newResultCache returns a result cache with the given byte budget; zero
// or negative disables caching.
func newResultCache(budget int64) *resultCache {
	return &resultCache{
		budget:  budget,
		entries: make(map[resultKey]*list.Element),
		lru:     list.New(),
	}
}

// get returns a copy of the cached table marked ResultCached. The copy
// shares row storage with the cached original; callers must treat result
// tables as read-only (every renderer does).
func (c *resultCache) get(key resultKey) (*Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.lru.MoveToFront(el)
	cp := *el.Value.(*resultEntry).table
	cp.Stats.ResultCached = true
	return &cp, true
}

// put inserts a table, evicting least-recently-used entries until the
// budget holds. A table larger than the whole budget is not cached. A put
// for a newer epoch first evicts every entry of older epochs, and a late
// put for an epoch older than the newest seen is dropped: queries pin
// the latest snapshot, so such entries could only occupy budget. Static
// sources stay at epoch 0 and never prune.
func (c *resultCache) put(key resultKey, t *Table) {
	if c == nil || c.budget <= 0 {
		return
	}
	size := tableBytes(t)
	if size > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if key.epoch < c.epoch {
		return
	}
	if key.epoch > c.epoch {
		c.epoch = key.epoch
		for el := c.lru.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*resultEntry).key.epoch < key.epoch {
				c.evict(el)
			}
			el = next
		}
	}
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*resultEntry)
		c.bytes += size - ent.size
		ent.table, ent.size = t, size
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&resultEntry{key: key, table: t, size: size})
		c.bytes += size
	}
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.evict(c.lru.Back())
	}
}

// evict removes one entry and counts it. Callers hold c.mu.
func (c *resultCache) evict(el *list.Element) {
	ent := el.Value.(*resultEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	c.stats.Evictions++
}

// Stats returns a point-in-time copy of the counters.
func (c *resultCache) Stats() ResultCacheStats {
	if c == nil {
		return ResultCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.Bytes = c.bytes
	return st
}

// tableBytes approximates the resident size of a result table.
func tableBytes(t *Table) int64 {
	const (
		tableOverhead = 256
		rowOverhead   = 48 // slice headers + Row struct
		cellOverhead  = 16 // string header
	)
	size := int64(tableOverhead)
	for _, row := range t.Rows {
		size += rowOverhead
		for _, cell := range row {
			size += cellOverhead + int64(len(cell))
		}
	}
	for _, row := range t.TypedRows {
		size += rowOverhead + int64(8*len(row.Focal)) + int64(8*len(row.Counts))
	}
	for _, h := range t.Header {
		size += cellOverhead + int64(len(h))
	}
	return size
}
