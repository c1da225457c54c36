package plan

import (
	"container/heap"
	"slices"
)

// The planner's result cache models the controller's DRAM holding hot
// intermediate query results. A hit replaces a chained flash operation
// (tens of microseconds of sensing plus reallocation programs) with a
// DRAM fetch; the eviction policy keeps the entries whose loss would cost
// the most to repair: a victim's retention value is its measured
// recompute time per byte of DRAM it occupies.
//
// Correctness comes from FTL mapping versions: every entry snapshots the
// version of each logical page its value was derived from, and a lookup
// revalidates the snapshot. Any overwrite, trim, GC migration or
// bad-block retirement bumps a version (ftl.FTL.Version), so a stale
// intermediate can never be served — at worst a content-preserving
// migration costs a spurious recompute.

// CacheStats counts cache activity.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
	// Bytes is the current occupancy; Entries the current entry count.
	Bytes   int64
	Entries int64
}

type entry struct {
	key  Key
	data []byte
	// deps and vers snapshot the FTL mapping versions of every logical
	// page the value derives from, parallel slices.
	deps []uint64
	vers []uint64
	// score is the retention value, fixed at Put: the seconds its
	// computation took per byte held, so big cheap values lose to small
	// expensive ones.
	score   float64
	lastUse uint64
	// index is the entry's position in Cache.order.
	index int
}

// entryHeap orders entries by eviction preference: lowest score first,
// least recently used among equal scores.
type entryHeap []*entry

func (h entryHeap) Len() int { return len(h) }

func (h entryHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	return a.score < b.score || (a.score == b.score && a.lastUse < b.lastUse)
}

func (h entryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *entryHeap) Push(x any) {
	e := x.(*entry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *entryHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

// Cache is a capacity-bounded result store keyed by structural keys
// (Key). Not safe for concurrent use; the owning device serializes
// access.
type Cache struct {
	capacity int64
	used     int64
	// entries maps a key's hash to the one entry stored under it.
	entries map[uint64]*entry
	// order heaps the entries by eviction preference, root first.
	order entryHeap
	// spare holds removed entries, whose buffers the next Put reuses.
	spare []*entry
	clock uint64
	stats CacheStats
}

// NewCache builds a cache bounded to capacity bytes of simulated
// controller DRAM. capacity <= 0 disables the cache: every lookup misses
// and stores are dropped.
func NewCache(capacity int64) *Cache {
	return &Cache{
		capacity: capacity,
		entries:  map[uint64]*entry{},
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() CacheStats {
	s := c.stats
	s.Bytes = c.used
	s.Entries = int64(len(c.entries))
	return s
}

// Get returns the cached value for key if present and still valid under
// the current FTL mapping versions (verOf). An entry stored under the
// same hash for another structure is a miss. The returned slice is the
// caller's to keep.
func (c *Cache) Get(key Key, verOf func(lpn uint64) uint64) ([]byte, bool) {
	e, ok := c.entries[key.Hash]
	if !ok || !slices.Equal(e.key.Shape, key.Shape) {
		c.stats.Misses++
		return nil, false
	}
	for i, lpn := range e.deps {
		if verOf(lpn) != e.vers[i] {
			// An operand was overwritten, trimmed or migrated since the
			// value was computed: drop the entry and miss.
			c.remove(e)
			c.stats.Invalidations++
			c.stats.Misses++
			return nil, false
		}
	}
	c.clock++
	e.lastUse = c.clock
	heap.Fix(&c.order, e.index)
	c.stats.Hits++
	return append([]byte(nil), e.data...), true
}

// Put stores a computed value: its key, the logical pages it derives
// from (whose versions are snapshotted via verOf), and the measured
// seconds the computation took. It replaces whatever entry its hash
// names, and reuses the buffers of the entries it removes. Values larger
// than the whole cache are not stored.
func (c *Cache) Put(key Key, data []byte, deps []uint64, verOf func(lpn uint64) uint64, costSeconds float64) {
	size := int64(len(data))
	if size == 0 || size > c.capacity {
		return
	}
	if old, ok := c.entries[key.Hash]; ok {
		c.remove(old)
	}
	for c.used+size > c.capacity {
		if !c.evictOne() {
			return
		}
	}
	var e *entry
	if n := len(c.spare); n > 0 {
		e, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		e = new(entry)
	}
	e.key.Hash = key.Hash
	e.key.Shape = append(e.key.Shape[:0], key.Shape...)
	e.data = append(e.data[:0], data...)
	e.deps = append(e.deps[:0], deps...)
	e.vers = e.vers[:0]
	for _, lpn := range deps {
		e.vers = append(e.vers, verOf(lpn))
	}
	c.clock++
	e.score = costSeconds / float64(size)
	e.lastUse = c.clock
	c.entries[key.Hash] = e
	heap.Push(&c.order, e)
	c.used += size
}

func (c *Cache) remove(e *entry) {
	delete(c.entries, e.key.Hash)
	heap.Remove(&c.order, e.index)
	c.used -= int64(len(e.data))
	c.spare = append(c.spare, e)
}

// evictOne removes the lowest-value entry, the heap's root
// (least-recently-used breaks ties deterministically: lastUse values are
// unique). Returns false when the cache is already empty.
func (c *Cache) evictOne() bool {
	if len(c.order) == 0 {
		return false
	}
	c.remove(c.order[0])
	c.stats.Evictions++
	return true
}
