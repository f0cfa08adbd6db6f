package server

import (
	"container/list"
	"sync"
)

// resultCache is a fixed-capacity cache from request identity to the
// encoded response bytes. Caching encoded bytes (rather than decoded
// values) makes the hit path allocation-free apart from the write, and
// guarantees cached responses are byte-identical to freshly computed
// ones.
//
// Admission is segmented, after 2Q (Johnson & Shasha, VLDB '94), so a
// stream of one-off keys (fresh query points) cannot flush the entries
// that repeat:
//
//   - a new key enters probation, an LRU segment capped at ⌈max/4⌉;
//   - a hit on a probation entry promotes it to protected, the LRU
//     segment holding the rest of the capacity;
//   - an entry evicted from probation leaves the FNV-1a hash of its key
//     in a ghost ring of at most max/2 hashes, and a miss whose key is
//     still in the ring is admitted straight to protected — a looping
//     key set larger than probation still gets cached.
//
// Lookups compare full keys; the ghost hashes only steer admission, so
// a hash collision can at worst admit a one-off key to protected.
type resultCache struct {
	mu        sync.Mutex
	max       int
	probation *list.List // never-hit entries, most recent at the front
	protected *list.List
	items     map[string]*list.Element
	ghost     ghostRing
}

type cacheEntry struct {
	key       string
	val       []byte
	protected bool
}

// newResultCache builds a cache holding at most max entries; max ≤ 0
// disables caching (every Get misses, every Put is dropped).
func newResultCache(max int) *resultCache {
	c := &resultCache{
		max:       max,
		probation: list.New(),
		protected: list.New(),
		items:     make(map[string]*list.Element),
	}
	if max > 0 {
		c.ghost = newGhostRing(max / 2)
	}
	return c
}

// probationCap is the probation segment's capacity, ⌈max/4⌉.
func (c *resultCache) probationCap() int { return (c.max + 3) / 4 }

// Get returns the cached bytes for key, promoting a probation entry to
// protected. The returned slice is shared: callers must not mutate it.
func (c *resultCache) Get(key string) ([]byte, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.protected {
		c.protected.MoveToFront(el)
	} else {
		c.probation.Remove(el)
		e.protected = true
		c.items[key] = c.protected.PushFront(e)
	}
	return e.val, true
}

// Put stores val under key: into protected when the key is already
// cached there or was recently evicted from probation, otherwise into
// probation. It then evicts down to the segment and total caps.
func (c *resultCache) Put(key string, val []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val = val
		if e.protected {
			c.protected.MoveToFront(el)
		} else {
			c.probation.MoveToFront(el)
		}
		return
	}
	e := &cacheEntry{key: key, val: val}
	if c.ghost.contains(fnv64a(key)) {
		e.protected = true
		c.items[key] = c.protected.PushFront(e)
	} else {
		c.items[key] = c.probation.PushFront(e)
	}
	for c.probation.Len() > c.probationCap() {
		c.evict(c.probation)
	}
	for c.probation.Len()+c.protected.Len() > c.max {
		if c.protected.Len() > 0 {
			c.evict(c.protected)
		} else {
			c.evict(c.probation)
		}
	}
}

// evict drops the least-recently-used entry of seg; a probation victim
// leaves its key hash in the ghost ring.
func (c *resultCache) evict(seg *list.List) {
	e := seg.Remove(seg.Back()).(*cacheEntry)
	delete(c.items, e.key)
	if seg == c.probation {
		c.ghost.add(fnv64a(e.key))
	}
}

// Len returns the number of cached entries.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probation.Len() + c.protected.Len()
}

// ghostRing remembers the last len(ring) key hashes evicted from
// probation: a fixed ring plus a multiset for membership, so an add
// overwrites the oldest hash in O(1).
type ghostRing struct {
	ring  []uint64
	next  int
	count map[uint64]int
	full  bool
}

func newGhostRing(n int) ghostRing {
	return ghostRing{ring: make([]uint64, n), count: make(map[uint64]int, n)}
}

func (g *ghostRing) add(h uint64) {
	if len(g.ring) == 0 {
		return
	}
	if g.full {
		old := g.ring[g.next]
		if g.count[old]--; g.count[old] == 0 {
			delete(g.count, old)
		}
	}
	g.ring[g.next] = h
	g.count[h]++
	if g.next++; g.next == len(g.ring) {
		g.next, g.full = 0, true
	}
}

func (g *ghostRing) contains(h uint64) bool { return g.count[h] > 0 }

// fnv64a is the 64-bit FNV-1a hash of s.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
