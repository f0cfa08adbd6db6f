package server

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// A scan of one-off keys never gets past probation, so it occupies at
// most ⌈cap/4⌉ entries however long it runs.
func TestResultCacheScanHeldToProbation(t *testing.T) {
	for _, capacity := range []int{1, 2, 5, 16, 4096} {
		c := newResultCache(capacity)
		limit := (capacity + 3) / 4
		for i := 0; i < 3*capacity+10; i++ {
			c.Put(fmt.Sprintf("scan-%d", i), []byte("v"))
			if n := c.Len(); n > limit {
				t.Fatalf("cap %d: %d one-off keys cached, want ≤ %d", capacity, n, limit)
			}
		}
	}
}

// A key that has been hit once is protected: a long scan of one-off
// keys evicts only within probation and never displaces it.
func TestResultCacheHotKeySurvivesScan(t *testing.T) {
	c := newResultCache(16)
	c.Put("hot", []byte("H"))
	if _, ok := c.Get("hot"); !ok {
		t.Fatal("hot key missing right after Put")
	}
	for i := 0; i < 10_000; i++ {
		c.Put(fmt.Sprintf("scan-%d", i), []byte("v"))
	}
	if v, ok := c.Get("hot"); !ok || !bytes.Equal(v, []byte("H")) {
		t.Fatalf("hot key lost to a scan: %q, %v", v, ok)
	}
}

// A looping key set larger than probation is evicted from probation
// before its keys repeat; the ghost ring remembers them, so the repeat
// misses are admitted to protected and the next loop hits throughout.
func TestResultCacheLoopHitsThroughGhost(t *testing.T) {
	const capacity, loop = 16, 8 // probation holds 4, the ghost ring 8
	c := newResultCache(capacity)
	pass := func() (hits int) {
		for i := 0; i < loop; i++ {
			key := fmt.Sprintf("loop-%d", i)
			if _, ok := c.Get(key); ok {
				hits++
			} else {
				c.Put(key, []byte(key))
			}
		}
		return hits
	}
	pass()
	pass()
	if hits := pass(); hits != loop {
		t.Fatalf("third pass hit %d of %d looping keys", hits, loop)
	}
	if c.Len() != loop {
		t.Errorf("len = %d, want %d", c.Len(), loop)
	}
}

func TestResultCacheUpdateExisting(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", []byte("A1"))
	c.Put("a", []byte("A2"))
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("A2")) {
		t.Errorf("get a = %q, want A2", v)
	}
	// "a" is protected now; a Put there replaces its bytes too.
	c.Put("a", []byte("A3"))
	if v, _ := c.Get("a"); !bytes.Equal(v, []byte("A3")) || c.Len() != 1 {
		t.Errorf("get a = %q (len %d), want A3 (len 1)", v, c.Len())
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := newResultCache(0)
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Errorf("len = %d, want 0", c.Len())
	}
}

// TestResultCacheConcurrent exercises the cache under the race
// detector.
func TestResultCacheConcurrent(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				if v, ok := c.Get(key); ok && len(v) == 0 {
					t.Errorf("empty cached value for %s", key)
				}
				c.Put(key, []byte(key))
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Errorf("len = %d exceeds capacity", c.Len())
	}
}
