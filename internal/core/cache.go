package core

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// Step-1 cache metrics on the process registry, summed across every
// incremental analyzer in the process. Per-instance numbers (the ones
// the reconciliation invariant hits + misses == lookups is checked
// against) come from IncrementalAnalyzer.CacheStats.
var (
	mCacheLookups   = obs.Default.Counter("core_step1_cache_lookups_total", "step-1 cache lookups across all incremental analyzers")
	mCacheHits      = obs.Default.Counter("core_step1_cache_hits_total", "step-1 cache hits across all incremental analyzers")
	mCacheMisses    = obs.Default.Counter("core_step1_cache_misses_total", "step-1 cache misses across all incremental analyzers")
	mCacheEvictions = obs.Default.Counter("core_step1_cache_evictions_total", "step-1 cache LRU evictions across all incremental analyzers")
)

// defaultStepCacheCap is the default bound on cached Step-1 outputs per
// incremental analyzer. One entry holds the analyzed events of one
// bundle, so the default comfortably covers the paper-scale corpora
// (tens of traces) and a production per-app working set, while keeping
// a hard ceiling on memory.
const defaultStepCacheCap = 4096

// CacheStats is a snapshot of one step cache's counters. Every lookup
// lands in exactly one of Hits or Misses, so
//
//	Hits + Misses == Lookups
//
// holds at any quiescent point.
type CacheStats struct {
	// Capacity is the cache's entry bound; Size is the current count.
	Capacity int `json:"capacity"`
	Size     int `json:"size"`
	// Lookups, Hits, Misses count get operations since creation.
	Lookups int64 `json:"lookups"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	// Evictions counts entries dropped to respect Capacity.
	Evictions int64 `json:"evictions"`
}

// HitRate returns Hits/Lookups (0 when nothing was looked up).
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// stepOneResult is one cached Step-1 outcome for a bundle content key:
// either the pristine analyzed trace or the deterministic Step-1 error
// (negative caching — a corrupt bundle stays corrupt, so its failure is
// as cacheable as a success).
type stepOneResult struct {
	at  *AnalyzedTrace
	err error
}

// stepCache is a concurrency-safe, bounded LRU of Step-1 outputs keyed
// by bundle content key. Cached AnalyzedTraces are pristine Step-1
// outputs and must never be handed to Steps 2–5 directly — callers
// take a fresh header (AnalyzedTrace.cloneStepOne), which shares only
// the never-written Events and keyIDs columns with the cache.
type stepCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // value: *cacheNode

	lookups, hits, misses, evictions int64
}

type cacheNode struct {
	key string
	res stepOneResult
}

// newStepCache builds a cache bounded to capacity entries (<= 0 means
// defaultStepCacheCap).
func newStepCache(capacity int) *stepCache {
	if capacity <= 0 {
		capacity = defaultStepCacheCap
	}
	return &stepCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the cached Step-1 result for key, marking it most
// recently used.
func (c *stepCache) get(key string) (stepOneResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups++
	mCacheLookups.Inc()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		mCacheMisses.Inc()
		return stepOneResult{}, false
	}
	c.hits++
	mCacheHits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheNode).res, true
}

// peek reports whether key is cached, without counting a lookup or
// touching its recency: a flush uses it to find the adds worth
// estimating ahead, and the get that follows does the accounting.
func (c *stepCache) peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// put stores the Step-1 result for key as most recently used, evicting
// the least recently used entries beyond capacity.
func (c *stepCache) put(key string, res stepOneResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheNode).res = res
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheNode{key: key, res: res})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheNode).key)
		c.evictions++
		mCacheEvictions.Inc()
	}
}

// stats snapshots the cache counters.
func (c *stepCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Size:      c.ll.Len(),
		Lookups:   c.lookups,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
