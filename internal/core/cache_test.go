package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// TestStepCacheLRUEviction pins the eviction policy: the entry that
// falls out is always the least recently *used* (gets refresh
// recency), never merely the oldest inserted.
func TestStepCacheLRUEviction(t *testing.T) {
	c := newStepCache(2)
	res := func(id string) stepOneResult {
		return stepOneResult{at: &AnalyzedTrace{TraceID: id}}
	}
	c.put("a", res("a"))
	c.put("b", res("b"))
	if _, ok := c.get("a"); !ok { // refresh a: now b is LRU
		t.Fatal("a missing right after put")
	}
	c.put("c", res("c")) // must evict b, not a
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; LRU order ignores get recency")
	}
	if r, ok := c.get("a"); !ok || r.at.TraceID != "a" {
		t.Fatal("recently used entry a was evicted")
	}
	if r, ok := c.get("c"); !ok || r.at.TraceID != "c" {
		t.Fatal("newest entry c missing")
	}
	st := c.stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("size/capacity = %d/%d, want 2/2", st.Size, st.Capacity)
	}
}

// TestStepCacheStatsReconcile pins the metric invariant
// hits + misses == lookups over a randomized-ish workload, and that
// size never exceeds capacity.
func TestStepCacheStatsReconcile(t *testing.T) {
	c := newStepCache(8)
	for i := 0; i < 200; i++ {
		// A few hot keys (hits) over a wide cold tail (misses +
		// evictions), so every counter moves.
		key := fmt.Sprintf("hot%d", i%3)
		if i%4 == 3 {
			key = fmt.Sprintf("cold%d", i)
		}
		if _, ok := c.get(key); !ok {
			c.put(key, stepOneResult{at: &AnalyzedTrace{TraceID: key}})
		}
		if st := c.stats(); st.Size > st.Capacity {
			t.Fatalf("iteration %d: size %d exceeds capacity %d", i, st.Size, st.Capacity)
		}
	}
	st := c.stats()
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.Lookups != 200 {
		t.Fatalf("lookups = %d, want 200", st.Lookups)
	}
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("workload should mix hits and misses, got %+v", st)
	}
	if got := st.HitRate(); got != float64(st.Hits)/float64(st.Lookups) {
		t.Fatalf("hit rate %v inconsistent with counters", got)
	}
	if (CacheStats{}).HitRate() != 0 {
		t.Fatal("zero-lookup hit rate must be 0")
	}
}

// TestStepCachePutExistingKey: re-putting a key updates in place (no
// growth, no eviction) and refreshes recency.
func TestStepCachePutExistingKey(t *testing.T) {
	c := newStepCache(2)
	c.put("a", stepOneResult{at: &AnalyzedTrace{TraceID: "a1"}})
	c.put("b", stepOneResult{at: &AnalyzedTrace{TraceID: "b"}})
	c.put("a", stepOneResult{at: &AnalyzedTrace{TraceID: "a2"}}) // update: a now MRU
	if st := c.stats(); st.Size != 2 || st.Evictions != 0 {
		t.Fatalf("update grew or evicted: %+v", st)
	}
	c.put("c", stepOneResult{at: &AnalyzedTrace{TraceID: "c"}}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived; update did not refresh a's recency")
	}
	if r, ok := c.get("a"); !ok || r.at.TraceID != "a2" {
		t.Fatal("updated value for a not served")
	}
}

// TestStepCacheDefaultCapacity: non-positive capacities fall back to
// the default bound.
func TestStepCacheDefaultCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		if got := newStepCache(capacity).stats().Capacity; got != defaultStepCacheCap {
			t.Fatalf("capacity %d -> %d, want %d", capacity, got, defaultStepCacheCap)
		}
	}
}

// TestEvictionThenRecomputeEquivalence: with a cache smaller than the
// corpus, every Report thrashes the LRU — evicted entries must be
// recomputed to byte-identical Step-1 outputs, so repeated reports
// never drift.
func TestEvictionThenRecomputeEquivalence(t *testing.T) {
	corpus := multiDeviceCorpus(t, 79)
	cfg := DefaultConfig()
	inc, err := NewIncrementalAnalyzer(cfg, 4) // corpus has 12 bundles
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Bundles {
		inc.Add(b)
	}
	var want []byte
	for round := 0; round < 3; round++ {
		report, err := inc.Report()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			want = data
			continue
		}
		if string(data) != string(want) {
			t.Fatalf("round %d: report drifted under eviction-recompute churn", round)
		}
	}
	st := inc.CacheStats()
	if st.Evictions == 0 {
		t.Fatal("cache never evicted; test is not exercising recompute")
	}
	if st.Size > 4 {
		t.Fatalf("cache size %d exceeds capacity 4", st.Size)
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Fatalf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
}

// TestStepOneEventsSharedAndNeverWritten pins the Step-1 column
// sharing: the cache, the analyzer's trace entries and the served
// reports hold one Events vector and one key-ID column per trace, and
// no stage of an add/remove/re-add/report cycle writes either — every
// cached vector stays byte-identical to a fresh estimate of its bundle.
func TestStepOneEventsSharedAndNeverWritten(t *testing.T) {
	corpus := multiDeviceCorpus(t, 83)
	inc, err := NewIncrementalAnalyzer(DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bundles := corpus.Bundles
	keys := make([]string, len(bundles))
	for i, b := range bundles {
		keys[i], _ = inc.Add(b)
	}
	report := func() *Report {
		t.Helper()
		r, _, err := inc.ReportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	last := report()
	for r := 0; r < 2*len(bundles); r++ {
		i := r % len(bundles)
		inc.Remove(keys[i])
		report()
		inc.Add(bundles[i])
		last = report()
	}

	served := make(map[string]*AnalyzedTrace, len(last.Traces))
	for _, at := range last.Traces {
		served[at.TraceID] = at
	}
	for i, b := range bundles {
		res, ok := inc.cache.get(keys[i])
		if !ok || res.err != nil {
			t.Fatalf("bundle %d: no cached Step-1 result (ok=%v err=%v)", i, ok, res.err)
		}
		fresh, err := inc.a.estimateEvents(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fresh.Events)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res.at.Events)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("bundle %d: cached Events differ from a fresh estimate: a stage wrote a shared vector", i)
		}
		if !reflect.DeepEqual(res.at.keyIDs, fresh.keyIDs) {
			t.Fatalf("bundle %d: cached key-ID column differs from a fresh estimate", i)
		}
		if len(res.at.Events) == 0 {
			continue
		}
		e := inc.cs.entries[keys[i]]
		if e == nil || &e.at.Events[0] != &res.at.Events[0] || &e.at.keyIDs[0] != &res.at.keyIDs[0] {
			t.Fatalf("bundle %d: the analyzer's entry holds its own copy of the Step-1 columns", i)
		}
		if at := served[b.Event.TraceID]; at == nil || &at.Events[0] != &res.at.Events[0] {
			t.Fatalf("bundle %d: the served report does not share the cached Events vector", i)
		}
	}
}
