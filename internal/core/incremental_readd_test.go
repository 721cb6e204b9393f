package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests pin the audited remove-then-re-add semantics of the
// incremental analyzer: re-adding the same content key restores the
// exact prior corpus *content* (with the key re-entering the insertion
// order at the end — its original slot is gone), the Step-1 cache
// absorbs the re-estimation whether the retained entry is positive or
// negative, and the report after every such move stays byte-identical
// to a fresh batch analysis of the corpus in the analyzer's own order.
// Verdict from the audit: non-bug — the order move is the documented
// cost of cancellation, and no stale summary or cache state leaks.

func readdCorpus(t *testing.T) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.ByAppID("k9mail")
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, 17)
	cfg.Users = 6
	cfg.BrowsePhases = 3
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Bundles
}

// mustMatchBatch asserts the incremental report is byte-identical to a
// fresh batch analysis of the corpus in the analyzer's current order.
func mustMatchBatch(t *testing.T, cfg core.Config, ia *core.IncrementalAnalyzer) *core.Report {
	t.Helper()
	got, err := ia.Report()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Analyze(ia.Bundles())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("incremental report differs from batch analysis of the same corpus order (%d vs %d bytes)",
			len(gotJSON), len(wantJSON))
	}
	return got
}

// TestReAddSameWindowCancels: remove-then-re-add of the same content
// key before the next report cancels both pending ops — no summary
// churn, no cache lookup — but the key's corpus position moves to the
// end, and the report matches batch analysis of that new order.
func TestReAddSameWindowCancels(t *testing.T) {
	cfg := core.DefaultConfig()
	ia, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bundles := readdCorpus(t)
	keys := make([]string, len(bundles))
	for i, b := range bundles {
		keys[i], _ = ia.Add(b)
	}
	if _, err := ia.Report(); err != nil {
		t.Fatal(err)
	}
	before := ia.CacheStats()

	if !ia.Remove(keys[0]) {
		t.Fatal("remove of present key reported absent")
	}
	if _, added := ia.Add(bundles[0]); !added {
		t.Fatal("re-add after remove reported duplicate")
	}
	mustMatchBatch(t, cfg, ia)

	after := ia.CacheStats()
	if after.Lookups != before.Lookups {
		t.Fatalf("canceled remove/re-add still looked up the cache: %d -> %d lookups", before.Lookups, after.Lookups)
	}
	got := ia.Bundles()
	if got[len(got)-1] != bundles[0] {
		t.Fatal("re-added bundle is not at the end of the corpus order")
	}
	if len(got) != len(keys) {
		t.Fatalf("corpus size changed: %d -> %d", len(keys), len(got))
	}
}

// TestReAddAcrossWindowsWarmHit: with a report (and so a summary
// retraction) between the remove and the re-add, the re-add must be a
// Step-1 cache hit — the retained entry absorbs the re-estimation —
// and the report must again match batch analysis.
func TestReAddAcrossWindowsWarmHit(t *testing.T) {
	cfg := core.DefaultConfig()
	ia, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bundles := readdCorpus(t)
	keys := make([]string, len(bundles))
	for i, b := range bundles {
		keys[i], _ = ia.Add(b)
	}
	full := mustMatchBatch(t, cfg, ia)

	ia.Remove(keys[0])
	reduced := mustMatchBatch(t, cfg, ia)
	if reduced.TotalTraces != full.TotalTraces-1 {
		t.Fatalf("remove did not shrink the corpus: %d -> %d", full.TotalTraces, reduced.TotalTraces)
	}

	before := ia.CacheStats()
	ia.Add(bundles[0])
	restored := mustMatchBatch(t, cfg, ia)
	after := ia.CacheStats()
	if after.Misses != before.Misses {
		t.Fatalf("re-add of cached content missed the cache: %d -> %d misses", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Fatalf("re-add of cached content: %d -> %d hits, want +1", before.Hits, after.Hits)
	}
	if restored.TotalTraces != full.TotalTraces {
		t.Fatalf("re-add did not restore the corpus: %d traces, want %d", restored.TotalTraces, full.TotalTraces)
	}
}

// TestReAddAfterEviction: a tiny cache evicts the removed key's entry
// before the re-add; the re-add re-estimates (a miss) and the corpus
// state is still exactly restored.
func TestReAddAfterEviction(t *testing.T) {
	cfg := core.DefaultConfig()
	ia, err := core.NewIncrementalAnalyzer(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	bundles := readdCorpus(t)
	keys := make([]string, len(bundles))
	for i, b := range bundles {
		keys[i], _ = ia.Add(b)
	}
	if len(bundles) <= 3 {
		t.Fatalf("corpus too small (%d) to exercise eviction", len(bundles))
	}
	mustMatchBatch(t, cfg, ia) // fills the cache; keys[0]'s entry evicted by later adds

	ia.Remove(keys[0])
	mustMatchBatch(t, cfg, ia)

	before := ia.CacheStats()
	if before.Evictions == 0 {
		t.Fatal("tiny cache recorded no evictions")
	}
	ia.Add(bundles[0])
	mustMatchBatch(t, cfg, ia)
	after := ia.CacheStats()
	if after.Misses != before.Misses+1 {
		t.Fatalf("re-add after eviction: %d -> %d misses, want +1 (re-estimation)", before.Misses, after.Misses)
	}
}

// TestReAddNegativeEntry: a deterministically corrupt bundle's Step-1
// failure is cached too; remove-then-re-add of the corrupt content is
// a cache *hit* that restores the same skipped-trace report.
func TestReAddNegativeEntry(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	ia, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bundles := readdCorpus(t)
	for _, b := range bundles {
		ia.Add(b)
	}
	corrupt := *bundles[0]
	corrupt.Event.Device = "no-such-device"
	corrupt.Event.TraceID = corrupt.Event.TraceID + "-corrupt"
	corrupt.Key = "" // content changed; let the analyzer re-hash
	corruptKey, added := ia.Add(&corrupt)
	if !added {
		t.Fatal("corrupt bundle deduplicated against the pristine one")
	}

	full := mustMatchBatch(t, cfg, ia)
	if len(full.Skipped) != 1 {
		t.Fatalf("corrupt bundle not skipped: %d skipped traces", len(full.Skipped))
	}

	ia.Remove(corruptKey)
	reduced := mustMatchBatch(t, cfg, ia)
	if len(reduced.Skipped) != 0 {
		t.Fatalf("removed corrupt bundle still skipped: %+v", reduced.Skipped)
	}

	before := ia.CacheStats()
	ia.Add(&corrupt)
	restored := mustMatchBatch(t, cfg, ia)
	after := ia.CacheStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("negative entry re-add: hits %d -> %d, misses %d -> %d; want a single hit",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if len(restored.Skipped) != 1 || restored.Skipped[0].TraceID != corrupt.Event.TraceID {
		t.Fatalf("re-added corrupt bundle not skipped again: %+v", restored.Skipped)
	}
}

// TestSyncReplacesCorpus: Sync makes a bundle list the whole corpus.
// Survivors keep their positions, new bundles append in list order, a
// bundle listed twice counts once, and the report matches batch.
func TestSyncReplacesCorpus(t *testing.T) {
	cfg := core.DefaultConfig()
	ia, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	bundles := readdCorpus(t)
	n := len(bundles)
	if added, removed := ia.Sync(bundles[:n-2]); added != n-2 || removed != 0 {
		t.Fatalf("first sync: +%d/-%d, want +%d/-0", added, removed, n-2)
	}
	mustMatchBatch(t, cfg, ia)

	// Drop the first two bundles, keep the middle, add the last two.
	next := append([]*trace.TraceBundle{bundles[n-1]}, bundles[2:n-2]...)
	next = append(next, bundles[n-2], bundles[n-1])
	if added, removed := ia.Sync(next); added != 2 || removed != 2 {
		t.Fatalf("second sync: +%d/-%d, want +2/-2", added, removed)
	}
	want := append(append([]*trace.TraceBundle(nil), bundles[2:n-2]...), bundles[n-1], bundles[n-2])
	got := ia.Bundles()
	if len(got) != len(want) {
		t.Fatalf("corpus holds %d bundles, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("corpus position %d holds the wrong bundle", i)
		}
	}
	mustMatchBatch(t, cfg, ia)
	if added, removed := ia.Sync(next); added != 0 || removed != 0 {
		t.Fatalf("repeated sync: +%d/-%d, want no change", added, removed)
	}
}
