package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Incremental-analysis metrics on the process registry. The hit-rate
// and computed gauges describe the most recent Report; the histogram
// accumulates incremental re-analysis wall times so they can be
// compared against full-batch runs (core_analyses timings / the sweep
// benchmarks) on one dashboard.
var (
	mIncReports  = obs.Default.Counter("core_incremental_reports_total", "completed IncrementalAnalyzer.Report runs")
	hIncReport   = obs.Default.Histogram("core_incremental_report_seconds", "wall time of incremental re-analysis runs", nil)
	gIncHitRate  = obs.Default.Gauge("core_incremental_last_hit_rate", "step-1 cache hit rate of the most recent incremental report")
	gIncComputed = obs.Default.Gauge("core_incremental_last_step1_computed", "bundles needing fresh step-1 work in the most recent incremental report")
	gIncCorpus   = obs.Default.Gauge("core_incremental_corpus_bundles", "bundles currently in the most recently reported incremental corpus")
)

// cloneStepOne returns a fresh pristine Step-1 header for the trace:
// identity fields, the Events vector and its key-ID column, with every
// derived (Steps 2–5) field zero — exactly the state estimateEvents
// leaves a new trace in. Events and keyIDs are shared with the cached
// original, not copied: no stage writes either (Steps 2–5 write fresh
// derived columns, and ensureKeyIDs only ever allocates a new column),
// so the cache, the analyzer's entries and every served report may all
// hold one copy. The header itself is fresh, so Steps 2–5 filling in
// the clone never reach the cached original.
func (at *AnalyzedTrace) cloneStepOne() *AnalyzedTrace {
	return &AnalyzedTrace{
		TraceID: at.TraceID,
		UserID:  at.UserID,
		Device:  at.Device,
		Events:  at.Events,
		keyIDs:  at.keyIDs,
	}
}

// pendingOp is one queued corpus mutation awaiting application. An add
// carries its bundle, so applying it needs nothing from the intake.
type pendingOp struct {
	key string // "" marks a canceled (tombstoned) op
	b   *trace.TraceBundle
	add bool
}

// IncrementalAnalyzer maintains a mutable corpus and re-analyzes it
// sublinearly. Step 1 (power estimation, per trace and pure in the
// bundle's content) is cached in a bounded LRU keyed by the bundle's
// content key, and a flush's misses are estimated over
// Config.Parallelism workers; Steps 2–5 are served from per-event-key
// order-statistic summaries (see summaries.go) that each flush updates
// with one sorted merge per touched key, O(D + B log B) for D distinct
// powers of the key (about 100 on a 5,000-session corpus) and B of its
// powers in the flush, with normalization/detection
// re-run only for traces whose cross-trace inputs (key multisets, base
// powers) actually changed. Report is byte-identical to Analyzer.Analyze over the same
// bundles in the same order — the summary queries are bit-identical to
// the batch statistics and the remaining stages run the same code — and
// the differential harness (TestIncrementalMatchesBatch) pins the
// equivalence after every mutation.
//
// Add and Remove only queue the mutation (O(1) on the ingest path);
// Refresh or Report applies the queue. All methods are safe for
// concurrent use. The corpus and its queue sit behind their own intake
// lock, which a report holds only while it takes the queue and a copy
// of the corpus order, so Add, Remove, Contains and Len never wait for
// a report's analysis or encoding. A report reflects exactly the corpus
// at its start; a mutation landing while it runs shows in the next one.
type IncrementalAnalyzer struct {
	a *Analyzer

	// intake guards the corpus as submitted: order, orderIdx,
	// tombstones, bundles and the pending queue.
	intake sync.Mutex
	// order holds content keys in corpus (insertion) order. Removal
	// tombstones the slot ("") instead of splicing, so Remove stays O(1)
	// on a 10k-bundle corpus; compactOrder rewrites the slice once
	// tombstones outnumber live keys, keeping walks amortized O(live).
	order      []string
	orderIdx   map[string]int // live key -> index in order
	tombstones int
	bundles    map[string]*trace.TraceBundle
	pending    []pendingOp
	pendingIdx map[string]int // key -> outstanding index in pending

	// mu serializes analysis: it guards everything below, and a report
	// or refresh holds it throughout. It is taken before intake, never
	// after.
	mu    sync.Mutex
	cache *stepCache
	cs    *corpusState
	// drained is the spare pending queue takeIntake swaps in, so
	// draining the queue allocates nothing; live is the reused buffer a
	// report copies the live corpus order into.
	drained []pendingOp
	live    []string

	// Step-1 cache activity since the last Report, feeding the gauges.
	lookups, hits int64
	fresh         int
	// Stale-trace counts recomputed by the most recent Report.
	lastRankDirty, lastDetectDirty int
}

// NewIncrementalAnalyzer validates the configuration and builds an
// incremental analyzer whose Step-1 cache holds up to cacheCap bundles
// (<= 0 means the default, 4096).
func NewIncrementalAnalyzer(cfg Config, cacheCap int) (*IncrementalAnalyzer, error) {
	a, err := NewAnalyzer(cfg)
	if err != nil {
		return nil, err
	}
	return &IncrementalAnalyzer{
		a:          a,
		orderIdx:   make(map[string]int),
		bundles:    make(map[string]*trace.TraceBundle),
		cache:      newStepCache(cacheCap),
		cs:         newCorpusState(),
		pendingIdx: make(map[string]int),
	}, nil
}

// bundleKey returns the bundle's dedup/cache key: the stamped content
// key when the uploader provided one (the collection server has already
// verified it against the content), else the content hash computed
// here.
func bundleKey(b *trace.TraceBundle) string {
	if b.Key != "" {
		return b.Key
	}
	return trace.ContentKey(b)
}

// queue records a corpus mutation for key. An outstanding opposite op
// cancels instead of stacking: the corpus is content-keyed, so
// remove-then-re-add restores the exact prior state and both ops can be
// dropped. The invariant this preserves — at most one outstanding op
// per key, and its direction always flips the key's applied state —
// is what lets applyAdd/applyRemove skip existence re-checks. Callers
// hold ia.intake.
func (ia *IncrementalAnalyzer) queue(key string, b *trace.TraceBundle, add bool) {
	if i, ok := ia.pendingIdx[key]; ok {
		ia.pending[i] = pendingOp{}
		delete(ia.pendingIdx, key)
		return
	}
	ia.pendingIdx[key] = len(ia.pending)
	ia.pending = append(ia.pending, pendingOp{key: key, b: b, add: add})
}

// takeIntake takes the pending mutation queue and, with snapshot set,
// a copy of the live keys in corpus order. Both come from one intake
// critical section, so the keys are exactly the corpus that applying
// the ops makes. The returned slices are reused: ops by the next
// takeIntake after applyOps has returned it, live by the next
// snapshot. Callers hold ia.mu.
func (ia *IncrementalAnalyzer) takeIntake(snapshot bool) (ops []pendingOp, live []string) {
	ia.intake.Lock()
	defer ia.intake.Unlock()
	ops = ia.pending
	ia.pending = ia.drained[:0]
	ia.drained = nil
	for _, op := range ops {
		// Delete per key rather than clear()ing: a map clear zeroes the
		// whole table, whose capacity is the historical high-water mark
		// (the initial bulk load), turning every later one-bundle Refresh
		// into an O(N) sweep.
		if op.key != "" {
			delete(ia.pendingIdx, op.key)
		}
	}
	if snapshot {
		live = ia.live[:0]
		for _, k := range ia.order {
			if k != "" {
				live = append(live, k)
			}
		}
		ia.live = live
	}
	return ops, live
}

// applyOps applies mutations taken by takeIntake to the corpus state
// and keeps the slice as the next spare queue. Step 1 of the adds the
// cache lacks runs ahead over the workers (estimateAhead); the ops then
// apply serially in queue order, so the cache sees its gets and puts in
// the same order at any worker count. The flush's powers merge into the
// per-key summaries at the end, one sorted batch per key (mergeFlush).
// Callers hold ia.mu.
func (ia *IncrementalAnalyzer) applyOps(ops []pendingOp) {
	ahead := ia.estimateAhead(ops)
	for i, op := range ops {
		switch {
		case op.key == "":
		case op.add:
			var pre stepOneResult
			if ahead != nil {
				pre = ahead[i]
			}
			ia.applyAdd(op.key, op.b, pre)
		default:
			ia.applyRemove(op.key)
		}
	}
	ia.mergeFlush()
	clear(ops) // release key and bundle refs; O(ops drained), not O(cap)
	ia.drained = ops[:0]
}

// estimateAhead runs Step 1 over Config.Parallelism workers for the
// adds in ops whose key the Step-1 cache lacks, and returns the results
// parallel to ops, zero where it estimated nothing. It returns nil when
// the fan-out would be one chunk (refreshChunks): at one worker, and
// for a flush of fewer than 128 adds or misses, Step 1 stays inline in
// applyAdd. The cache is only peeked here; applyAdd's get and put do
// the accounting, so lookups, hits, misses and evictions are the
// serial path's.
func (ia *IncrementalAnalyzer) estimateAhead(ops []pendingOp) []stepOneResult {
	workers := ia.a.cfg.Parallelism
	adds := 0
	for _, op := range ops {
		if op.add {
			adds++
		}
	}
	if refreshChunks(workers, adds) == 1 {
		return nil
	}
	var miss []int
	for i, op := range ops {
		if op.add && !ia.cache.peek(op.key) {
			miss = append(miss, i)
		}
	}
	k := refreshChunks(workers, len(miss))
	if k == 1 {
		return nil
	}
	ahead := make([]stepOneResult, len(ops))
	_ = forChunks(workers, len(miss), k, func(lo, hi int) error {
		for _, i := range miss[lo:hi] {
			at, err := ia.a.estimateEvents(ops[i].b)
			ahead[i] = stepOneResult{at: at, err: err}
		}
		return nil
	})
	return ahead
}

// Refresh applies all pending corpus mutations to the per-key summaries
// and bases without producing a report: O(E·D) for a one-bundle flush
// of E events. It is
// summary maintenance only; no trace is ranked or detected until the
// next Report, which refreshes new and stale traces alike (and applies
// any pending mutations itself, so calling Refresh first is optional).
func (ia *IncrementalAnalyzer) Refresh() {
	ia.mu.Lock()
	defer ia.mu.Unlock()
	ops, _ := ia.takeIntake(false)
	ia.applyOps(ops)
}

// Add appends the bundle to the corpus and returns its content key.
// Adding a bundle whose content is already in the corpus is a no-op
// (added == false): content-keyed deduplication makes re-delivery after
// a lost ack idempotent end to end. The summary update is deferred to
// the next Refresh or Report.
func (ia *IncrementalAnalyzer) Add(b *trace.TraceBundle) (key string, added bool) {
	key = bundleKey(b)
	ia.intake.Lock()
	defer ia.intake.Unlock()
	return key, ia.addLocked(key, b)
}

// addLocked is Add with the key computed. Callers hold ia.intake.
func (ia *IncrementalAnalyzer) addLocked(key string, b *trace.TraceBundle) bool {
	if _, ok := ia.bundles[key]; ok {
		return false
	}
	ia.bundles[key] = b
	ia.orderIdx[key] = len(ia.order)
	ia.order = append(ia.order, key)
	ia.queue(key, b, true)
	return true
}

// Remove deletes the bundle with the given content key from the corpus,
// reporting whether it was present. The Step-1 cache entry is kept (it
// is content-addressed, so a later re-add is a cache hit); the bounded
// LRU retires it if it stays cold. The summary retraction is deferred
// to the next Refresh or Report.
func (ia *IncrementalAnalyzer) Remove(key string) bool {
	ia.intake.Lock()
	defer ia.intake.Unlock()
	return ia.removeLocked(key)
}

// removeLocked is Remove. Callers hold ia.intake.
func (ia *IncrementalAnalyzer) removeLocked(key string) bool {
	if _, ok := ia.bundles[key]; !ok {
		return false
	}
	delete(ia.bundles, key)
	ia.order[ia.orderIdx[key]] = ""
	delete(ia.orderIdx, key)
	ia.tombstones++
	if ia.tombstones > len(ia.bundles) {
		ia.compactOrder()
	}
	ia.queue(key, nil, false)
	return true
}

// Sync makes bundles, in order, the whole corpus: it adds each bundle
// whose content is not yet present and removes every bundle whose
// content key is not among them, and returns how many it added and
// removed. Survivors keep their corpus positions and new bundles
// append, as with Add and Remove. The whole diff runs under the intake
// lock, so a report sees the corpus either wholly before or wholly
// after the sync.
func (ia *IncrementalAnalyzer) Sync(bundles []*trace.TraceBundle) (added, removed int) {
	keys := make([]string, len(bundles))
	live := make(map[string]bool, len(bundles))
	for i, b := range bundles {
		keys[i] = bundleKey(b)
		live[keys[i]] = true
	}
	ia.intake.Lock()
	defer ia.intake.Unlock()
	for i, b := range bundles {
		if ia.addLocked(keys[i], b) {
			added++
		}
	}
	var gone []string
	for _, k := range ia.order {
		if k != "" && !live[k] {
			gone = append(gone, k)
		}
	}
	for _, k := range gone {
		ia.removeLocked(k) // may compact ia.order, hence the copy
	}
	return added, len(gone)
}

// compactOrder rewrites ia.order without tombstones and reindexes the
// surviving keys. Insertion order of live keys is preserved, so the
// corpus order a Report sees is unchanged. Callers hold ia.intake.
func (ia *IncrementalAnalyzer) compactOrder() {
	live := ia.order[:0]
	for _, k := range ia.order {
		if k == "" {
			continue
		}
		ia.orderIdx[k] = len(live)
		live = append(live, k)
	}
	clear(ia.order[len(live):]) // release key refs in the trimmed tail
	ia.order = live
	ia.tombstones = 0
}

// Contains reports whether a bundle with the given content key is in
// the corpus.
func (ia *IncrementalAnalyzer) Contains(key string) bool {
	ia.intake.Lock()
	defer ia.intake.Unlock()
	_, ok := ia.bundles[key]
	return ok
}

// Len returns the number of bundles in the corpus.
func (ia *IncrementalAnalyzer) Len() int {
	ia.intake.Lock()
	defer ia.intake.Unlock()
	return len(ia.bundles)
}

// Bundles returns the corpus's bundles in insertion order (a fresh
// slice; the bundles themselves are shared and treated as immutable
// everywhere in the pipeline). It is the read side what-if analyses are
// built on: a caller can run a fresh Analyzer with different knobs over
// exactly the served corpus without touching this analyzer's caches,
// summaries, or pending mutations.
func (ia *IncrementalAnalyzer) Bundles() []*trace.TraceBundle {
	ia.intake.Lock()
	defer ia.intake.Unlock()
	out := make([]*trace.TraceBundle, 0, len(ia.bundles))
	for _, k := range ia.order {
		if k != "" {
			out = append(out, ia.bundles[k])
		}
	}
	return out
}

// CacheStats snapshots the Step-1 cache counters.
func (ia *IncrementalAnalyzer) CacheStats() CacheStats {
	return ia.cache.stats()
}

// Report re-analyzes the current corpus: pending mutations are applied
// to the per-key summaries, then only the traces whose ranks or bases
// went stale are recomputed — exactly as Analyzer.Analyze would compute
// them, byte for byte. The returned report is read-only and shared: its
// traces are the analyzer's own values, which are never written after a
// report holds them (a later refresh replaces a trace instead of
// mutating it), so a caller may hold it indefinitely — a served report
// outliving many re-analyses — and successive reports share every trace
// that did not change. Callers must not write through it; the slices
// returned by TopEvents and TopKeys are copies and may be modified.
// Report does no JSON encoding work; ReportJSON is the serving variant
// that also returns the encoded report.
func (ia *IncrementalAnalyzer) Report() (*Report, error) {
	ia.mu.Lock()
	defer ia.mu.Unlock()
	report, _, err := ia.reportLocked()
	return report, err
}

// reportLocked is Report's body. Besides the report it returns the
// analyzed entries in corpus order, parallel to report.Traces, which
// ReportJSON encodes from. Callers hold ia.mu.
func (ia *IncrementalAnalyzer) reportLocked() (*Report, []*traceEntry, error) {
	return ia.reportOnLocked(ia.takeIntake(true))
}

// reportOnLocked is reportLocked after the intake: it applies ops and
// reports on live, the corpus they make. Callers hold ia.mu.
func (ia *IncrementalAnalyzer) reportOnLocked(ops []pendingOp, live []string) (*Report, []*traceEntry, error) {
	start := time.Now()
	tr := ia.a.cfg.Tracer
	if tr == nil {
		tr = obs.NewTracer()
	}
	root := tr.Start("analyze")
	s1 := root.Child("step1.estimate")
	ia.applyOps(ops)
	if len(live) == 0 {
		s1.End()
		root.End()
		return nil, nil, ErrNoTraces
	}
	rec1 := s1.End()

	// Partition the corpus into analyzable entries and skipped traces,
	// mirroring stepOneAll's slot scan (including strict-mode errors on
	// the lowest failing index).
	entries := make([]*traceEntry, 0, len(live))
	var skipped []SkippedTrace
	for idx, key := range live {
		e := ia.cs.entries[key]
		if e.err != nil {
			if !ia.a.cfg.SkipInvalidTraces {
				return nil, nil, fmt.Errorf("trace %d (%s): %w", idx, e.traceID, e.err)
			}
			skipped = append(skipped, SkippedTrace{Index: idx, TraceID: e.traceID, Reason: e.err.Error()})
			continue
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("core: all %d traces invalid (first: %s)", len(live), skipped[0].Reason)
	}

	// Steps 2–4 fan out over contiguous chunks of the corpus (Step 2) or
	// of the detect-stale set (Steps 3–4): each entry is in one chunk and
	// the shared state — summaries, bases, epochs — is only read.
	workers := ia.a.cfg.Parallelism

	// Step 2: re-rank only traces whose key multisets changed.
	s2 := root.Child("step2.rank")
	var rankDirty atomic.Int64
	_ = forChunks(workers, len(entries), refreshChunks(workers, len(entries)), func(lo, hi int) error {
		rankDirty.Add(int64(ia.rerank(entries[lo:hi])))
		return nil
	})
	rec2 := s2.End()

	// Step 3: re-normalize only traces whose base powers changed.
	s3 := root.Child("step3.normalize")
	var detectDirty []*traceEntry
	for _, e := range entries {
		if e.baseStale(ia.cs) {
			detectDirty = append(detectDirty, e)
		}
	}
	k := refreshChunks(workers, len(detectDirty))
	_ = forChunks(workers, len(detectDirty), k, func(lo, hi int) error {
		ia.renormalize(detectDirty[lo:hi])
		return nil
	})
	rec3 := s3.End()

	// Step 4: re-detect the same traces. Each chunk stops at its first
	// failure, and the results fold into the Step-5 aggregates serially,
	// in corpus order, up to the lowest failing index — the trace whose
	// error the batch fan-out returns. A failing trace is always stale
	// (errors never stamp), and so is every unfolded one after it, so
	// the next report recomputes them all.
	s4 := root.Child("step4.detect")
	failed := len(detectDirty)
	var err error
	ferr := forChunks(workers, len(detectDirty), k, func(lo, hi int) error {
		if i, err := ia.redetect(detectDirty[lo:hi]); err != nil {
			return &detectFailure{index: lo + i, err: err}
		}
		return nil
	})
	if df, ok := ferr.(*detectFailure); ok {
		failed, err = df.index, df.err
	}
	for _, e := range detectDirty[:failed] {
		ia.foldDetect(e)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("trace %s: %w", detectDirty[failed].at.TraceID, err)
	}
	rec4 := s4.End()

	report := &Report{
		TotalTraces:    len(entries),
		ImpactedTraces: ia.cs.impactedTraces,
		Skipped:        skipped,
	}
	for _, key := range live {
		if app := ia.cs.entries[key].appID; app != "" {
			report.AppID = app
			break
		}
	}
	traces := make([]*AnalyzedTrace, len(entries))
	for i, e := range entries {
		traces[i] = e.at
		e.held = true
	}
	report.Traces = traces

	// Step 5: the impact table from the maintained membership counts,
	// assembled and sorted by the same code as the batch finish.
	s5 := root.Child("step5.impacts")
	report.Impacted = ia.a.impactsFromCounts(ia.cs.impact, report.TotalTraces)
	rec5 := s5.End()
	recTotal := root.End()

	report.Stages = []StageTiming{
		{Step: 1, Name: "estimate", Wall: rec1.Wall(), CPU: rec1.CPU(), Items: len(live)},
		{Step: 2, Name: "rank", Wall: rec2.Wall(), CPU: rec2.CPU(), Items: int(rankDirty.Load())},
		{Step: 3, Name: "normalize", Wall: rec3.Wall(), CPU: rec3.CPU(), Items: len(detectDirty)},
		{Step: 4, Name: "detect", Wall: rec4.Wall(), CPU: rec4.CPU(), Items: len(detectDirty)},
		{Step: 5, Name: "impacts", Wall: rec5.Wall(), CPU: rec5.CPU(), Items: len(report.Impacted)},
		{Step: 0, Name: "total", Wall: recTotal.Wall(), CPU: recTotal.CPU(), Items: len(entries)},
	}
	ia.lastRankDirty, ia.lastDetectDirty = int(rankDirty.Load()), len(detectDirty)

	mAnalyses.Inc()
	mTracesAnalyzed.Add(int64(len(entries)))
	mTracesSkipped.Add(int64(len(skipped)))
	gSkippedLast.Set(float64(len(skipped)))
	ia.finishReportMetrics(start, len(live))
	return report, entries, nil
}

// The per-trace refresh work of a report fans out over
// Config.Parallelism workers in contiguous chunks of at least
// minRefreshChunk traces, below which handing a chunk to another
// goroutine costs more than refreshing it, and at most chunksPerWorker
// chunks per worker, so one chunk of heavy traces does not leave the
// other workers idle. A set that makes one chunk runs inline.
const (
	minRefreshChunk = 64
	chunksPerWorker = 8
)

// refreshChunks returns how many chunks to split n traces into.
func refreshChunks(workers, n int) int {
	w := parallel.Workers(workers, n)
	if w == 1 {
		return 1
	}
	return max(1, min(n/minRefreshChunk, w*chunksPerWorker))
}

// forChunks runs fn over k contiguous chunks [lo, hi) of [0, n) on the
// worker pool and returns the error of the lowest failing chunk. One
// chunk runs inline, through parallel.ForEach's serial path.
func forChunks(workers, n, k int, fn func(lo, hi int) error) error {
	return parallel.ForEach(workers, k, func(c int) error {
		return fn(c*n/k, (c+1)*n/k)
	})
}

// detectFailure carries a chunk's first detection error out of the
// fan-out with its index in the detect-stale set.
type detectFailure struct {
	index int
	err   error
}

func (f *detectFailure) Error() string { return f.err.Error() }

// finishReportMetrics updates the incremental gauges from the Step-1
// activity accumulated since the last report and resets the counters.
func (ia *IncrementalAnalyzer) finishReportMetrics(start time.Time, corpus int) {
	mIncReports.Inc()
	hIncReport.Observe(time.Since(start).Seconds())
	gIncComputed.Set(float64(ia.fresh))
	gIncCorpus.Set(float64(corpus))
	if ia.lookups > 0 {
		gIncHitRate.Set(float64(ia.hits) / float64(ia.lookups))
	} else {
		gIncHitRate.Set(1)
	}
	ia.fresh, ia.lookups, ia.hits = 0, 0, 0
}
