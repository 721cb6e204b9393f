package core

import (
	"repro/internal/stats/orderstat"
	"repro/internal/trace"
)

// This file is the sublinear re-analysis engine behind
// IncrementalAnalyzer: per-event-key order-statistic summaries plus
// epoch-stamped dirty tracking, so a corpus mutation costs O(E·D)
// summary maintenance (E = events in the touched bundle, D = distinct
// powers of a touched key; each summary is a sorted column, so an
// insert or delete shifts up to D entries) instead of the corpus-wide
// counting sort, and a Report only recomputes the traces whose
// cross-trace inputs actually changed. D stays small at the default
// workload settings: a 5,000-session K9Mail corpus holds ~238k powers
// over 34 keys but only ~3.5k distinct ones, about 100 per key. With
// Step-1 estimation noise (EstimationNoiseFrac 0.025) ~86k are
// distinct, the worst case measured.
//
// Exactness contract: every number the exact path produces comes from
// the same code the batch finish runs — orderstat.FracRank/Percentile
// are bit-identical to stats.Ranks/stats.Percentile (pinned in
// internal/stats/orderstat), normalization and detection call the very
// same Analyzer.normalize/Analyzer.detect, and the impact table is
// assembled by the shared impactsFromCounts. The differential harness
// (TestIncrementalMatchesBatch) byte-compares the two paths after every
// mutation.
//
// Dirty-set propagation rules:
//
//   - A new trace has no stamps, so the next Report ranks and detects
//     it with the stale traces; a mutation refreshes only summaries.
//   - A trace's Rank column depends on the full power multiset of every
//     key it contains. Each key carries msetEpoch, bumped on any
//     add/remove touching its multiset; a trace whose per-key rank
//     stamps lag any msetEpoch is re-ranked.
//   - NormPower (and everything downstream: Amplitude, Fence,
//     Manifestations, WindowKeys, impact membership) depends only on
//     the *value* of each key's base power. baseEpoch is bumped only
//     when the recomputed percentile actually changes, so a mutation
//     that shifts a key's multiset without moving its 10th percentile
//     re-ranks but does not re-detect.
//
// Every power that enters a summary is finite: orderstat rejects NaN
// and Inf by design, and Step 1 (estimateEvents) fails a trace with a
// non-finite estimate, so such a trace is skipped or fails the corpus
// exactly as in the batch pipeline and never reaches Steps 2–5.

// traceEntry is the applied per-trace state of the incremental corpus.
type traceEntry struct {
	key     string
	traceID string
	appID   string // the bundle's, for the report's AppID scan
	// err is the trace's terminal Step-1 error; when set the trace is
	// skipped (or fails the corpus under strict mode) and the remaining
	// fields stay zero.
	err error
	// at is the analyzed trace: Step-1 events plus the most recently
	// refreshed Steps-2–4 vectors. Reports hand it out as is, so once
	// held is set it is never written again: a refresh first replaces it
	// with a copy of the header (writable), and every column a refresh
	// recomputes is a fresh slice, so the copy shares only the columns
	// that did not change (always Events and keyIDs).
	at *AnalyzedTrace
	// held marks at as reachable from a report handed out since it was
	// last copied. Set by reportLocked, cleared by writable; an entry is
	// therefore copied at most once per report, however many of its
	// stages go stale.
	held bool
	// ids are the distinct interned key IDs occurring in this trace —
	// the stamp vectors below are indexed parallel to it.
	ids []uint32
	// rankStamp[j] is msetEpoch[ids[j]] as of the last rank refresh;
	// nil means never ranked.
	rankStamp []uint64
	// baseStamp[j] is baseEpoch[ids[j]] as of the last successful
	// detect refresh; nil means never detected.
	baseStamp []uint64
	// contributed are the windowIDs currently counted into
	// corpusState.impact for this trace.
	contributed []uint32
	// manifested mirrors len(at.Manifestations) > 0 as counted into
	// corpusState.impactedTraces.
	manifested bool

	// head, rank and tail are the cached JSON fragments of at, each with
	// its SHA-256, that ReportJSON builds report bodies from
	// (reportjson.go); nil means not encoded since the columns behind it
	// last changed. head covers the Step-1 identity and events, which
	// never change for an applied entry; refreshRanks drops rank;
	// renormalize drops tail. A fragment is replaced, never mutated, so
	// a report body that shares one outlives later refreshes.
	head, rank, tail *fragment
}

// corpusState is the applied incremental corpus: per-key summaries and
// bases in flat columns indexed by the analyzer's dense interned IDs,
// plus the per-trace entries and the maintained Step-5 aggregates.
type corpusState struct {
	entries map[string]*traceEntry

	// Per-interned-ID columns; grown monotonically to the interner's
	// size as new keys appear.
	sums      []*orderstat.Multiset
	msetEpoch []uint64
	base      []float64
	baseEpoch []uint64
	impact    []int // window-membership count, the Step-5 input

	// impactedTraces counts applied traces with >= 1 manifestation.
	impactedTraces int

	// touched/touchedAt dedupe the IDs hit by one mutation without a
	// per-mutation map: touchedAt[id] == serial marks id as collected.
	touched   []uint32
	touchedAt []uint64
	serial    uint64
}

func newCorpusState() *corpusState {
	return &corpusState{entries: make(map[string]*traceEntry)}
}

// grow extends the per-ID columns to cover k interned keys.
func (cs *corpusState) grow(k int) {
	for len(cs.sums) < k {
		cs.sums = append(cs.sums, nil)
		cs.msetEpoch = append(cs.msetEpoch, 0)
		cs.base = append(cs.base, 0)
		cs.baseEpoch = append(cs.baseEpoch, 0)
		cs.impact = append(cs.impact, 0)
		cs.touchedAt = append(cs.touchedAt, 0)
	}
}

// applyAdd materializes the pending addition of key: Step 1 through the
// content-keyed cache, per-key summary insertion for every event power
// and base refresh for the touched keys. The new trace's own Steps 2–4
// are left to the next Report: its nil stamps make it rank- and
// detect-stale, so it is refreshed with every other stale trace.
func (ia *IncrementalAnalyzer) applyAdd(key string, b *trace.TraceBundle) {
	cs := ia.cs
	if _, ok := cs.entries[key]; ok {
		// Unreachable under the pending-queue cancellation invariant
		// (an applied key only ever has a pending *remove*); degrade
		// gracefully rather than double-count.
		ia.applyRemove(key)
	}
	res, ok := ia.cache.get(key)
	ia.lookups++
	if ok {
		ia.hits++
	} else {
		at, err := ia.a.estimateEvents(b)
		res = stepOneResult{at: at, err: err}
		ia.cache.put(key, res)
		ia.fresh++
	}
	e := &traceEntry{key: key, traceID: b.Event.TraceID, appID: b.Event.AppID}
	cs.entries[key] = e
	if res.err != nil {
		e.err = res.err
		return
	}
	e.at = res.at.cloneStepOne()
	ia.a.ensureKeyIDs(e.at)
	cs.grow(ia.a.keys.Len())
	cs.serial++
	cs.touched = cs.touched[:0]
	for i, id := range e.at.keyIDs {
		if cs.touchedAt[id] != cs.serial {
			cs.touchedAt[id] = cs.serial
			cs.touched = append(cs.touched, id)
		}
		if cs.sums[id] == nil {
			cs.sums[id] = &orderstat.Multiset{}
		}
		// Add cannot fail: Step 1 rejects non-finite estimates.
		_ = cs.sums[id].Add(e.at.Events[i].PowerMW)
	}
	e.ids = append([]uint32(nil), cs.touched...)
	for _, id := range e.ids {
		cs.msetEpoch[id]++
		ia.updateBase(id)
	}
}

// applyRemove retracts key's applied state: summary deletions, base
// refresh for the touched keys, and withdrawal of the trace's Step-5
// contributions.
func (ia *IncrementalAnalyzer) applyRemove(key string) {
	cs := ia.cs
	e := cs.entries[key]
	if e == nil {
		return // unreachable under the queue invariant
	}
	delete(cs.entries, key)
	if e.err != nil {
		return
	}
	for i, id := range e.at.keyIDs {
		cs.sums[id].Remove(e.at.Events[i].PowerMW)
	}
	for _, id := range e.ids {
		cs.msetEpoch[id]++
		ia.updateBase(id)
	}
	for _, id := range e.contributed {
		cs.impact[id]--
	}
	if e.manifested {
		cs.impactedTraces--
	}
}

// updateBase recomputes key id's normalization base from its summary and
// bumps baseEpoch only when the value moved — the load-bearing half of
// the dirty-set rules: an unchanged base keeps every dependent trace's
// detection fresh.
func (ia *IncrementalAnalyzer) updateBase(id uint32) {
	cs := ia.cs
	var nb float64
	if s := cs.sums[id]; s != nil && s.Len() > 0 {
		v, err := s.Percentile(ia.a.cfg.NormBasePercentile)
		if err != nil {
			// Unreachable: the summary holds only finite values and the
			// percentile is validated at config time. Degrade to the
			// batch absent-key semantics (base 0 => raw-power fallback).
			v = 0
		}
		nb = v
	}
	if nb != cs.base[id] {
		cs.base[id] = nb
		cs.baseEpoch[id]++
	}
}

// rankStale reports whether the trace was never ranked or any key
// multiset it ranks against changed since its last rank refresh. A new
// trace is stale by its nil stamps, not by a length mismatch: a trace
// without events has as many stamps as ids (none) either way.
func (e *traceEntry) rankStale(cs *corpusState) bool {
	if e.rankStamp == nil {
		return true
	}
	for j, id := range e.ids {
		if e.rankStamp[j] != cs.msetEpoch[id] {
			return true
		}
	}
	return false
}

// baseStale reports whether the trace was never detected or any base
// power it normalizes against changed since its last successful detect
// refresh (nil stamps as in rankStale).
func (e *traceEntry) baseStale(cs *corpusState) bool {
	if e.baseStamp == nil {
		return true
	}
	for j, id := range e.ids {
		if e.baseStamp[j] != cs.baseEpoch[id] {
			return true
		}
	}
	return false
}

// writable returns the entry's analyzed trace for a refresh to write
// to: at itself if no report holds it, else a new copy of its header
// that replaces it. The copy shares every column with the held value,
// so callers must assign a fresh slice to each column they recompute
// and never write through a shared one.
func (e *traceEntry) writable() *AnalyzedTrace {
	if e.held {
		c := *e.at
		e.at, e.held = &c, false
	}
	return e.at
}

// refreshRanks recomputes the trace's Step-2 rank column from the
// per-key summaries into a fresh slice on a writable trace, leaving any
// report that holds the previous value untouched. FracRank is
// bit-identical to the batch tied-block mean, so the column matches
// rankAndBase exactly.
func (ia *IncrementalAnalyzer) refreshRanks(e *traceEntry) {
	cs := ia.cs
	at := e.writable()
	e.rank = nil
	at.Rank = make([]float64, len(at.Events))
	for i, id := range at.keyIDs {
		fr, err := cs.sums[id].FracRank(at.Events[i].PowerMW)
		if err != nil {
			// Unreachable: this trace's own instances are in the summary.
			fr = 0
		}
		at.Rank[i] = fr
	}
	if e.rankStamp == nil {
		e.rankStamp = make([]uint64, len(e.ids)) // non-nil even when empty
	}
	for j, id := range e.ids {
		e.rankStamp[j] = cs.msetEpoch[id]
	}
}

// rerank refreshes the rank column of every rank-stale entry in
// entries and returns how many it refreshed. Concurrent calls take
// disjoint entries; the summaries are only read (Rank does not mutate
// them).
func (ia *IncrementalAnalyzer) rerank(entries []*traceEntry) int {
	n := 0
	for _, e := range entries {
		if e.rankStale(ia.cs) {
			ia.refreshRanks(e)
			n++
		}
	}
	return n
}

// renormalize re-runs Step 3 on detect-stale entries against the
// current bases, dropping their tail fragments: NormPower changes even
// if the detection that follows fails. Concurrent calls take disjoint
// entries.
func (ia *IncrementalAnalyzer) renormalize(entries []*traceEntry) {
	for _, e := range entries {
		ia.a.normalize(e.writable(), ia.cs.base)
		e.tail = nil
	}
}

// redetect re-runs Step 4 on renormalized entries in order, stopping at
// the first failure, and returns that entry's index (len(entries) when
// none failed) and its error. It folds and stamps nothing, so
// concurrent calls on disjoint entries are safe; the caller folds the
// entries before the lowest failure with foldDetect.
func (ia *IncrementalAnalyzer) redetect(entries []*traceEntry) (int, error) {
	for i, e := range entries {
		if err := ia.a.detect(e.writable()); err != nil {
			return i, err
		}
	}
	return len(entries), nil
}

// foldDetect folds a successfully re-detected trace's Step-5
// contributions into the maintained aggregates and stamps it
// detect-fresh. A trace whose detection failed is never folded, so it
// stays detect-stale and the error reproduces on the next Report.
func (ia *IncrementalAnalyzer) foldDetect(e *traceEntry) {
	cs := ia.cs
	at := e.at
	for _, id := range e.contributed {
		cs.impact[id]--
	}
	e.contributed = append(e.contributed[:0], at.windowIDs...)
	for _, id := range e.contributed {
		cs.impact[id]++
	}
	man := len(at.Manifestations) > 0
	if man != e.manifested {
		if man {
			cs.impactedTraces++
		} else {
			cs.impactedTraces--
		}
		e.manifested = man
	}
	if e.baseStamp == nil {
		e.baseStamp = make([]uint64, len(e.ids)) // non-nil even when empty
	}
	for j, id := range e.ids {
		e.baseStamp[j] = cs.baseEpoch[id]
	}
}

// SummaryStats is a snapshot of the incremental engine's summary state,
// exported for the observability gauges and the thrash tests' leak
// detection.
type SummaryStats struct {
	// Keys is the number of event keys with a non-empty power summary.
	Keys int `json:"keys"`
	// Values is the total power samples across all summaries (one per
	// event instance in the applied corpus).
	Values int `json:"values"`
	// Nodes is the total distinct values across the summaries — the
	// thrash tests' leak detector: returning to the same corpus must
	// return to the same count.
	Nodes int `json:"nodes"`
	// Bytes is the summaries' retained column capacity in bytes.
	Bytes int `json:"bytes"`
	// PendingMutations is the add/remove queue depth not yet applied.
	PendingMutations int `json:"pendingMutations"`
	// RankDirtyTraces / DetectDirtyTraces are the stale-trace counts
	// recomputed by the most recent Report, traces added since the
	// previous Report among them.
	RankDirtyTraces   int `json:"rankDirtyTraces"`
	DetectDirtyTraces int `json:"detectDirtyTraces"`
}

// SummaryStats snapshots the per-key summary and dirty-set state.
func (ia *IncrementalAnalyzer) SummaryStats() SummaryStats {
	var st SummaryStats
	ia.intake.Lock()
	for _, op := range ia.pending {
		if op.key != "" {
			st.PendingMutations++
		}
	}
	ia.intake.Unlock()
	ia.mu.Lock()
	defer ia.mu.Unlock()
	st.RankDirtyTraces, st.DetectDirtyTraces = ia.lastRankDirty, ia.lastDetectDirty
	for _, s := range ia.cs.sums {
		if s == nil {
			continue
		}
		if s.Len() > 0 {
			st.Keys++
		}
		st.Values += s.Len()
		st.Nodes += s.Nodes()
		st.Bytes += s.Bytes()
	}
	return st
}
