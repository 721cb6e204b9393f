// Package serve turns the EnergyDx backend from a batch pipeline into
// an online service: it keeps one incremental analyzer
// (core.IncrementalAnalyzer) per app, re-analyzes a corpus shortly
// after new bundles arrive (debounced per app, so an upload burst costs
// one re-analysis rather than one per bundle), and serves the latest
// diagnosis report per app over HTTP — mounted on the same debug mux
// that serves /metrics (collectd -serve-analysis).
//
// Each app is scheduled on its own deadline. Its quiet period — how
// long it waits after its latest arrival — is the measured cost of its
// last flush, capped at Config.Debounce, and a continuous arrival
// stream defers it at most maxDelayFactor quiet periods from its first
// un-analyzed arrival. Traffic to one app never moves another app's
// deadline, and a flush of cost C is followed by at least C of quiet.
//
// Every installed report is a versioned snapshot: a per-app
// monotonically increasing version plus a strong ETag (cut from the
// served body's digest, core.ReportBody.Digest). Clients cache-validate
// with If-None-Match (304), long-poll for the next snapshot with
// ?wait=, resume missed updates over the /analysis/events SSE stream
// with Last-Event-ID, and read the drift of recent snapshots from
// /analysis/report/history.
//
// Endpoints (all GET unless noted):
//
//	/analysis/apps            apps tracked, versions, corpus sizes,
//	                          cache and summary stats
//	/analysis/report?app=X    latest report snapshot (JSON; ?format=text
//	                          for the developer-facing rendering).
//	                          Honors If-None-Match (ETag) with 304;
//	                          ?wait=<dur> long-polls: a stale client
//	                          gets the current snapshot immediately,
//	                          a fresh one parks until the next flush
//	                          or the timeout (304).
//	/analysis/report/history?app=X
//	                          bounded ring of recent snapshot summaries
//	                          (version, ETag, analyzedAt, top keys,
//	                          manifestation count, wall time)
//	/analysis/events          SSE stream of report-update events (see
//	                          stream.go for the backpressure contract)
//	/analysis/whatif?app=X&window=&fence=&norm=&impacted=
//	                          read-only what-if re-analysis under
//	                          overridden knobs; never touches serving
//	                          state (see whatif.go)
//	/analysis/flush           POST: synchronously re-analyze dirty apps
//	/analysis/remove?app=X&key=K
//	                          DELETE (or POST): retract one bundle by
//	                          content key (quarantine reversals,
//	                          version-diff workloads) and schedule
//	                          re-analysis — sublinear, no corpus rebuild
//
// The served report body is a snapshot, and so is every report object
// the service keeps: the incremental engine never writes a trace or a
// body fragment after a report holds it, so a long-lived client never
// observes a later analysis. Report versions share every trace that
// did not change between them, which makes the history ring cost the
// change per version, not the corpus. Reports are read-only for that
// reason.
package serve

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Serving-layer metrics on the process registry. Per-endpoint HTTP
// request counts and latencies come from obs.(*Registry).InstrumentHTTP
// wrapped around the debug mux, not from this package.
var (
	mAnalyses = obs.Default.Counter("serve_analyses_total", "debounced per-app re-analyses run by the serving layer")
	mNotifies = obs.Default.Counter("serve_notifies_total", "bundle arrivals offered to the serving layer")
	mErrors   = obs.Default.Counter("serve_analysis_errors_total", "per-app re-analyses that failed")
	hAnalysis = obs.Default.Histogram("serve_analysis_seconds", "wall time of one debounced per-app re-analysis", nil)
	hQuiet    = obs.Default.Histogram("serve_quiet_period_seconds", "per-app quiet period each flush leaves for the app's next arrivals", nil)
	mRemoves  = obs.Default.Counter("serve_removes_total", "bundle retractions accepted by the serving layer")
	mNotMod   = obs.Default.Counter("serve_report_not_modified_total", "report requests answered 304 from the client's ETag")
	mPollPark = obs.Default.Counter("serve_longpoll_parked_total", "report long-polls that parked waiting for the next snapshot")
	mWhatIfs  = obs.Default.Counter("serve_whatif_total", "read-only what-if re-analyses served")
)

// Config parameterizes the serving layer.
type Config struct {
	// Analysis is the core pipeline configuration every per-app
	// incremental analyzer runs with. SkipInvalidTraces is forced on:
	// an online service must degrade per trace, never refuse a corpus.
	Analysis core.Config
	// Debounce bounds each app's quiet period: how long a dirty app
	// waits after its latest arrival before it is re-analyzed (default
	// 500ms). The quiet period itself is the app's last flush cost, so a
	// cheap app refreshes sooner; an app not yet flushed waits the full
	// Debounce.
	Debounce time.Duration
	// Logger receives analysis outcomes (nil means slog.Default).
	Logger *slog.Logger
}

// Fixed serving-layer limits.
const (
	// maxDelayFactor caps, as a multiple of an app's quiet period and
	// counted from its first un-analyzed arrival, how long a
	// continuously-arriving stream can defer that app's re-analysis:
	// under sustained load the report still refreshes at least this
	// often.
	maxDelayFactor = 10
	// topKeys is how many leading event keys a snapshot summary carries.
	topKeys = 5
	// maxWait caps a report long-poll's ?wait= duration.
	maxWait = 30 * time.Second
	// historyCap bounds each app's snapshot-history ring, in versions.
	historyCap = 32
	// streamQueue bounds each SSE client's event queue. A full queue
	// drops its oldest event rather than blocking the flush path;
	// clients detect the gap from the event-ID sequence.
	streamQueue = 64
	// streamReplay bounds the hub's replay ring for Last-Event-ID
	// resume, in events.
	streamReplay = 256
	// streamHeartbeat is the SSE keep-alive comment interval.
	streamHeartbeat = 15 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Debounce <= 0 {
		c.Debounce = 500 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	c.Analysis.SkipInvalidTraces = true
	return c
}

// Snapshot is the metadata of one installed report version: what the
// history ring retains and what a stream event carries. AnalyzedAt is
// RFC3339Nano UTC.
type Snapshot struct {
	Version    int64              `json:"version"`
	ETag       string             `json:"etag"`
	AnalyzedAt string             `json:"analyzedAt"`
	WallMillis float64            `json:"wallMillis"`
	Summary    core.ReportSummary `json:"summary"`
}

// analyzer is the per-app incremental engine the service drives: a
// *core.IncrementalAnalyzer, whose methods take its own locks, never
// the service's. Tests substitute a wrapper that holds a flush.
type analyzer interface {
	Add(b *trace.TraceBundle) (key string, added bool)
	Remove(key string) bool
	Sync(bundles []*trace.TraceBundle) (added, removed int)
	Len() int
	Bundles() []*trace.TraceBundle
	ReportJSON() (*core.Report, *core.ReportBody, error)
	CacheStats() core.CacheStats
	SummaryStats() core.SummaryStats
}

// appState is the serving state of one app.
type appState struct {
	inc analyzer

	dirtySince  time.Time        // first un-analyzed arrival: staleness, max-delay cap
	lastArrival time.Time        // latest un-analyzed arrival: quiet-period deadline
	cost        time.Duration    // last flush, ReportJSON through install (0: none yet)
	flushedAt   time.Time        // when the last flush finished
	body        *core.ReportBody // the installed report's encoded form, served verbatim (shared)
	// analyzedAt, lastWall, analyses and lastErr describe the latest
	// analysis attempt, failed or not; the installed version is the
	// newest history entry (current).
	analyzedAt time.Time
	lastWall   time.Duration
	analyses   int64
	lastErr    string
	history    []historyEntry // ring of the last historyCap versions
	waitCh     chan struct{}  // closed on install; wakes long-polls
}

// historyEntry is one retained report version: the snapshot metadata
// the history endpoint serves plus the report itself, kept so
// /analysis/diff can compare any two versions still in the ring. The
// report shares its unchanged traces with its neighbours in the ring,
// so retaining a version costs only the traces it re-analyzed.
type historyEntry struct {
	snap       Snapshot
	report     *core.Report
	analyzedAt time.Time // snap.AnalyzedAt, unformatted
}

// current returns the app's installed version: the newest entry of its
// history ring, which holds at least one version from the first install
// on. ok is false before that. Callers hold s.mu.
func (st *appState) current() (e historyEntry, ok bool) {
	if len(st.history) == 0 {
		return historyEntry{}, false
	}
	return st.history[len(st.history)-1], true
}

// Service owns the per-app incremental analyzers and the per-app flush
// scheduler. Create with New, feed with Notify (typically wired as
// collect.WithIngestHook), serve with Handler, stop with Close.
type Service struct {
	cfg        Config
	hub        *hub
	historyCap int

	mu   sync.Mutex
	apps map[string]*appState
	// dirty holds the apps with arrivals not yet taken by a flush, so
	// the scheduler's scans cost the dirty set, not the fleet.
	dirty  map[string]*appState
	closed bool
	// wake nudges the scheduler (run) to recompute its next deadline:
	// an app turned dirty, or the service closed. One pending nudge is
	// enough, so senders never block.
	wake chan struct{}

	// snapMu guards the cached fleet metrics snapshot so one /metrics
	// scrape takes the service lock once, not once per gauge (and walks
	// the per-app summaries once). See metricsSnap.
	snapMu sync.Mutex
	snapAt time.Time
	snap   fleetSnap

	// flushMu serializes flush passes, so a scheduled pass racing an
	// explicit Flush never analyzes one app twice at once or installs
	// its reports out of order. A pass takes each app at most once.
	flushMu sync.Mutex
	wg      sync.WaitGroup
}

// New builds a serving layer. The configuration is validated eagerly so
// a bad analysis config fails at startup, not on first upload.
func New(cfg Config) (*Service, error) { return newSized(cfg, historyCap, streamQueue) }

// newSized builds a serving layer whose apps keep history versions in
// their rings and whose SSE clients queue up to queue events.
func newSized(cfg Config, history, queue int) (*Service, error) {
	cfg = cfg.withDefaults()
	// Validate by constructing a throwaway analyzer.
	if _, err := core.NewIncrementalAnalyzer(cfg.Analysis, 0); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Service{
		cfg:        cfg,
		hub:        newHub(streamReplay, queue),
		historyCap: history,
		apps:       make(map[string]*appState),
		dirty:      make(map[string]*appState),
		wake:       make(chan struct{}, 1),
	}
	s.wg.Add(1)
	go s.run()
	// All fleet gauges read the one cached snapshot: a scrape exports
	// five gauges for one service-lock acquisition and one summary walk.
	obs.Default.GaugeFunc("serve_apps_tracked", "apps with a live incremental analyzer", func() float64 {
		return float64(s.metricsSnap().apps)
	})
	obs.Default.GaugeFunc("serve_apps_dirty", "apps with arrivals not yet re-analyzed", func() float64 {
		return float64(s.metricsSnap().dirty)
	})
	obs.Default.GaugeFunc("serve_report_staleness_seconds", "age of the oldest dirty app's served report (0 when no app is dirty)", func() float64 {
		return s.metricsSnap().staleness
	})
	// Per-app summary state rolled up across the fleet of analyzers;
	// the per-app breakdown is served by /analysis/apps.
	obs.Default.GaugeFunc("analysis_summary_keys", "event keys with a live per-key power summary across all apps", func() float64 {
		return s.metricsSnap().summaryKeys
	})
	obs.Default.GaugeFunc("analysis_summary_bytes", "retained per-key summary memory across all apps", func() float64 {
		return s.metricsSnap().summaryBytes
	})
	obs.Default.GaugeFunc("analysis_dirty_traces", "traces re-ranked by the most recent incremental re-analyses across all apps, new traces included", func() float64 {
		return s.metricsSnap().dirtyTraces
	})
	return s, nil
}

// fleetSnap is the cached roll-up behind the fleet gauges.
type fleetSnap struct {
	apps, dirty  int
	summaryKeys  float64
	summaryBytes float64
	dirtyTraces  float64
	staleness    float64
}

// metricsSnapTTL is how long a computed fleet snapshot serves gauge
// reads before the next scrape recomputes it. One Prometheus scrape
// reads several gauges within microseconds; the TTL collapses those
// into a single service-lock acquisition without a scrape ever seeing
// state older than a second.
const metricsSnapTTL = time.Second

// metricsSnap returns the cached fleet snapshot, recomputing it when
// stale. A flush invalidates the cache so post-flush scrapes see the
// new dirty set immediately.
func (s *Service) metricsSnap() fleetSnap {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if !s.snapAt.IsZero() && time.Since(s.snapAt) < metricsSnapTTL {
		return s.snap
	}
	var fs fleetSnap
	now := time.Now()
	s.mu.Lock()
	fs.apps, fs.dirty = len(s.apps), len(s.dirty)
	for _, st := range s.dirty {
		ref := st.dirtySince
		if cur, ok := st.current(); ok {
			ref = cur.analyzedAt
		}
		if age := now.Sub(ref).Seconds(); age > fs.staleness {
			fs.staleness = age
		}
	}
	incs := make([]analyzer, 0, len(s.apps))
	for _, st := range s.apps {
		incs = append(incs, st.inc)
	}
	s.mu.Unlock()
	// Off the service lock: each analyzer's stats wait for its own lock,
	// which the app's flush holds through refresh and fragment encode.
	for _, inc := range incs {
		ss := inc.SummaryStats()
		fs.summaryKeys += float64(ss.Keys)
		fs.summaryBytes += float64(ss.Bytes)
		fs.dirtyTraces += float64(ss.RankDirtyTraces)
	}
	s.snap, s.snapAt = fs, now
	return fs
}

// invalidateMetricsSnap forces the next gauge read to recompute.
func (s *Service) invalidateMetricsSnap() {
	s.snapMu.Lock()
	s.snapAt = time.Time{}
	s.snapMu.Unlock()
}

// Notify offers one accepted bundle to the serving layer: it joins the
// app's incremental corpus (content-key deduplicated) and schedules a
// debounced re-analysis. Safe for concurrent use; cheap enough for the
// ingest hot path (no analysis runs here).
//
// The add runs without the service lock: it waits for the analyzer's
// own lock, which the app's flush holds through refresh and fragment
// encode, and other apps' arrivals, the scheduler and report reads must
// not wait with it. Scheduling after the add keeps every bundle
// covered: a flush that took the app before the add either sees the
// bundle or is followed by the one this schedules.
func (s *Service) Notify(b *trace.TraceBundle) {
	if b == nil || b.Event.AppID == "" {
		return
	}
	mNotifies.Inc()
	app := b.Event.AppID
	s.mu.Lock()
	st := s.appLocked(app)
	s.mu.Unlock()
	if st == nil {
		return
	}
	if _, added := st.inc.Add(b); !added {
		return // duplicate content: nothing changed, no re-analysis
	}
	s.schedule(app, st)
}

// SyncCorpus makes bundles, in order, the app's whole corpus in one
// step: it adds each bundle not yet present and retracts every other
// one, and returns how many it added and retracted. No flush can take
// the app halfway through, so the change lands as one report version —
// what a version-diff workload needs when the app's quiet period is
// shorter than a run of separate Notify and Remove calls. The bundles
// must belong to app. The diff runs under the analyzer's intake lock
// (core.IncrementalAnalyzer.Sync), not the service lock, so it holds up
// only this app's arrivals.
func (s *Service) SyncCorpus(app string, bundles []*trace.TraceBundle) (added, removed int) {
	s.mu.Lock()
	st := s.appLocked(app)
	s.mu.Unlock()
	if st == nil {
		return 0, 0
	}
	added, removed = st.inc.Sync(bundles)
	mRemoves.Add(int64(removed))
	if added+removed > 0 {
		s.schedule(app, st)
	}
	return added, removed
}

// appLocked returns the app's serving state, creating its analyzer on
// first use; nil once the service is closed. Callers hold s.mu.
func (s *Service) appLocked(app string) *appState {
	if s.closed {
		return nil
	}
	st, ok := s.apps[app]
	if !ok {
		inc, err := core.NewIncrementalAnalyzer(s.cfg.Analysis, 0)
		if err != nil {
			// New() validated the config; this cannot fail afterwards.
			s.cfg.Logger.Error("serve: analyzer construction failed", "app", app, "err", err)
			return nil
		}
		st = &appState{inc: inc}
		s.apps[app] = st
	}
	return st
}

// schedule takes the service lock and schedules the app, unless the
// service closed meanwhile.
func (s *Service) schedule(app string, st *appState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.scheduleLocked(app, st)
	}
}

// scheduleLocked marks the app dirty and records the arrival its
// quiet period counts from. Callers hold s.mu.
func (s *Service) scheduleLocked(app string, st *appState) {
	now := time.Now()
	st.lastArrival = now
	if _, ok := s.dirty[app]; ok {
		// Already scheduled: a later arrival only moves this app's
		// deadline later, and the scheduler re-reads it when it wakes.
		return
	}
	s.dirty[app] = st
	st.dirtySince = now
	s.nudge()
}

// nudge wakes the scheduler without blocking.
func (s *Service) nudge() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// quiet is the app's quiet period: the cost of its last flush, capped
// at Config.Debounce. An app never flushed waits the full Debounce.
func (s *Service) quiet(st *appState) time.Duration {
	if st.cost <= 0 || st.cost > s.cfg.Debounce {
		return s.cfg.Debounce
	}
	return st.cost
}

// deadline is when a dirty app is due: one quiet period after its
// latest arrival, but no later than maxDelayFactor quiet periods after
// its first un-analyzed one, and no sooner than one quiet period after
// its last flush finished.
func (s *Service) deadline(st *appState) time.Time {
	q := s.quiet(st)
	due := st.lastArrival.Add(q)
	if limit := st.dirtySince.Add(maxDelayFactor * q); limit.Before(due) {
		due = limit
	}
	if rest := st.flushedAt.Add(q); due.Before(rest) {
		due = rest
	}
	return due
}

// run is the scheduler: it sleeps until the earliest dirty app's
// deadline (or a nudge), then flushes every app that is due.
func (s *Service) run() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		var next time.Time
		for _, st := range s.dirty {
			if due := s.deadline(st); next.IsZero() || due.Before(next) {
				next = due
			}
		}
		s.mu.Unlock()

		if next.IsZero() {
			<-s.wake
			continue
		}
		wait := time.Until(next)
		if wait <= 0 {
			s.flush(time.Now())
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case <-s.wake:
		case <-timer.C:
		}
		timer.Stop()
	}
}

// Remove retracts the bundle with the given content key from app's
// corpus and schedules a debounced re-analysis, reporting whether the
// bundle was present. The retraction itself is queued O(1); the next
// re-analysis pays only the touched keys' summary updates (sublinear in
// corpus size), never a full rebuild. Like Notify, it waits for the
// analyzer without holding the service lock.
func (s *Service) Remove(app, key string) bool {
	s.mu.Lock()
	st, ok := s.apps[app]
	closed := s.closed
	s.mu.Unlock()
	if closed || !ok || !st.inc.Remove(key) {
		return false
	}
	mRemoves.Inc()
	s.schedule(app, st)
	return true
}

// bodyETag derives the strong ETag of an encoded report from its
// digest, so identical reports (across processes, restarts, or the
// batch pipeline through core.EncodeReport) validate against the same
// tag.
func bodyETag(body *core.ReportBody) string {
	return `"` + hex.EncodeToString(body.Digest[:16]) + `"`
}

// Flush synchronously re-analyzes every dirty app and installs the new
// report snapshots (version bump, ETag, history entry), wakes parked
// long-polls, and publishes one stream event per installed snapshot.
// The scheduler runs the same pass over the apps that are due; Flush
// may also be called directly (tests, the /analysis/flush endpoint,
// startup warm-up), and then waits out any pass in flight first.
func (s *Service) Flush() { s.flush(time.Time{}) }

// flushJob is one app taken for a flush pass.
type flushJob struct {
	app string
	st  *appState
	due time.Time
}

// flush runs one pass over the dirty apps due by dueBy (every dirty app
// when dueBy is zero), in earliest-deadline order on at most
// Analysis.Parallelism workers; at one worker it is a serial loop.
func (s *Service) flush(dueBy time.Time) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	var jobs []flushJob
	for app, st := range s.dirty {
		due := s.deadline(st)
		if !dueBy.IsZero() && due.After(dueBy) {
			continue
		}
		delete(s.dirty, app)
		st.dirtySince, st.lastArrival = time.Time{}, time.Time{}
		jobs = append(jobs, flushJob{app, st, due})
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool {
		if !jobs[i].due.Equal(jobs[j].due) {
			return jobs[i].due.Before(jobs[j].due)
		}
		return jobs[i].app < jobs[j].app
	})
	_ = parallel.ForEach(s.cfg.Analysis.Parallelism, len(jobs), func(i int) error {
		s.flushApp(jobs[i].app, jobs[i].st)
		return nil
	})
	s.invalidateMetricsSnap()
}

// flushApp re-analyzes one app and installs the result. Its cost — the
// wall time from the start of ReportJSON through ETag, summary and
// install — becomes the app's next quiet period.
func (s *Service) flushApp(app string, st *appState) {
	start := time.Now()
	// Analyzer-internal locking; s.mu not held. The body, its digest and
	// the summary are computed before taking s.mu, so Notify on the ack
	// path never waits behind them.
	report, body, err := st.inc.ReportJSON()
	analyzedAt := time.Now()
	wall := analyzedAt.Sub(start)
	mAnalyses.Inc()
	hAnalysis.Observe(wall.Seconds())
	cs := st.inc.CacheStats()
	var entry historyEntry
	if err == nil {
		entry = historyEntry{
			snap: Snapshot{
				ETag:       bodyETag(body),
				AnalyzedAt: analyzedAt.UTC().Format(time.RFC3339Nano),
				WallMillis: float64(wall) / float64(time.Millisecond),
				Summary:    report.Summarize(topKeys),
			},
			report:     report,
			analyzedAt: analyzedAt,
		}
	}
	var snap Snapshot
	s.mu.Lock()
	st.analyses++
	st.analyzedAt = analyzedAt
	st.lastWall = wall
	if err != nil {
		st.lastErr = err.Error()
	} else {
		st.lastErr = ""
		snap = s.installLocked(st, body, entry)
	}
	st.flushedAt = time.Now()
	st.cost = st.flushedAt.Sub(start)
	quiet := s.quiet(st)
	s.mu.Unlock()
	hQuiet.Observe(quiet.Seconds())
	if err != nil {
		mErrors.Inc()
		s.cfg.Logger.Error("re-analysis failed", "app", app, "err", err)
		return
	}
	s.hub.publish(Event{App: app, Snapshot: snap})
	s.cfg.Logger.Info("re-analyzed corpus",
		"app", app, "version", snap.Version, "traces", report.TotalTraces,
		"skipped", len(report.Skipped), "impacted_traces", report.ImpactedTraces,
		"wall", wall.Round(time.Microsecond), "quiet", quiet.Round(time.Microsecond),
		"step1_cache_hit_rate", fmt.Sprintf("%.3f", cs.HitRate()))
}

// installLocked stores a freshly analyzed report as the app's current
// snapshot. entry arrives with everything but the version filled in;
// installLocked only numbers it one past the current version, appends
// it to the history ring, swaps in body and wakes long-polls, and
// returns the completed snapshot. Callers hold s.mu; flushMu orders
// each app's installs.
func (s *Service) installLocked(st *appState, body *core.ReportBody, entry historyEntry) Snapshot {
	cur, _ := st.current()
	entry.snap.Version = cur.snap.Version + 1
	st.body = body
	if len(st.history) == s.historyCap {
		copy(st.history, st.history[1:])
		st.history[len(st.history)-1] = entry
	} else {
		st.history = append(st.history, entry)
	}
	if st.waitCh != nil {
		close(st.waitCh)
		st.waitCh = nil
	}
	return entry.snap
}

// Close stops the scheduler, waits for an in-flight flush pass, wakes
// parked long-polls, and terminates the event stream (subscribers see
// their channel closed). Pending dirty apps are not analyzed; callers
// wanting a final report call Flush first.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.nudge()
	for _, st := range s.apps {
		if st.waitCh != nil {
			close(st.waitCh)
			st.waitCh = nil
		}
	}
	s.mu.Unlock()
	s.hub.close()
	s.wg.Wait()
}

// AppStatus is one row of the /analysis/apps listing (and the
// dashboard's fleet overview).
type AppStatus struct {
	App            string  `json:"app"`
	Version        int64   `json:"version"`
	ETag           string  `json:"etag,omitempty"`
	Traces         int     `json:"traces"`
	Dirty          bool    `json:"dirty"`
	Analyses       int64   `json:"analyses"`
	LastAnalysisMS float64 `json:"lastAnalysisMillis"`
	// FlushCostMS is the wall time of the app's last flush: its
	// re-analysis (LastAnalysisMS) plus ETag, summary and install.
	FlushCostMS float64 `json:"flushCostMillis"`
	// QuietPeriodMS is how long the app waits after its latest arrival
	// before it is re-analyzed: FlushCostMS capped at Config.Debounce,
	// or Debounce itself before the first flush. A continuous stream
	// defers it at most maxDelayFactor times this.
	QuietPeriodMS float64            `json:"quietPeriodMillis"`
	AnalyzedAt    string             `json:"analyzedAt,omitempty"`
	LastError     string             `json:"lastError,omitempty"`
	Summary       core.ReportSummary `json:"summary"`
	Cache         core.CacheStats    `json:"step1Cache"`
	// Summaries is the incremental engine's per-key summary and
	// dirty-set state (the per-app view of the analysis_summary_* and
	// analysis_dirty_traces gauges).
	Summaries core.SummaryStats `json:"summaries"`
}

// statusLocked builds one app's status row from the serving state,
// leaving the analyzer's own stats (Traces, Cache, Summaries) to the
// caller. Callers hold s.mu.
func (s *Service) statusLocked(app string, st *appState) AppStatus {
	cur, _ := st.current()
	row := AppStatus{
		App:            app,
		Version:        cur.snap.Version,
		ETag:           cur.snap.ETag,
		Dirty:          s.dirty[app] != nil,
		Analyses:       st.analyses,
		LastAnalysisMS: float64(st.lastWall) / float64(time.Millisecond),
		FlushCostMS:    float64(st.cost) / float64(time.Millisecond),
		QuietPeriodMS:  float64(s.quiet(st)) / float64(time.Millisecond),
		LastError:      st.lastErr,
		Summary:        cur.snap.Summary,
	}
	if !st.analyzedAt.IsZero() {
		row.AnalyzedAt = st.analyzedAt.UTC().Format(time.RFC3339Nano)
	}
	return row
}

// Statuses returns the status of every tracked app, sorted by app ID.
func (s *Service) Statuses() []AppStatus {
	s.mu.Lock()
	out := make([]AppStatus, 0, len(s.apps))
	incs := make([]analyzer, 0, len(s.apps))
	for app, st := range s.apps {
		out = append(out, s.statusLocked(app, st))
		incs = append(incs, st.inc)
	}
	s.mu.Unlock()
	// Off the service lock, as in metricsSnap.
	for i, inc := range incs {
		out[i].Traces = inc.Len()
		out[i].Cache = inc.CacheStats()
		out[i].Summaries = inc.SummaryStats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// AppReport returns the app's installed report with that version's own
// snapshot metadata, exactly as History lists it; a later failed
// analysis changes neither. ok is false when the app is unknown; a
// tracked-but-not-yet-analyzed app returns ok with a nil report.
// Callers must treat the report as read-only — it is the same object
// served over HTTP, shared across readers, with the history ring and
// with the analyzer.
func (s *Service) AppReport(app string) (report *core.Report, snap Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.apps[app]
	if !ok {
		return nil, Snapshot{}, false
	}
	cur, _ := st.current()
	return cur.report, cur.snap, true
}

// History returns the app's snapshot-history ring, oldest first.
func (s *Service) History(app string) ([]Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.apps[app]
	if !ok {
		return nil, false
	}
	out := make([]Snapshot, len(st.history))
	for i, e := range st.history {
		out[i] = e.snap
	}
	return out, true
}

// OldestDirtyAge returns the age of the oldest arrival not yet covered
// by an installed report (0 when nothing is dirty). It is the
// report-staleness probe the fleet benchmark samples: unlike the
// serve_report_staleness_seconds gauge it reads live state with no
// snapshot TTL.
func (s *Service) OldestDirtyAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	var worst time.Duration
	for _, st := range s.dirty {
		if age := now.Sub(st.dirtySince); age > worst {
			worst = age
		}
	}
	return worst
}

// AnalysisConfig returns the effective analysis configuration the
// serving layer runs with (SkipInvalidTraces forced on) — the defaults
// a what-if form is pre-filled from.
func (s *Service) AnalysisConfig() core.Config { return s.cfg.Analysis }

// Handler returns the HTTP handler for the /analysis/ endpoints; mount
// it at the mux root (paths are absolute).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analysis/apps", s.serveApps)
	mux.HandleFunc("/analysis/report", s.serveReport)
	mux.HandleFunc("/analysis/report/history", s.serveHistory)
	mux.HandleFunc("/analysis/events", s.serveEvents)
	mux.HandleFunc("/analysis/whatif", s.serveWhatIf)
	mux.HandleFunc("/analysis/diff", s.serveDiff)
	mux.HandleFunc("/analysis/flush", s.serveFlush)
	mux.HandleFunc("/analysis/remove", s.serveRemove)
	return mux
}

// requireGET enforces the read-only endpoints' method contract.
func requireGET(w http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func (s *Service) serveApps(w http.ResponseWriter, req *http.Request) {
	if !requireGET(w, req) {
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Statuses())
}

// etagMatches reports whether the request's If-None-Match header
// matches the given strong ETag ("*" matches anything).
func etagMatches(req *http.Request, etag string) bool {
	inm := req.Header.Get("If-None-Match")
	if inm == "" || etag == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag || cand == "*" {
			return true
		}
	}
	return false
}

func (s *Service) serveReport(w http.ResponseWriter, req *http.Request) {
	if !requireGET(w, req) {
		return
	}
	q := req.URL.Query()
	app := q.Get("app")
	if app == "" {
		http.Error(w, "missing ?app= parameter", http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if ws := q.Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil || d < 0 {
			http.Error(w, "bad ?wait= duration", http.StatusBadRequest)
			return
		}
		if d > maxWait {
			d = maxWait
		}
		wait = d
	}
	clientVer := int64(0)
	if vs := q.Get("version"); vs != "" {
		v, err := strconv.ParseInt(vs, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "bad ?version= parameter", http.StatusBadRequest)
			return
		}
		clientVer = v
	}

	s.mu.Lock()
	st, ok := s.apps[app]
	if !ok {
		s.mu.Unlock()
		http.Error(w, "unknown app "+app, http.StatusNotFound)
		return
	}
	// Fresh means the client already holds the current snapshot: its
	// ETag validates or its reported version is current. A stale client
	// is answered immediately; a fresh one parks when it asked to wait.
	cur, installed := st.current()
	isFresh := func() bool {
		return installed &&
			(etagMatches(req, cur.snap.ETag) || (clientVer > 0 && clientVer >= cur.snap.Version))
	}
	fresh := isFresh()
	if wait > 0 && (!installed || fresh) {
		if st.waitCh == nil {
			st.waitCh = make(chan struct{})
		}
		waitCh := st.waitCh
		s.mu.Unlock()
		mPollPark.Inc()
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-waitCh:
		case <-timer.C:
		case <-req.Context().Done():
			return
		}
		s.mu.Lock()
		// Re-evaluate against whatever is installed now.
		cur, installed = st.current()
		fresh = isFresh()
	}
	body := st.body
	s.mu.Unlock()

	if !installed {
		// Tracked but not yet analyzed (inside the debounce window).
		http.Error(w, "no analysis yet for "+app+"; retry shortly or POST /analysis/flush", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("ETag", cur.snap.ETag)
	w.Header().Set("X-Analysis-Version", strconv.FormatInt(cur.snap.Version, 10))
	if fresh {
		mNotMod.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = cur.report.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	_, _ = body.WriteTo(w)
}

func (s *Service) serveHistory(w http.ResponseWriter, req *http.Request) {
	if !requireGET(w, req) {
		return
	}
	app := req.URL.Query().Get("app")
	if app == "" {
		http.Error(w, "missing ?app= parameter", http.StatusBadRequest)
		return
	}
	history, ok := s.History(app)
	if !ok {
		http.Error(w, "unknown app "+app, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(history)
}

func (s *Service) serveFlush(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	s.Flush()
	fmt.Fprintln(w, "flushed")
}

func (s *Service) serveRemove(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodDelete && req.Method != http.MethodPost {
		w.Header().Set("Allow", "DELETE, POST")
		http.Error(w, "DELETE or POST required", http.StatusMethodNotAllowed)
		return
	}
	q := req.URL.Query()
	app, key := q.Get("app"), q.Get("key")
	if app == "" || key == "" {
		http.Error(w, "missing ?app= or ?key= parameter", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	st, tracked := s.apps[app]
	s.mu.Unlock()
	if !tracked {
		http.Error(w, "unknown app "+app, http.StatusNotFound)
		return
	}
	if !s.Remove(app, key) {
		http.Error(w, "no bundle with key "+key+" in corpus of "+app, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"removed": true,
		"app":     app,
		"key":     key,
		"traces":  st.inc.Len(),
	})
}
