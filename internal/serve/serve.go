// Package serve turns the EnergyDx backend from a batch pipeline into
// an online service: it keeps one incremental analyzer
// (core.IncrementalAnalyzer) per app, re-analyzes a corpus shortly
// after new bundles arrive (debounced, so an upload burst costs one
// re-analysis rather than one per bundle), and serves the latest
// diagnosis report per app over HTTP — mounted on the same debug mux
// that serves /metrics (collectd -serve-analysis).
//
// Every installed report is a versioned snapshot: a per-app
// monotonically increasing version plus a strong ETag (content hash of
// the served JSON). Clients cache-validate with If-None-Match (304),
// long-poll for the next snapshot with ?wait=, resume missed updates
// over the /analysis/events SSE stream with Last-Event-ID, and read
// the drift of recent snapshots from /analysis/report/history.
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
// The served report bytes are a snapshot: the incremental engine's
// reports are detached from analyzer state, so a long-lived client can
// never observe (or cause) mutation of a later analysis.
package serve

import (
	"crypto/sha256"
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
	// CacheCap bounds each app's Step-1 LRU cache (<= 0 means
	// core.DefaultStepCacheCap).
	CacheCap int
	// Debounce is the quiet period after the last arrival before a
	// dirty app is re-analyzed (default 500ms). Shorter means fresher
	// reports; longer coalesces bursts harder.
	Debounce time.Duration
	// HistoryCap bounds the per-app snapshot-history ring (default 32).
	HistoryCap int
	// StreamQueue bounds each SSE client's event queue (default 64).
	// A full queue drops its oldest event rather than blocking the
	// flush path; clients detect the gap from the event-ID sequence.
	StreamQueue int
	// Logger receives analysis outcomes (nil means slog.Default).
	Logger *slog.Logger
}

// Fixed serving-layer limits.
const (
	// maxDelayFactor caps, as a multiple of Debounce, how long a
	// continuously-arriving stream can defer re-analysis: under
	// sustained load the report still refreshes at least this often.
	maxDelayFactor = 10
	// topKeys is how many leading event keys a snapshot summary carries.
	topKeys = 5
	// maxWait caps a report long-poll's ?wait= duration.
	maxWait = 30 * time.Second
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
	if c.HistoryCap <= 0 {
		c.HistoryCap = 32
	}
	if c.StreamQueue <= 0 {
		c.StreamQueue = 64
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

// appState is the serving state of one app.
type appState struct {
	inc *core.IncrementalAnalyzer

	dirty      bool
	dirtySince time.Time    // first un-analyzed arrival, for staleness
	report     *core.Report // latest successful analysis (detached)
	reportJSON []byte       // its serialized form, served verbatim
	version    int64        // bumps on every successful install
	etag       string       // strong ETag: content hash of reportJSON
	summary    core.ReportSummary
	analyzedAt time.Time
	lastWall   time.Duration
	analyses   int64
	lastErr    string
	history    []historyEntry // ring of the last HistoryCap versions
	waitCh     chan struct{}  // closed on install; wakes long-polls
}

// historyEntry is one retained report version: the snapshot metadata
// the history endpoint serves plus the detached report itself, kept so
// /analysis/diff can compare any two versions still in the ring.
type historyEntry struct {
	snap   Snapshot
	report *core.Report
}

// Service owns the per-app incremental analyzers and the debounce
// machinery. Create with New, feed with Notify (typically wired as
// collect.WithIngestHook), serve with Handler, stop with Close.
type Service struct {
	cfg Config
	hub *hub

	mu         sync.Mutex
	apps       map[string]*appState
	timer      *time.Timer
	firstDirty time.Time // first un-flushed Notify, for the max-delay cap
	closed     bool

	// snapMu guards the cached fleet metrics snapshot so one /metrics
	// scrape takes the service lock once, not once per gauge (and walks
	// the per-app summaries once). See metricsSnap.
	snapMu sync.Mutex
	snapAt time.Time
	snap   fleetSnap

	// flushMu serializes re-analysis passes so two timer firings (or a
	// timer racing an explicit Flush) never analyze the same app
	// concurrently or store results out of order.
	flushMu sync.Mutex
	wg      sync.WaitGroup
}

// New builds a serving layer. The configuration is validated eagerly so
// a bad analysis config fails at startup, not on first upload.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	// Validate by constructing a throwaway analyzer.
	if _, err := core.NewIncrementalAnalyzer(cfg.Analysis, cfg.CacheCap); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Service{
		cfg:  cfg,
		hub:  newHub(streamReplay, cfg.StreamQueue),
		apps: make(map[string]*appState),
	}
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
	obs.Default.GaugeFunc("analysis_dirty_traces", "traces re-ranked by the most recent incremental re-analyses across all apps", func() float64 {
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
	fs.apps = len(s.apps)
	for _, st := range s.apps {
		if st.dirty {
			fs.dirty++
			ref := st.analyzedAt
			if ref.IsZero() {
				ref = st.dirtySince
			}
			if !ref.IsZero() {
				if age := now.Sub(ref).Seconds(); age > fs.staleness {
					fs.staleness = age
				}
			}
		}
		ss := st.inc.SummaryStats()
		fs.summaryKeys += float64(ss.Keys)
		fs.summaryBytes += float64(ss.Bytes)
		fs.dirtyTraces += float64(ss.RankDirtyTraces)
	}
	s.mu.Unlock()
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
func (s *Service) Notify(b *trace.TraceBundle) {
	if b == nil || b.Event.AppID == "" {
		return
	}
	mNotifies.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	st, ok := s.apps[b.Event.AppID]
	if !ok {
		inc, err := core.NewIncrementalAnalyzer(s.cfg.Analysis, s.cfg.CacheCap)
		if err != nil {
			// New() validated the config; this cannot fail afterwards.
			s.cfg.Logger.Error("serve: analyzer construction failed", "app", b.Event.AppID, "err", err)
			return
		}
		st = &appState{inc: inc}
		s.apps[b.Event.AppID] = st
	}
	if _, added := st.inc.Add(b); !added {
		return // duplicate content: nothing changed, no re-analysis
	}
	s.scheduleLocked(st)
}

// scheduleLocked marks the app dirty and (re)arms the debounce timer.
// Callers hold s.mu.
func (s *Service) scheduleLocked(st *appState) {
	now := time.Now()
	if !st.dirty {
		st.dirty = true
		st.dirtySince = now
	}
	switch {
	case s.timer == nil:
		s.firstDirty = now
		s.timer = time.AfterFunc(s.cfg.Debounce, s.flushAsync)
	case now.Sub(s.firstDirty) < maxDelayFactor*s.cfg.Debounce:
		// Still inside the burst window: push the deadline out.
		s.timer.Reset(s.cfg.Debounce)
	default:
		// Max delay exceeded: leave the pending timer alone so the flush
		// fires even under a sustained arrival stream.
	}
}

// Remove retracts the bundle with the given content key from app's
// corpus and schedules a debounced re-analysis, reporting whether the
// bundle was present. The retraction itself is queued O(1); the next
// re-analysis pays only the touched keys' summary updates (sublinear in
// corpus size), never a full rebuild.
func (s *Service) Remove(app, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	st, ok := s.apps[app]
	if !ok {
		return false
	}
	if !st.inc.Remove(key) {
		return false
	}
	mRemoves.Inc()
	s.scheduleLocked(st)
	return true
}

// flushAsync is the timer callback: run the flush off the timer
// goroutine, tracked for Close.
func (s *Service) flushAsync() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.Flush()
	}()
}

// etagFor derives the strong ETag of a serialized report snapshot: a
// content hash, so byte-identical reports (across processes, restarts,
// or the batch pipeline) validate against the same tag.
func etagFor(data []byte) string {
	sum := sha256.Sum256(data)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// Flush synchronously re-analyzes every dirty app and installs the new
// report snapshots (version bump, ETag, history entry), wakes parked
// long-polls, and publishes one stream event per installed snapshot. It
// is the debounce timer's target and may also be called directly
// (tests, the /analysis/flush endpoint, startup warm-up).
func (s *Service) Flush() {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()

	s.mu.Lock()
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	type job struct {
		app string
		st  *appState
	}
	var jobs []job
	for app, st := range s.apps {
		if st.dirty {
			st.dirty = false
			st.dirtySince = time.Time{}
			jobs = append(jobs, job{app, st})
		}
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].app < jobs[j].app })

	for _, j := range jobs {
		start := time.Now()
		// Analyzer-internal locking; s.mu not held. The body, its hash
		// and the summary are computed before taking s.mu, so Notify on
		// the ack path never waits behind them.
		report, data, err := j.st.inc.ReportJSON()
		analyzedAt := time.Now()
		wall := analyzedAt.Sub(start)
		mAnalyses.Inc()
		hAnalysis.Observe(wall.Seconds())
		cs := j.st.inc.CacheStats()
		var snap Snapshot
		if err == nil {
			snap = Snapshot{
				ETag:       etagFor(data),
				AnalyzedAt: analyzedAt.UTC().Format(time.RFC3339Nano),
				WallMillis: float64(wall) / float64(time.Millisecond),
				Summary:    report.Summarize(topKeys),
			}
		}
		s.mu.Lock()
		j.st.analyses++
		j.st.analyzedAt = analyzedAt
		j.st.lastWall = wall
		if err != nil {
			j.st.lastErr = err.Error()
			s.mu.Unlock()
			mErrors.Inc()
			s.cfg.Logger.Error("re-analysis failed", "app", j.app, "err", err)
			continue
		}
		j.st.lastErr = ""
		snap = s.installLocked(j.st, report, data, snap)
		s.mu.Unlock()
		s.hub.publish(Event{App: j.app, Snapshot: snap})
		s.cfg.Logger.Info("re-analyzed corpus",
			"app", j.app, "version", snap.Version, "traces", report.TotalTraces,
			"skipped", len(report.Skipped), "impacted_traces", report.ImpactedTraces,
			"wall", wall.Round(time.Microsecond),
			"step1_cache_hit_rate", fmt.Sprintf("%.3f", cs.HitRate()))
	}
	s.invalidateMetricsSnap()
}

// installLocked stores a freshly analyzed report as the app's current
// snapshot. snap arrives with everything but the version filled in;
// installLocked only swaps pointers, bumps the version, appends to the
// history ring and wakes long-polls, and returns the completed
// snapshot. Callers hold s.mu; flushMu orders installs.
func (s *Service) installLocked(st *appState, report *core.Report, data []byte, snap Snapshot) Snapshot {
	st.version++
	snap.Version = st.version
	st.report = report
	st.reportJSON = data
	st.etag = snap.ETag
	st.summary = snap.Summary
	entry := historyEntry{snap: snap, report: report}
	if len(st.history) == s.cfg.HistoryCap {
		copy(st.history, st.history[1:])
		st.history[len(st.history)-1] = entry
	} else {
		st.history = append(st.history, entry)
	}
	if st.waitCh != nil {
		close(st.waitCh)
		st.waitCh = nil
	}
	return snap
}

// Close stops the debounce timer, waits for in-flight flushes, wakes
// parked long-polls, and terminates the event stream (subscribers see
// their channel closed). Pending dirty apps are not analyzed; callers
// wanting a final report call Flush first.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
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
	App            string             `json:"app"`
	Version        int64              `json:"version"`
	ETag           string             `json:"etag,omitempty"`
	Traces         int                `json:"traces"`
	Dirty          bool               `json:"dirty"`
	Analyses       int64              `json:"analyses"`
	LastAnalysisMS float64            `json:"lastAnalysisMillis"`
	AnalyzedAt     string             `json:"analyzedAt,omitempty"`
	LastError      string             `json:"lastError,omitempty"`
	Summary        core.ReportSummary `json:"summary"`
	Cache          core.CacheStats    `json:"step1Cache"`
	// Summaries is the incremental engine's per-key summary and
	// dirty-set state (the per-app view of the analysis_summary_* and
	// analysis_dirty_traces gauges).
	Summaries core.SummaryStats `json:"summaries"`
}

// statusLocked builds one app's status row. Callers hold s.mu.
func statusLocked(app string, st *appState) AppStatus {
	row := AppStatus{
		App:            app,
		Version:        st.version,
		ETag:           st.etag,
		Traces:         st.inc.Len(),
		Dirty:          st.dirty,
		Analyses:       st.analyses,
		LastAnalysisMS: float64(st.lastWall) / float64(time.Millisecond),
		LastError:      st.lastErr,
		Summary:        st.summary,
		Cache:          st.inc.CacheStats(),
		Summaries:      st.inc.SummaryStats(),
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
	for app, st := range s.apps {
		out = append(out, statusLocked(app, st))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// AppReport returns the app's current detached report with its snapshot
// metadata. ok is false when the app is unknown; a tracked-but-not-yet-
// analyzed app returns ok with a nil report. Callers must treat the
// report as read-only — it is the same detached object served over
// HTTP, shared across readers.
func (s *Service) AppReport(app string) (report *core.Report, snap Snapshot, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.apps[app]
	if !ok {
		return nil, Snapshot{}, false
	}
	if st.reportJSON == nil {
		return nil, Snapshot{}, true
	}
	snap = Snapshot{
		Version:    st.version,
		ETag:       st.etag,
		AnalyzedAt: st.analyzedAt.UTC().Format(time.RFC3339Nano),
		WallMillis: float64(st.lastWall) / float64(time.Millisecond),
		Summary:    st.summary,
	}
	return st.report, snap, true
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
	for _, st := range s.apps {
		if st.dirty && !st.dirtySince.IsZero() {
			if age := now.Sub(st.dirtySince); age > worst {
				worst = age
			}
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
	fresh := st.reportJSON != nil &&
		(etagMatches(req, st.etag) || (clientVer > 0 && clientVer >= st.version))
	needsWait := wait > 0 && (st.reportJSON == nil || fresh)
	if needsWait {
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
		fresh = st.reportJSON != nil &&
			(etagMatches(req, st.etag) || (clientVer > 0 && clientVer >= st.version))
	}

	data, report := st.reportJSON, st.report
	etag, version := st.etag, st.version
	s.mu.Unlock()

	if data == nil {
		// Tracked but not yet analyzed (inside the debounce window).
		http.Error(w, "no analysis yet for "+app+"; retry shortly or POST /analysis/flush", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Analysis-Version", strconv.FormatInt(version, 10))
	if fresh {
		mNotMod.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if q.Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = report.WriteText(w)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(data)
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
