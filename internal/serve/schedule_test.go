package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// appCorpus generates a small corpus for any registered app.
func appCorpus(t *testing.T, appID string, users int, seed int64) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.ByAppID(appID)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, seed)
	cfg.Users = users
	cfg.ImpactedFraction = 0.25
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Bundles
}

// appStatus returns app's status row, failing when it is not tracked.
func appStatus(t *testing.T, svc *Service, app string) AppStatus {
	t.Helper()
	for _, row := range svc.Statuses() {
		if row.App == app {
			return row
		}
	}
	t.Fatalf("app %s not tracked", app)
	return AppStatus{}
}

// setCost pins app's last flush cost, standing in for a flush that
// took that long.
func setCost(svc *Service, app string, cost time.Duration) {
	svc.mu.Lock()
	svc.apps[app].cost = cost
	svc.mu.Unlock()
}

// waitAnalyses waits until app has run more than n analyses and returns
// its status then.
func waitAnalyses(t *testing.T, svc *Service, app string, n int64, timeout time.Duration) AppStatus {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(time.Millisecond) {
		if row := appStatus(t, svc, app); row.Analyses > n {
			return row
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no scheduled flush within %v", app, timeout)
		}
	}
}

func analyzedAt(t *testing.T, row AppStatus) time.Time {
	t.Helper()
	at, err := time.Parse(time.RFC3339Nano, row.AnalyzedAt)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestQuietPeriodFollowsFlushCost: an app's quiet period is the cost of
// its last flush capped at Debounce, a burst spaced under it coalesces
// into one flush, and the max-delay cap is counted in the app's own
// quiet periods.
func TestQuietPeriodFollowsFlushCost(t *testing.T) {
	const debounce = 2 * time.Second
	bundles := testCorpus(t, 8, 71)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: debounce})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles[:4] {
		svc.Notify(b)
	}
	if row := appStatus(t, svc, "k9mail"); row.QuietPeriodMS != millis(debounce) || row.FlushCostMS != 0 {
		t.Fatalf("before any flush: quiet %vms cost %vms, want the full Debounce and no cost", row.QuietPeriodMS, row.FlushCostMS)
	}
	svc.Flush()
	row := appStatus(t, svc, "k9mail")
	if row.FlushCostMS < row.LastAnalysisMS || row.FlushCostMS <= 0 {
		t.Fatalf("flush cost %vms does not cover its %vms re-analysis", row.FlushCostMS, row.LastAnalysisMS)
	}
	if row.QuietPeriodMS != row.FlushCostMS {
		t.Fatalf("quiet period %vms, want the last flush cost %vms", row.QuietPeriodMS, row.FlushCostMS)
	}

	// The quiet period never exceeds Debounce.
	setCost(svc, "k9mail", 10*debounce)
	if row := appStatus(t, svc, "k9mail"); row.QuietPeriodMS != millis(debounce) {
		t.Fatalf("quiet period %vms after a %v flush, want capped at Debounce %v", row.QuietPeriodMS, 10*debounce, debounce)
	}

	// After a flush of cost C, a burst spaced under C is one flush, run
	// one C after the burst's last arrival.
	const cost = 200 * time.Millisecond
	setCost(svc, "k9mail", cost)
	before := appStatus(t, svc, "k9mail").Analyses
	var last time.Time
	for _, b := range bundles[4:] {
		last = time.Now()
		svc.Notify(b)
		time.Sleep(cost / 10)
	}
	row = waitAnalyses(t, svc, "k9mail", before, 10*time.Second)
	if row.Analyses != before+1 {
		t.Fatalf("burst of %d arrivals %v apart ran %d flushes, want 1", len(bundles[4:]), cost/10, row.Analyses-before)
	}
	if row.Traces != len(bundles) || row.Summary.TotalTraces != len(bundles) {
		t.Fatalf("flush covered %d of %d traces", row.Summary.TotalTraces, len(bundles))
	}
	if waited := analyzedAt(t, row).Sub(last); waited < cost || waited >= debounce {
		t.Fatalf("flushed %v after the last arrival, want one quiet period (%v) and well under Debounce (%v)", waited, cost, debounce)
	}

	// The max-delay cap follows the app's own quiet period: with a 30ms
	// cost, a stream that never pauses that long is flushed
	// maxDelayFactor×30ms after its first arrival, not 10×Debounce.
	t0 := time.Now()
	st := &appState{dirtySince: t0, lastArrival: t0.Add(time.Hour), cost: 30 * time.Millisecond}
	if got, want := svc.deadline(st), t0.Add(maxDelayFactor*30*time.Millisecond); !got.Equal(want) {
		t.Fatalf("deadline %v after the first arrival, want the app's own cap %v", got.Sub(t0), want.Sub(t0))
	}
	st.cost = 0 // never flushed: Debounce is the quiet period
	if got, want := svc.deadline(st), t0.Add(maxDelayFactor*debounce); !got.Equal(want) {
		t.Fatalf("unflushed app: deadline %v after the first arrival, want %v", got.Sub(t0), want.Sub(t0))
	}

	// End to end: remove and re-add one bundle every 5ms.
	setCost(svc, "k9mail", 30*time.Millisecond)
	before = row.Analyses
	key := trace.ContentKey(bundles[0])
	first := time.Now()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.Remove("k9mail", key)
			svc.Notify(bundles[0])
			time.Sleep(5 * time.Millisecond)
		}
	}()
	row = waitAnalyses(t, svc, "k9mail", before, 10*time.Second)
	close(stop)
	<-done
	if waited := analyzedAt(t, row).Sub(first); waited >= debounce {
		t.Fatalf("a continuous stream deferred the flush %v, want about %v (maxDelayFactor × the 30ms quiet period)",
			waited, maxDelayFactor*30*time.Millisecond)
	}
}

// TestAppDeadlineIndependentOfOtherApps: a continuous arrival stream to
// one app does not delay another app's flush past that app's own
// deadline.
func TestAppDeadlineIndependentOfOtherApps(t *testing.T) {
	const debounce = 300 * time.Millisecond
	x := testCorpus(t, 4, 73)
	y := appCorpus(t, "opengps", 4, 79)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: debounce})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Y: an arrival every 5ms, far under its quiet period, for as long
	// as the test runs.
	yKey := trace.ContentKey(y[0])
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.Remove("opengps", yKey)
			svc.Notify(y[0])
			time.Sleep(5 * time.Millisecond)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	time.Sleep(50 * time.Millisecond)

	sent := time.Now()
	svc.Notify(x[0])
	row := waitAnalyses(t, svc, "k9mail", 0, 10*time.Second)
	waited := analyzedAt(t, row).Sub(sent)
	if waited < debounce {
		t.Fatalf("k9mail flushed %v after its arrival, before its own quiet period %v", waited, debounce)
	}
	// Sharing Y's deadline would hold X until Y's cap, maxDelayFactor ×
	// Debounce = 3s after Y's first arrival.
	if limit := debounce + time.Second; waited > limit {
		t.Fatalf("k9mail flushed %v after its arrival, want its own deadline (%v) plus at most %v: traffic to opengps delayed it",
			waited, debounce, limit-debounce)
	}
}

// TestServedReportsMatchBatchAtAnyWorkerCount: with several apps
// flushed by the scheduler on one worker and on four, every served body
// and ETag is byte-identical to batch Analyze of the app's corpus.
func TestServedReportsMatchBatchAtAnyWorkerCount(t *testing.T) {
	corpora := map[string][]*trace.TraceBundle{
		"k9mail":   testCorpus(t, 6, 83),
		"opengps":  appCorpus(t, "opengps", 6, 89),
		"wallabag": appCorpus(t, "wallabag", 6, 97),
	}
	names := []string{"k9mail", "opengps", "wallabag"}
	for _, workers := range []int{1, 4} {
		cfg := core.DefaultConfig()
		cfg.Parallelism = workers
		svc, err := New(Config{Analysis: cfg, Debounce: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		check := func(what string, want map[string][]*trace.TraceBundle) {
			t.Helper()
			for _, app := range names {
				resp, err := http.Get(ts.URL + "/analysis/report?app=" + app)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Fatalf("workers=%d %s %s: status %d err %v", workers, what, app, resp.StatusCode, err)
				}
				wantJSON, wantETag := batchJSON(t, want[app])
				if !bytes.Equal(body, wantJSON) {
					t.Fatalf("workers=%d %s %s: served report diverged from batch analysis", workers, what, app)
				}
				if got := resp.Header.Get("ETag"); got != wantETag {
					t.Fatalf("workers=%d %s %s: ETag %s is not the batch report's %s", workers, what, app, got, wantETag)
				}
			}
		}

		// Interleave arrivals so scheduled passes flush apps mid-stream.
		for i := 0; i < 6; i++ {
			for _, app := range names {
				svc.Notify(corpora[app][i])
			}
			time.Sleep(2 * time.Millisecond)
		}
		svc.Flush()
		check("after Flush", corpora)

		// Retract one bundle per app and let the scheduler alone flush.
		rest := make(map[string][]*trace.TraceBundle, len(names))
		for _, app := range names {
			rest[app] = append(append([]*trace.TraceBundle(nil), corpora[app][:2]...), corpora[app][3:]...)
			if !svc.Remove(app, trace.ContentKey(corpora[app][2])) {
				t.Fatalf("remove from %s failed", app)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			settled := true
			for _, app := range names {
				row := appStatus(t, svc, app)
				settled = settled && !row.Dirty && row.Summary.TotalTraces == len(rest[app])
			}
			if settled {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: the scheduler did not flush every retraction", workers)
			}
		}
		check("after scheduled flushes", rest)
		ts.Close()
		svc.Close()
	}
}

// batchJSON is the batch pipeline's report for bundles under the
// service's effective config, and the ETag of its cold encoding.
func batchJSON(t *testing.T, bundles []*trace.TraceBundle) (data []byte, etag string) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := a.Analyze(bundles)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	return data, bodyETag(encodeReport(t, report))
}

// encodeReport is core.EncodeReport that fails the test on error.
func encodeReport(t *testing.T, r *core.Report) *core.ReportBody {
	t.Helper()
	body, err := core.EncodeReport(r)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestReportContentLength: a 200 report carries its body length, so the
// body is not sent chunked; a 304 carries none.
func TestReportContentLength(t *testing.T) {
	bundles := testCorpus(t, 4, 101)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles {
		svc.Notify(b)
	}
	svc.Flush()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/analysis/report?app=k9mail")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("report: status %d err %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, want the body length %d", got, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("report sent with Transfer-Encoding %v", resp.TransferEncoding)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/analysis/report?app=k9mail", nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Length"); got != "" {
		t.Fatalf("304 carries Content-Length %q", got)
	}
}

// gatedAnalyzer wraps an app's analyzer so a test can stop a flush
// inside ReportJSON until it closes release. With locked set, the gated
// call holds a mutex that Add, Len and SummaryStats also take, as the
// real analyzer's lock is held through refresh and fragment encode;
// each of those calls signals waiting before it takes the mutex.
type gatedAnalyzer struct {
	*core.IncrementalAnalyzer
	locked  bool
	mu      sync.Mutex
	once    sync.Once
	entered chan struct{} // closed when the first ReportJSON reaches the gate
	release chan struct{} // the gated ReportJSON proceeds once closed
	waiting chan struct{}
}

func (g *gatedAnalyzer) ReportJSON() (*core.Report, *core.ReportBody, error) {
	if g.locked {
		g.mu.Lock()
		defer g.mu.Unlock()
	}
	g.once.Do(func() {
		close(g.entered)
		<-g.release
	})
	return g.IncrementalAnalyzer.ReportJSON()
}

func (g *gatedAnalyzer) lock() {
	g.waiting <- struct{}{}
	g.mu.Lock()
}

func (g *gatedAnalyzer) Add(b *trace.TraceBundle) (string, bool) {
	g.lock()
	defer g.mu.Unlock()
	return g.IncrementalAnalyzer.Add(b)
}

func (g *gatedAnalyzer) Len() int {
	g.lock()
	defer g.mu.Unlock()
	return g.IncrementalAnalyzer.Len()
}

func (g *gatedAnalyzer) SummaryStats() core.SummaryStats {
	g.lock()
	defer g.mu.Unlock()
	return g.IncrementalAnalyzer.SummaryStats()
}

// await fails the test unless ch delivers within a generous timeout.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal(what)
	}
}

// TestNotifyOffServiceLock: while one app's flush is inside ReportJSON,
// an arrival for that app, a status read and a metrics snapshot wait
// for that app's analyzer without holding the service lock, so another
// app's Notify completes. The arrival that landed between the flush
// taking its app and the flush's ReportJSON — before or after the
// analyzer's snapshot — still reaches a served version, byte-identical
// to batch Analyze, with the batch report's ETag.
func TestNotifyOffServiceLock(t *testing.T) {
	k9 := testCorpus(t, 5, 109)
	gps := appCorpus(t, "opengps", 2, 113)
	for _, tc := range []struct {
		name   string
		locked bool // the arrival waits for the flush's analyzer lock
	}{
		{"arrival after the flush's snapshot", true},
		{"arrival before the flush's snapshot", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			inc, err := core.NewIncrementalAnalyzer(svc.cfg.Analysis, 0)
			if err != nil {
				t.Fatal(err)
			}
			// waiting is buffered past every gated call the test does not
			// receive from, so no call blocks on the signal itself.
			g := &gatedAnalyzer{IncrementalAnalyzer: inc, locked: tc.locked,
				entered: make(chan struct{}), release: make(chan struct{}), waiting: make(chan struct{}, 16)}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(g.release) }) }
			defer release() // before Close, so a failed run does not hang
			svc.mu.Lock()
			svc.apps["k9mail"] = &appState{inc: g}
			svc.mu.Unlock()
			for _, b := range k9[:4] {
				svc.Notify(b)
				<-g.waiting
			}

			flushed := make(chan struct{})
			go func() {
				defer close(flushed)
				svc.Flush()
			}()
			<-g.entered
			k9Done := make(chan struct{})
			go func() {
				defer close(k9Done)
				svc.Notify(k9[4])
			}()
			await(t, g.waiting, "k9mail's Notify never reached its analyzer")
			if !tc.locked {
				await(t, k9Done, "k9mail's Notify did not finish mid-flush") // schedule included
			}
			statusDone, snapDone := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(statusDone)
				svc.Statuses()
			}()
			await(t, g.waiting, "Statuses never reached k9mail's analyzer")
			go func() {
				defer close(snapDone)
				svc.metricsSnap()
			}()
			await(t, g.waiting, "the metrics snapshot never reached k9mail's analyzer")
			gpsDone := make(chan struct{})
			go func() {
				defer close(gpsDone)
				svc.Notify(gps[0])
			}()
			await(t, gpsDone, "Notify for opengps waited for k9mail's flush")
			select {
			case <-flushed:
				t.Fatal("k9mail's flush finished while gated")
			default:
			}
			release()
			for _, done := range []chan struct{}{flushed, k9Done, statusDone, snapDone} {
				<-done
			}

			// The arrival re-scheduled k9mail; whichever flush covers it,
			// the next one serves the whole corpus.
			if row := appStatus(t, svc, "k9mail"); !row.Dirty {
				t.Fatal("k9mail is not dirty after an arrival during its flush")
			}
			svc.Flush()
			h := svc.Handler()
			for app, corpus := range map[string][]*trace.TraceBundle{"k9mail": k9, "opengps": gps[:1]} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/analysis/report?app="+app, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: report status %d", app, rec.Code)
				}
				wantJSON, wantETag := batchJSON(t, corpus)
				if !bytes.Equal(rec.Body.Bytes(), wantJSON) {
					t.Fatalf("%s: served report diverged from batch analysis of its %d bundles", app, len(corpus))
				}
				if got := rec.Header().Get("ETag"); got != wantETag {
					t.Fatalf("%s: ETag %s is not the batch report's %s", app, got, wantETag)
				}
			}
		})
	}
}
