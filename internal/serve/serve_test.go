package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

func testCorpus(t *testing.T, users int, seed int64) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.K9Mail()
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

// TestServedReportMatchesBatch: after Notify+Flush, the served JSON is
// byte-identical to a batch analysis of the same bundles under the
// service's effective config (SkipInvalidTraces forced on).
func TestServedReportMatchesBatch(t *testing.T) {
	bundles := testCorpus(t, 8, 11)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles {
		svc.Notify(b)
	}
	svc.Flush()

	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	if rr.Code != 200 {
		t.Fatalf("report status %d: %s", rr.Code, rr.Body.String())
	}

	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Analyze(bundles)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(rr.Body.Bytes()), wantJSON) {
		t.Fatal("served report diverged from batch analysis")
	}

	// Text rendering serves the same report.
	rr = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail&format=text", nil))
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "EnergyDx diagnosis report for k9mail") {
		t.Fatalf("text report wrong: status %d body %.120s", rr.Code, rr.Body.String())
	}
}

// TestNonFiniteEstimateSkipped: a bundle on a device whose profile
// yields non-finite power estimates is skipped at Step 1 like any
// invalid trace. The flush that takes it, and the flushes after it,
// install new versions whose bodies and ETags are batch's for the same
// bundles, instead of failing and leaving the app on its old report.
func TestNonFiniteEstimateSkipped(t *testing.T) {
	pool := testCorpus(t, 6, 23)
	clean, late := pool[:5], pool[5]
	bad := *pool[0]
	bad.Key = ""
	bad.Event.TraceID += "-inf"
	bad.Event.Device = "inf-floor"

	cfg := core.DefaultConfig()
	cfg.Devices = device.NewRegistry()
	cfg.Devices.Register(device.Profile{Name: "inf-floor", BaseMW: math.Inf(1)})
	svc, err := New(Config{Analysis: cfg, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var served []*trace.TraceBundle
	for version, arrivals := range [][]*trace.TraceBundle{clean, {&bad}, {late}} {
		for _, b := range arrivals {
			svc.Notify(b)
		}
		served = append(served, arrivals...)
		svc.Flush()
		row := appStatus(t, svc, "k9mail")
		if row.Version != int64(version+1) || row.LastError != "" {
			t.Fatalf("flush %d: version %d, last error %q; want version %d and no error", version+1, row.Version, row.LastError, version+1)
		}

		want, err := batch.Analyze(served)
		if err != nil {
			t.Fatal(err)
		}
		if version > 0 {
			if len(want.Skipped) != 1 || want.Skipped[0].TraceID != bad.Event.TraceID ||
				!strings.HasPrefix(want.Skipped[0].Reason, "step 1: non-finite power estimate for ") {
				t.Fatalf("flush %d: batch skipped %+v, want only %s for a non-finite Step-1 estimate", version+1, want.Skipped, bad.Event.TraceID)
			}
		}
		rr := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
		if rr.Code != 200 {
			t.Fatalf("flush %d: report status %d: %s", version+1, rr.Code, rr.Body.String())
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rr.Body.Bytes(), wantJSON) {
			t.Fatalf("flush %d: served body differs from batch", version+1)
		}
		if got, wantTag := rr.Header().Get("ETag"), bodyETag(encodeReport(t, want)); got != wantTag {
			t.Fatalf("flush %d: ETag %s, want batch's %s", version+1, got, wantTag)
		}
	}
}

// TestAppReportKeepsInstalledSnapshot: a failed flush leaves the
// installed version as it was. AppReport returns that version's own
// snapshot, equal to its History entry, and the staleness gauge ages
// the installed version, not the failed attempt.
func TestAppReportKeepsInstalledSnapshot(t *testing.T) {
	bundles := testCorpus(t, 4, 31)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles {
		svc.Notify(b)
	}
	svc.Flush()
	installed, _, _ := svc.AppReport("k9mail")
	if installed == nil {
		t.Fatal("no report installed after the first flush")
	}

	// Let the installed version age, then make the next flush fail.
	const aged = 20 * time.Millisecond
	time.Sleep(aged)
	if _, removed := svc.SyncCorpus("k9mail", nil); removed != len(bundles) {
		t.Fatalf("retracted %d bundles, want %d", removed, len(bundles))
	}
	svc.Flush()
	if row := appStatus(t, svc, "k9mail"); row.LastError == "" || row.Analyses != 2 {
		t.Fatalf("analyses %d, last error %q; want a failed second analysis", row.Analyses, row.LastError)
	}

	report, snap, ok := svc.AppReport("k9mail")
	history, _ := svc.History("k9mail")
	if !ok || report != installed || len(history) != 1 {
		t.Fatalf("after a failed flush: ok %v, same report %v, %d versions; want the first version still installed", ok, report == installed, len(history))
	}
	if want := history[0]; snap.Version != want.Version || snap.ETag != want.ETag ||
		snap.AnalyzedAt != want.AnalyzedAt || snap.WallMillis != want.WallMillis {
		t.Fatalf("AppReport snapshot v%d at %s (wall %.3f ms), History has v%d at %s (wall %.3f ms)",
			snap.Version, snap.AnalyzedAt, snap.WallMillis, want.Version, want.AnalyzedAt, want.WallMillis)
	}

	svc.Notify(bundles[0])
	svc.invalidateMetricsSnap()
	if age := svc.metricsSnap().staleness; age < aged.Seconds() {
		t.Fatalf("staleness %.4fs; want the installed version's age, at least %.4fs", age, aged.Seconds())
	}
}

// TestDebounceCoalescesBursts: a burst of arrivals triggers one
// re-analysis, not one per bundle.
func TestDebounceCoalescesBursts(t *testing.T) {
	bundles := testCorpus(t, 6, 13)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles {
		svc.Notify(b)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.mu.Lock()
		st := svc.apps["k9mail"]
		analyses := int64(0)
		ready := false
		if st != nil {
			analyses = st.analyses
			ready = st.body != nil
		}
		svc.mu.Unlock()
		if ready {
			if analyses != 1 {
				t.Fatalf("burst of %d bundles ran %d analyses, want 1", len(bundles), analyses)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("debounced analysis never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A duplicate re-delivery is not a corpus change: no new analysis.
	svc.Notify(bundles[0])
	time.Sleep(150 * time.Millisecond)
	svc.mu.Lock()
	analyses := svc.apps["k9mail"].analyses
	svc.mu.Unlock()
	if analyses != 1 {
		t.Fatalf("duplicate notify triggered re-analysis (%d runs)", analyses)
	}
}

// TestHandlerStatusCodes covers the endpoint error contract.
func TestHandlerStatusCodes(t *testing.T) {
	bundles := testCorpus(t, 4, 17)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}
	if rr := get("/analysis/report"); rr.Code != 400 {
		t.Fatalf("missing app param: %d", rr.Code)
	}
	if rr := get("/analysis/report?app=nope"); rr.Code != 404 {
		t.Fatalf("unknown app: %d", rr.Code)
	}
	svc.Notify(bundles[0])
	if rr := get("/analysis/report?app=k9mail"); rr.Code != 503 {
		t.Fatalf("tracked-but-unanalyzed app: %d, want 503", rr.Code)
	}
	if rr := get("/analysis/flush"); rr.Code != 405 {
		t.Fatalf("GET flush: %d, want 405", rr.Code)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/analysis/flush", nil))
	if rr.Code != 200 {
		t.Fatalf("POST flush: %d", rr.Code)
	}
	if rr := get("/analysis/report?app=k9mail"); rr.Code != 200 {
		t.Fatalf("report after flush: %d", rr.Code)
	}
	rr = get("/analysis/apps")
	if rr.Code != 200 {
		t.Fatalf("apps listing: %d", rr.Code)
	}
	var rows []AppStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &rows); err != nil {
		t.Fatalf("apps listing not JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].App != "k9mail" || rows[0].Traces != 1 {
		t.Fatalf("apps listing wrong: %+v", rows)
	}
	if rows[0].Cache.Hits+rows[0].Cache.Misses != rows[0].Cache.Lookups {
		t.Fatalf("cache stats in listing do not reconcile: %+v", rows[0].Cache)
	}
}

// TestRemoveEndpoint covers bundle retraction end to end: DELETE
// /analysis/remove drops the bundle from the corpus, schedules a
// re-analysis, and the next served report is byte-identical to a batch
// analysis of the remaining bundles. The /analysis/apps listing
// surfaces the per-key summary state alongside.
func TestRemoveEndpoint(t *testing.T) {
	bundles := testCorpus(t, 6, 23)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	keys := make([]string, len(bundles))
	for i, b := range bundles {
		svc.Notify(b)
		keys[i] = b.Key
		if keys[i] == "" {
			keys[i] = trace.ContentKey(b)
		}
	}
	svc.Flush()

	do := func(method, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr
	}
	if rr := do("GET", "/analysis/remove?app=k9mail&key="+keys[2]); rr.Code != 405 {
		t.Fatalf("GET remove: %d, want 405", rr.Code)
	}
	if rr := do("DELETE", "/analysis/remove?app=k9mail"); rr.Code != 400 {
		t.Fatalf("missing key param: %d, want 400", rr.Code)
	}
	if rr := do("DELETE", "/analysis/remove?app=nope&key="+keys[2]); rr.Code != 404 {
		t.Fatalf("unknown app: %d, want 404", rr.Code)
	}
	if rr := do("DELETE", "/analysis/remove?app=k9mail&key=not-a-content-key"); rr.Code != 404 {
		t.Fatalf("unknown key: %d, want 404", rr.Code)
	}
	rr := do("DELETE", "/analysis/remove?app=k9mail&key="+keys[2])
	if rr.Code != 200 {
		t.Fatalf("remove: %d: %s", rr.Code, rr.Body.String())
	}
	var resp struct {
		Removed bool `json:"removed"`
		Traces  int  `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil || !resp.Removed || resp.Traces != len(bundles)-1 {
		t.Fatalf("remove response wrong (%v): %s", err, rr.Body.String())
	}
	// Retraction marked the app dirty; the flush must serve the shrunken
	// corpus, byte-identical to a batch run without the removed bundle.
	if rr := do("DELETE", "/analysis/remove?app=k9mail&key="+keys[2]); rr.Code != 404 {
		t.Fatalf("double remove: %d, want 404", rr.Code)
	}
	svc.Flush()
	rr = do("GET", "/analysis/report?app=k9mail")
	if rr.Code != 200 {
		t.Fatalf("report after remove: %d", rr.Code)
	}
	remaining := append(append([]*trace.TraceBundle(nil), bundles[:2]...), bundles[3:]...)
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Analyze(remaining)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(bytes.TrimSpace(rr.Body.Bytes()), wantJSON) {
		t.Fatal("report after retraction diverged from batch over the remaining bundles")
	}

	rr = do("GET", "/analysis/apps")
	var rows []AppStatus
	if err := json.Unmarshal(rr.Body.Bytes(), &rows); err != nil {
		t.Fatalf("apps listing not JSON: %v", err)
	}
	if len(rows) != 1 || rows[0].Traces != len(bundles)-1 {
		t.Fatalf("apps listing wrong after remove: %+v", rows)
	}
	sum := rows[0].Summaries
	if sum.Keys == 0 || sum.Values == 0 || sum.Nodes == 0 || sum.Bytes == 0 {
		t.Fatalf("summary stats missing from listing: %+v", sum)
	}
	if sum.PendingMutations != 0 {
		t.Fatalf("flushed corpus still has %d pending mutations", sum.PendingMutations)
	}
}

// TestEndToEndIngestToServe wires the real collection server to the
// serving layer through WithIngestHook and drives it with the real
// upload client: uploaded bundles must surface in the served report,
// and re-uploads must not.
func TestEndToEndIngestToServe(t *testing.T) {
	bundles := testCorpus(t, 5, 19)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := collect.NewServer("127.0.0.1:0", collect.WithIngestHook(svc.Notify))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := collect.NewClient(srv.Addr())
	state := collect.PhoneState{Charging: true, OnWiFi: true}
	if err := client.Upload(state, bundles); err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(state, bundles); err != nil { // idempotent re-upload
		t.Fatal(err)
	}
	svc.Flush()

	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	if rr.Code != 200 {
		t.Fatalf("report status %d: %s", rr.Code, rr.Body.String())
	}
	var report core.Report
	if err := json.Unmarshal(rr.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.TotalTraces != len(bundles) {
		t.Fatalf("served %d traces, want %d (re-upload must not inflate the corpus)",
			report.TotalTraces, len(bundles))
	}
}
