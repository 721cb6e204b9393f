package serve

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// TestWhatIfIsolation is the differential test behind the what-if
// isolation guarantee: however many what-ifs run with whatever knobs,
// the served snapshot (bytes, version, ETag) and the incremental
// engine's summary state are bit-for-bit unchanged.
func TestWhatIfIsolation(t *testing.T) {
	bundles := testCorpus(t, 8, 53)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, b := range bundles {
		svc.Notify(b)
	}
	svc.Flush()

	before := httptest.NewRecorder()
	h.ServeHTTP(before, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	if before.Code != 200 {
		t.Fatalf("baseline report: %d", before.Code)
	}
	svc.mu.Lock()
	st := svc.apps["k9mail"]
	sumBefore := st.inc.SummaryStats()
	curBefore, _ := st.current()
	verBefore, etagBefore := curBefore.snap.Version, curBefore.snap.ETag
	svc.mu.Unlock()

	// A spread of overrides, including ones that change the outcome.
	for _, qs := range []string{
		"", "window=5", "fence=1.1", "norm=50", "impacted=90",
		"window=1&fence=6&norm=5&impacted=10",
	} {
		url := "/analysis/whatif?app=k9mail"
		if qs != "" {
			url += "&" + qs
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", url, nil))
		if rr.Code != 200 {
			t.Fatalf("whatif %q: %d: %s", qs, rr.Code, rr.Body.String())
		}
		if rr.Header().Get("X-WhatIf") != "true" || rr.Header().Get("Cache-Control") != "no-store" {
			t.Fatalf("whatif %q: missing isolation headers", qs)
		}
	}

	after := httptest.NewRecorder()
	h.ServeHTTP(after, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	if after.Body.String() != before.Body.String() {
		t.Fatal("what-if runs mutated the served report bytes")
	}
	svc.mu.Lock()
	sumAfter := st.inc.SummaryStats()
	curAfter, _ := st.current()
	verAfter, etagAfter := curAfter.snap.Version, curAfter.snap.ETag
	svc.mu.Unlock()
	if verAfter != verBefore || etagAfter != etagBefore {
		t.Fatalf("what-if bumped the snapshot: v%d->%d etag %q->%q",
			verBefore, verAfter, etagBefore, etagAfter)
	}
	if !reflect.DeepEqual(sumBefore, sumAfter) {
		t.Fatalf("what-if touched summary state: %+v -> %+v", sumBefore, sumAfter)
	}
}

// TestWhatIfMatchesBatch: a what-if under overridden knobs returns
// exactly what a batch analyzer configured with those knobs returns.
func TestWhatIfMatchesBatch(t *testing.T) {
	bundles := testCorpus(t, 8, 59)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles {
		svc.Notify(b)
	}
	svc.Flush()

	window, fence := 4, 1.5
	got, cfg, ok, err := svc.WhatIf("k9mail", WhatIfParams{WindowEvents: &window, FenceMultiplier: &fence})
	if !ok || err != nil {
		t.Fatalf("what-if failed: ok=%v err=%v", ok, err)
	}
	if cfg.WindowEvents != window || cfg.FenceMultiplier != fence {
		t.Fatalf("effective config did not take the overrides: %+v", cfg)
	}

	want := core.DefaultConfig()
	want.SkipInvalidTraces = true
	want.WindowEvents = window
	want.FenceMultiplier = fence
	batch, err := core.NewAnalyzer(want)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := batch.Analyze(bundles)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	refJSON, _ := json.Marshal(ref)
	if string(gotJSON) != string(refJSON) {
		t.Fatal("what-if report diverged from a batch run with the same knobs")
	}

	if _, _, ok, _ := svc.WhatIf("nope", WhatIfParams{}); ok {
		t.Fatal("what-if of unknown app reported ok")
	}
}

// TestWhatIfEndpointErrors covers the HTTP error contract of
// /analysis/whatif.
func TestWhatIfEndpointErrors(t *testing.T) {
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	if c := getCode(h, "/analysis/whatif"); c != 400 {
		t.Fatalf("missing app: %d, want 400", c)
	}
	if c := getCode(h, "/analysis/whatif?app=nope"); c != 404 {
		t.Fatalf("unknown app: %d, want 404", c)
	}
	svc.Notify(testCorpus(t, 2, 61)[0])
	if c := getCode(h, "/analysis/whatif?app=k9mail&window=zero"); c != 400 {
		t.Fatalf("bad override: %d, want 400", c)
	}
	// A config the core rejects (negative fence) is the caller's error.
	if c := getCode(h, "/analysis/whatif?app=k9mail&fence=-3"); c != 422 {
		t.Fatalf("invalid config: %d, want 422", c)
	}
}
