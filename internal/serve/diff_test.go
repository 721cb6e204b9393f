package serve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/revision"
	"repro/internal/trace"
)

// diffTestService installs two report versions of k9mail: a clean base
// version and a regression version from a generated revision chain.
// Returns the service and the chain's ground-truth culprit.
func diffTestService(t *testing.T) (*Service, trace.EventKey) {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	// Seed 2 draws a culprit the small test corpus actually exercises
	// (checkMail fires in every session; list taps need longer sessions).
	ccfg := revision.ChainConfig{App: app, Versions: 2, Seed: 2, RegressionAt: 1, Kind: revision.KindHold}
	chain, err := revision.GenerateChain(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := revision.ChainCorpora(chain, ccfg, revision.CorpusConfig{Users: 6, Seed: 5, BrowsePhases: 4, Cached: true})
	if err != nil {
		t.Fatal(err)
	}

	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for _, b := range corpora[0] {
		svc.Notify(b)
	}
	svc.Flush() // version 1: the baseline

	// Sync the corpus to the candidate version in one step: add its
	// bundles, retract the baseline's bundles that did not survive the
	// edit. Separate Notify and Remove calls could straddle a scheduled
	// flush and split the hop across versions.
	svc.SyncCorpus("k9mail", corpora[1])
	svc.Flush() // version 2: the regressed candidate
	return svc, chain.Culprit
}

// TestDiffVersionsEndpoint: /analysis/diff compares two retained report
// versions; with the versions omitted it diffs the latest hop, and the
// revision report's top suspect is the chain's ground-truth culprit.
func TestDiffVersionsEndpoint(t *testing.T) {
	svc, culprit := diffTestService(t)

	rr := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/diff?app=k9mail", nil))
	if rr.Code != 200 {
		t.Fatalf("diff status %d: %s", rr.Code, rr.Body.String())
	}
	var vd VersionDiff
	if err := json.Unmarshal(rr.Body.Bytes(), &vd); err != nil {
		t.Fatal(err)
	}
	if vd.App != "k9mail" || vd.From.Version != 1 || vd.To.Version != 2 {
		t.Fatalf("diff endpoints: app=%s from=%d to=%d, want k9mail 1->2", vd.App, vd.From.Version, vd.To.Version)
	}
	if vd.Diff == nil || vd.Diff.Empty() {
		t.Fatal("regression hop produced an empty diff")
	}
	top, ok := vd.Diff.TopSuspect()
	if !ok || top.Key != culprit {
		t.Fatalf("top suspect = %v (ok=%v), want culprit %v", top.Key, ok, culprit)
	}

	// Explicit versions select the same pair.
	rr = httptest.NewRecorder()
	svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/diff?app=k9mail&from=1&to=2", nil))
	if rr.Code != 200 {
		t.Fatalf("explicit diff status %d: %s", rr.Code, rr.Body.String())
	}
	var explicit VersionDiff
	if err := json.Unmarshal(rr.Body.Bytes(), &explicit); err != nil {
		t.Fatal(err)
	}
	if explicit.From.Version != vd.From.Version || explicit.To.Version != vd.To.Version {
		t.Fatalf("explicit selection diverged: %+v", explicit)
	}
}

// TestDiffVersionsErrors pins the endpoint's failure modes.
func TestDiffVersionsErrors(t *testing.T) {
	svc, _ := diffTestService(t)
	cases := []struct {
		name string
		url  string
		code int
	}{
		{"missing-app", "/analysis/diff", 400},
		{"unknown-app", "/analysis/diff?app=nope", 404},
		{"bad-version", "/analysis/diff?app=k9mail&from=zero", 400},
		{"negative-version", "/analysis/diff?app=k9mail&to=-1", 400},
		{"unretained-version", "/analysis/diff?app=k9mail&from=99", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rr := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rr, httptest.NewRequest("GET", tc.url, nil))
			if rr.Code != tc.code {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.code, rr.Body.String())
			}
		})
	}

	// A single-version app cannot be diffed yet.
	single, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, b := range testCorpus(t, 4, 7) {
		single.Notify(b)
	}
	single.Flush()
	rr := httptest.NewRecorder()
	single.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/diff?app=k9mail", nil))
	if rr.Code != 404 {
		t.Fatalf("single-version diff status %d, want 404: %s", rr.Code, rr.Body.String())
	}
}
