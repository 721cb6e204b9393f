package ui

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/revision"
	"repro/internal/serve"
)

// diffService installs two report versions of k9mail from a revision
// chain whose second version carries a hold regression.
func diffService(t *testing.T) *serve.Service {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	ccfg := revision.ChainConfig{App: app, Versions: 2, Seed: 2, RegressionAt: 1, Kind: revision.KindHold}
	chain, err := revision.GenerateChain(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	corpora, err := revision.ChainCorpora(chain, ccfg, revision.CorpusConfig{Users: 6, Seed: 5, BrowsePhases: 4, Cached: true})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(serve.Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for _, b := range corpora[0] {
		svc.Notify(b)
	}
	svc.Flush()
	// One step, so no scheduled flush splits the hop across versions.
	svc.SyncCorpus("k9mail", corpora[1])
	svc.Flush()
	return svc
}

// TestDiffPageRenders: /ui/diff renders the latest hop's revision
// report with the culprit in the suspects table.
func TestDiffPageRenders(t *testing.T) {
	u := newUI(t, diffService(t))
	rr := get(t, u, "/ui/diff?app=k9mail")
	if rr.Code != 200 {
		t.Fatalf("diff page: %d: %s", rr.Code, rr.Body.String())
	}
	body := rr.Body.String()
	for _, want := range []string{
		"Version diff",
		"comparing v1",
		"v2",
		"Suspected culprits",
		"checkMail", // the chain's regression callback
		"corpus event energy",
		"/analysis/diff?app=k9mail", // raw JSON link
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("diff page missing %q:\n%.600s", want, body)
		}
	}
}

// TestDiffPageErrors: inline errors for unusable versions, 404 for
// unknown apps, and the history table links to the page.
func TestDiffPageErrors(t *testing.T) {
	u := newUI(t, diffService(t))
	if rr := get(t, u, "/ui/diff?app=nope"); rr.Code != 404 {
		t.Fatalf("unknown app: %d", rr.Code)
	}
	if rr := get(t, u, "/ui/diff"); rr.Code != 400 {
		t.Fatalf("missing app: %d", rr.Code)
	}
	rr := get(t, u, "/ui/diff?app=k9mail&from=99&to=100")
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "not retained") {
		t.Fatalf("unretained versions should render inline: %d\n%.300s", rr.Code, rr.Body.String())
	}
	rr = get(t, u, "/ui/diff?app=k9mail&from=x")
	if rr.Code != 200 || !strings.Contains(rr.Body.String(), "bad from version") {
		t.Fatalf("bad version should render inline: %d", rr.Code)
	}
	rr = get(t, u, "/ui/app?app=k9mail")
	if !strings.Contains(rr.Body.String(), "/ui/diff?app=k9mail&to=2") {
		t.Fatal("history table does not link to the diff page")
	}
}
