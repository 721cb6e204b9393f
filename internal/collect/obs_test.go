package collect

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestMetricsReconcileUnderFaults pins the ingestion accounting
// invariant under chaos: every bundle frame a client writes is counted
// exactly once on the server as accepted, duplicated or quarantined, so
//
//	sum(client LinesSent) == Accepted + Duplicated + Quarantined
//
// holds exactly once the uploads converge. The fault mix is truncate +
// duplicate + drop; corruption is exercised in the soak test.
func TestMetricsReconcileUnderFaults(t *testing.T) {
	const (
		nClients       = 4
		usersPerClient = 6
	)
	app, err := apps.ByAppID("opengps")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(app, 99)
	wcfg.Users = nClients * usersPerClient
	wcfg.ImpactedFraction = 0.25
	wcfg.Scrub = false // clients scrub on upload
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fcfg := faults.Config{
		TruncateProb:  0.12,
		DuplicateProb: 0.12,
		DropProb:      0.15,
	}
	clients := make([]*Client, nClients)
	injectors := make([]*faults.Injector, nClients)
	uploadErrs := make([]error, nClients)
	var wg sync.WaitGroup
	for ci := 0; ci < nClients; ci++ {
		fcfg.Seed = int64(ci+1) * 2654435761
		in, err := faults.New(fcfg)
		if err != nil {
			t.Fatal(err)
		}
		injectors[ci] = in
		clients[ci] = NewClient(srv.Addr(),
			WithFaults(in),
			WithJitterSeed(int64(ci)),
			WithRetry(60, time.Millisecond, 4*time.Millisecond),
			WithTimeout(500*time.Millisecond))
		chunk := corpus.Bundles[ci*usersPerClient : (ci+1)*usersPerClient]
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			uploadErrs[ci] = clients[ci].Upload(PhoneState{Charging: true, OnWiFi: true}, chunk)
		}(ci)
	}
	wg.Wait()
	for ci, err := range uploadErrs {
		if err != nil {
			t.Fatalf("client %d did not converge: %v", ci, err)
		}
	}

	var total faults.Stats
	for _, in := range injectors {
		s := in.Stats()
		total.Truncated += s.Truncated
		total.Duplicated += s.Duplicated
		total.Dropped += s.Dropped
	}
	t.Logf("injected: truncated=%d duplicated=%d dropped=%d", total.Truncated, total.Duplicated, total.Dropped)
	if total.Truncated == 0 || total.Duplicated == 0 || total.Dropped == 0 {
		t.Fatalf("fault schedule did not exercise every kind: %+v", total)
	}

	// Connections are all closed, so Close only stops the listener; it
	// quiesces the counters for the reconciliation read.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	var sent, acked int64
	for _, c := range clients {
		cs := c.Stats()
		sent += cs.LinesSent
		acked += cs.Acked
	}
	if got := st.Accepted + st.Duplicated + st.Quarantined; got != sent {
		t.Errorf("accepted %d + duplicated %d + quarantined %d = %d, want %d frames sent",
			st.Accepted, st.Duplicated, st.Quarantined, got, sent)
	}
	// Exactly-once storage: every bundle accepted once, re-sends and
	// injected duplicates all land in Duplicated.
	if st.Accepted != int64(len(corpus.Bundles)) {
		t.Errorf("accepted = %d, want %d (exactly-once)", st.Accepted, len(corpus.Bundles))
	}
	if srv.Count() != len(corpus.Bundles) {
		t.Errorf("server stores %d bundles, want %d", srv.Count(), len(corpus.Bundles))
	}
	if acked < int64(len(corpus.Bundles)) {
		t.Errorf("clients acked %d bundles, want at least %d", acked, len(corpus.Bundles))
	}
	// Without a durable store there are no reload-skipped records, so the
	// wire counter and the quarantine total agree exactly.
	if st.Quarantined != int64(srv.QuarantineCount()) {
		t.Errorf("quarantined counter %d != quarantine count %d", st.Quarantined, srv.QuarantineCount())
	}
	if st.ConnsOpen != 0 {
		t.Errorf("connections still open after Close: %d", st.ConnsOpen)
	}
	if st.ConnsTotal < nClients {
		t.Errorf("connections total = %d, want at least %d", st.ConnsTotal, nClients)
	}
	if st.BytesIngested == 0 {
		t.Error("no bytes counted on the ingest path")
	}
}

// TestDebugEndpointsFlipDuringShutdown drives the live debug surface
// the way a load balancer sees it: /metrics exposes the ingestion
// counters of a running server, and /healthz plus /readyz flip to 503
// the moment the drain begins.
func TestDebugEndpointsFlipDuringShutdown(t *testing.T) {
	health := obs.NewHealth()
	debug, err := obs.ServeDebug("127.0.0.1:0", obs.DebugMux(obs.Default, health))
	if err != nil {
		t.Fatal(err)
	}
	defer debug.Close()

	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	health.SetReady(true)

	app, err := apps.ByAppID("k9mail")
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(app, 5)
	wcfg.Users = 3
	wcfg.Scrub = false
	corpus, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(srv.Addr())
	if err := client.Upload(PhoneState{Charging: true, OnWiFi: true}, corpus.Bundles); err != nil {
		t.Fatal(err)
	}

	if code, _ := httpGet(t, debug.Addr(), "/healthz"); code != http.StatusOK {
		t.Errorf("serving /healthz = %d, want 200", code)
	}
	if code, _ := httpGet(t, debug.Addr(), "/readyz"); code != http.StatusOK {
		t.Errorf("serving /readyz = %d, want 200", code)
	}

	_, body := httpGet(t, debug.Addr(), "/metrics")
	for _, name := range []string{
		"collect_bundles_accepted_total",
		"collect_bundles_duplicated_total",
		"collect_bundles_quarantined_total",
		"collect_bytes_ingested_total",
		"collect_connections_total",
		"collect_connections_open",
		"collect_quarantine_kept",
		"collect_client_lines_sent_total",
	} {
		if !hasMetric(body, name) {
			t.Errorf("/metrics missing sample for %s", name)
		}
	}
	// The process registry is cumulative across tests, so assert floors
	// against this test's own traffic rather than exact values.
	if v := metricValue(t, body, "collect_bundles_accepted_total"); v < float64(len(corpus.Bundles)) {
		t.Errorf("collect_bundles_accepted_total = %v, want at least %d", v, len(corpus.Bundles))
	}

	_, jbody := httpGet(t, debug.Addr(), "/metrics?format=json")
	var obj map[string]any
	if err := json.Unmarshal([]byte(jbody), &obj); err != nil {
		t.Fatalf("/metrics?format=json does not parse: %v", err)
	}
	if _, ok := obj["collect_ingest_seconds"]; !ok {
		t.Error("JSON metrics missing collect_ingest_seconds histogram")
	}

	// Drain begins: both probes must flip before the listener closes.
	health.ShuttingDown()
	if code, _ := httpGet(t, debug.Addr(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz = %d, want 503", code)
	}
	if code, _ := httpGet(t, debug.Addr(), "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", code)
	}
}

// httpGet fetches a debug path and returns status code and body.
func httpGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// hasMetric reports whether the Prometheus text body has a sample line
// for the metric (histograms expose name_count etc.).
func hasMetric(body, name string) bool {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"_count ") ||
			strings.HasPrefix(line, name+"_bucket{") {
			return true
		}
	}
	return false
}

// metricValue extracts a scalar sample from the Prometheus text body.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad sample %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}
