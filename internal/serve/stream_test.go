package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestETagRoundTrip: the report endpoint serves a strong ETag, answers a
// matching If-None-Match with 304, and bumps the ETag when the corpus
// changes so the same client revalidates back to 200.
func TestETagRoundTrip(t *testing.T) {
	bundles := testCorpus(t, 6, 29)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, b := range bundles[:3] {
		svc.Notify(b)
	}
	svc.Flush()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	if rr.Code != 200 {
		t.Fatalf("first fetch: %d", rr.Code)
	}
	etag := rr.Header().Get("ETag")
	if etag == "" || etag[0] != '"' {
		t.Fatalf("missing or weak ETag: %q", etag)
	}
	if v := rr.Header().Get("X-Analysis-Version"); v != "1" {
		t.Fatalf("first snapshot version %q, want 1", v)
	}

	req := httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil)
	req.Header.Set("If-None-Match", etag)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 304 {
		t.Fatalf("revalidation: %d, want 304", rr.Code)
	}
	if rr.Body.Len() != 0 {
		t.Fatalf("304 carried a body: %q", rr.Body.String())
	}

	// Corpus change invalidates: same If-None-Match now misses. The
	// three arrivals land in one step: after the first flush the app's
	// quiet period is that flush's cost, short enough that separate
	// Notify calls could straddle a scheduled flush.
	svc.SyncCorpus("k9mail", bundles)
	svc.Flush()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 200 {
		t.Fatalf("after corpus change: %d, want 200", rr.Code)
	}
	if got := rr.Header().Get("ETag"); got == etag {
		t.Fatal("ETag did not change with the report")
	}
	if v := rr.Header().Get("X-Analysis-Version"); v != "2" {
		t.Fatalf("second snapshot version %q, want 2", v)
	}
}

// TestLongPollWakesOnInstall: a fresh client parked on ?wait= is woken
// by the next flush and gets the new snapshot; a fresh client whose
// wait expires gets a clean 304.
func TestLongPollWakesOnInstall(t *testing.T) {
	bundles := testCorpus(t, 6, 31)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	svc.Notify(bundles[0])
	svc.Flush()

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail", nil))
	etag := rr.Header().Get("ETag")

	// Timeout path: still fresh after the wait elapses -> 304.
	req := httptest.NewRequest("GET", "/analysis/report?app=k9mail&wait=30ms", nil)
	req.Header.Set("If-None-Match", etag)
	start := time.Now()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 304 {
		t.Fatalf("timed-out long-poll: %d, want 304", rr.Code)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("long-poll returned before the wait elapsed")
	}

	// Wake path: park, then install a new snapshot.
	type result struct {
		code    int
		version string
	}
	done := make(chan result, 1)
	go func() {
		req := httptest.NewRequest("GET", "/analysis/report?app=k9mail&wait=5s&version=1", nil)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		done <- result{rr.Code, rr.Header().Get("X-Analysis-Version")}
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	svc.Notify(bundles[1])
	svc.Flush()
	select {
	case res := <-done:
		if res.code != 200 || res.version != "2" {
			t.Fatalf("woken long-poll got %d v%s, want 200 v2", res.code, res.version)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll was not woken by the flush")
	}

	// A stale client asking to wait is answered immediately.
	start = time.Now()
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report?app=k9mail&wait=5s", nil))
	if rr.Code != 200 {
		t.Fatalf("stale long-poll: %d, want immediate 200", rr.Code)
	}
	if time.Since(start) > time.Second {
		t.Fatal("stale long-poll parked instead of answering immediately")
	}
}

// TestSSEConnectAndResume: events flow over a real HTTP connection, and
// a reconnect with Last-Event-ID replays exactly the missed events from
// the ring.
func TestSSEConnectAndResume(t *testing.T) {
	bundles := testCorpus(t, 8, 37)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := make(chan StreamEvent, 16)
	watchErr := make(chan error, 1)
	go func() {
		watchErr <- WatchEvents(ctx, nil, ts.URL, "", 0, func(ev StreamEvent) error {
			events <- ev
			return nil
		})
	}()
	waitForSubscriber(t, svc) // a fresh client (lastID 0) gets no replay
	svc.Notify(bundles[0])
	svc.Flush()

	var first StreamEvent
	select {
	case first = <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("no SSE event after the first flush")
	}
	if first.Event.App != "k9mail" || first.Event.Version != 1 || first.Event.ETag == "" {
		t.Fatalf("bad first event: %+v", first.Event)
	}
	if first.Event.Summary.TotalTraces != 1 {
		t.Fatalf("event summary has %d traces, want 1", first.Event.Summary.TotalTraces)
	}
	cancel()
	if err := <-watchErr; err != context.Canceled {
		t.Fatalf("watch exit: %v, want context.Canceled", err)
	}

	// Two more flushes while no client is connected...
	svc.Notify(bundles[1])
	svc.Flush()
	svc.Notify(bundles[2])
	svc.Flush()

	// ...then resume after the first event's ID: exactly v2 and v3 replay.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	var replayed []StreamEvent
	err = WatchEvents(ctx2, nil, ts.URL, "", first.ID, func(ev StreamEvent) error {
		replayed = append(replayed, ev)
		if len(replayed) == 2 {
			return fmt.Errorf("got both")
		}
		return nil
	})
	if err == nil || err.Error() != "got both" {
		t.Fatalf("resume watch exit: %v", err)
	}
	if replayed[0].ID != first.ID+1 || replayed[1].ID != first.ID+2 {
		t.Fatalf("replayed IDs %d,%d, want %d,%d", replayed[0].ID, replayed[1].ID, first.ID+1, first.ID+2)
	}
	if replayed[0].Event.Version != 2 || replayed[1].Event.Version != 3 {
		t.Fatalf("replayed versions %d,%d, want 2,3", replayed[0].Event.Version, replayed[1].Event.Version)
	}
}

// TestSSEResumeFromPreviousProcess: a Last-Event-ID beyond every ID the
// hub issued comes from a previous server process, whose IDs this one
// restarted. The stream must announce a resume gap and replay the whole
// ring, not stay silent until the new process's IDs catch up.
func TestSSEResumeFromPreviousProcess(t *testing.T) {
	bundles := testCorpus(t, 8, 37)
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles[:2] {
		svc.Notify(b)
		svc.Flush()
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/analysis/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "500")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && sc.Text() != "id: 2" {
		if sc.Text() != "" {
			lines = append(lines, sc.Text())
		}
	}
	if sc.Text() != "id: 2" {
		t.Fatalf("stream ended (%v) before event 2; got %q", sc.Err(), lines)
	}
	want := []string{"retry: 2000", ": resume-gap", "id: 1", "event: report"}
	if len(lines) < len(want) || !slices.Equal(lines[:len(want)], want) {
		t.Fatalf("stream lines %q, want a prefix %q", lines, want)
	}

	// A client that adopted the new process's IDs resumes without a gap.
	sub, backlog, gap, ok := svc.hub.subscribe("", 2)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer svc.hub.unsubscribe(sub)
	if gap || len(backlog) != 0 {
		t.Fatalf("resume from the newest ID: gap %v, backlog %d, want none", gap, len(backlog))
	}
}

// TestSlowConsumerNeverBlocksPublish: a subscriber that never drains
// must not stall publish. The queue drops oldest; the newest events
// survive; drops are counted.
func TestSlowConsumerNeverBlocksPublish(t *testing.T) {
	const queue = 4
	h := newHub(16, queue)
	sub, _, _, ok := h.subscribe("", 0)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer h.unsubscribe(sub)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.publish(Event{App: "a", Snapshot: Snapshot{Version: int64(i + 1)}})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a slow consumer")
	}
	if got := sub.dropped.Load(); got != 100-queue {
		t.Fatalf("dropped %d events, want %d", got, 100-queue)
	}
	// The surviving queue is the newest `queue` events in order.
	want := int64(100 - queue + 1)
	for i := 0; i < queue; i++ {
		se := <-sub.ch
		if se.ev.Version != want {
			t.Fatalf("queued event %d has version %d, want %d (drop-oldest)", i, se.ev.Version, want)
		}
		want++
	}
}

// TestStreamRace hammers Notify+Flush (publishing), subscribe/drain/
// unsubscribe, and Close concurrently; run under -race this pins the
// hub's locking discipline (no send-on-closed-channel, no data races).
func TestStreamRace(t *testing.T) {
	bundles := testCorpus(t, 8, 41)
	svc, err := newSized(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour}, historyCap, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				svc.Notify(bundles[(g*10+i)%len(bundles)])
				svc.Flush()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				sub, backlog, _, ok := svc.hub.subscribe("k9mail", uint64(i))
				if !ok {
					return // closed mid-hammer: expected
				}
				_ = backlog
				select {
				case <-sub.ch:
				default:
				}
				svc.hub.unsubscribe(sub)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		svc.Close()
	}()
	wg.Wait()
}

// TestIngestToEventToReport is the acceptance path: a bundle ingested
// through collect.WithIngestHook produces an SSE event whose version
// and ETag match the subsequently fetched report, and the fetched bytes
// are byte-identical to a batch analysis of the same corpus.
func TestIngestToEventToReport(t *testing.T) {
	bundles := testCorpus(t, 5, 43)
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
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events := make(chan StreamEvent, 4)
	go func() {
		_ = WatchEvents(ctx, nil, ts.URL, "k9mail", 0, func(ev StreamEvent) error {
			events <- ev
			return nil
		})
	}()

	waitForSubscriber(t, svc)
	client := collect.NewClient(srv.Addr())
	if err := client.Upload(collect.PhoneState{Charging: true, OnWiFi: true}, bundles); err != nil {
		t.Fatal(err)
	}
	svc.Flush()

	var ev StreamEvent
	select {
	case ev = <-events:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest did not surface as an SSE event")
	}

	resp, err := http.Get(ts.URL + "/analysis/report?app=k9mail")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 0, 1<<20)
	buf := make([]byte, 32*1024)
	for {
		n, rerr := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("report fetch: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != ev.Event.ETag {
		t.Fatalf("event ETag %q != fetched ETag %q", ev.Event.ETag, got)
	}
	if got := resp.Header.Get("X-Analysis-Version"); got != fmt.Sprint(ev.Event.Version) {
		t.Fatalf("event version %d != fetched version %s", ev.Event.Version, got)
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
	wantJSON, _ := json.Marshal(want)
	if string(body) != string(wantJSON) {
		t.Fatal("served report bytes diverged from batch analysis")
	}
	if bodyETag(encodeReport(t, want)) != ev.Event.ETag {
		t.Fatal("event ETag is not the content hash of the batch-identical report")
	}
}

// TestHistoryRing: /analysis/report/history returns the bounded ring of
// snapshot summaries, oldest first, evicting beyond the ring size.
func TestHistoryRing(t *testing.T) {
	bundles := testCorpus(t, 8, 47)
	svc, err := newSized(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour}, 3, streamQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for i := 0; i < 5; i++ {
		svc.Notify(bundles[i])
		svc.Flush()
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/analysis/report/history?app=k9mail", nil))
	if rr.Code != 200 {
		t.Fatalf("history: %d", rr.Code)
	}
	var ring []Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &ring); err != nil {
		t.Fatal(err)
	}
	if len(ring) != 3 {
		t.Fatalf("history length %d, want capped at 3", len(ring))
	}
	for i, snap := range ring {
		if snap.Version != int64(i+3) {
			t.Fatalf("ring[%d] version %d, want %d (oldest evicted first)", i, snap.Version, i+3)
		}
		if snap.ETag == "" || snap.AnalyzedAt == "" {
			t.Fatalf("ring[%d] missing metadata: %+v", i, snap)
		}
		if snap.Summary.TotalTraces != i+3 {
			t.Fatalf("ring[%d] has %d traces, want %d", i, snap.Summary.TotalTraces, i+3)
		}
	}
	if rr := getCode(h, "/analysis/report/history?app=nope"); rr != 404 {
		t.Fatalf("history of unknown app: %d", rr)
	}
	if rr := getCode(h, "/analysis/report/history"); rr != 400 {
		t.Fatalf("history without app: %d", rr)
	}
}

// TestHistoryVersionsRace reads every retained report version while a
// writer keeps re-analyzing the app. Retained versions share their
// unchanged traces with each other and with the analyzer, so each must
// still marshal to the bytes its ETag was computed from, and any
// in-place write to a shared trace shows up here as a race under -race.
func TestHistoryVersionsRace(t *testing.T) {
	bundles := testCorpus(t, 8, 67)
	svc, err := newSized(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour}, 6, streamQueue)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for _, b := range bundles[:6] {
		svc.Notify(b)
	}
	svc.Flush()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 12; i++ {
			b := bundles[i%len(bundles)]
			svc.Remove("k9mail", trace.ContentKey(b))
			svc.Flush()
			svc.Notify(b)
			svc.Flush()
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				svc.mu.Lock()
				history := append([]historyEntry(nil), svc.apps["k9mail"].history...)
				svc.mu.Unlock()
				for i, e := range history {
					body, err := core.EncodeReport(e.report)
					if err != nil {
						t.Error(err)
						return
					}
					if bodyETag(body) != e.snap.ETag {
						t.Errorf("retained version %d no longer marshals to the bytes behind its ETag", e.snap.Version)
						return
					}
					if i == 0 {
						continue
					}
					// A version may age out of the ring between the copy
					// and the diff; only an unknown app is a failure.
					if _, ok, _ := svc.DiffVersions("k9mail", history[i-1].snap.Version, e.snap.Version); !ok {
						t.Error("DiffVersions lost the app")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMethodHygiene: all read endpoints reject non-GET with 405 + Allow.
func TestMethodHygiene(t *testing.T) {
	svc, err := New(Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	h := svc.Handler()
	for _, path := range []string{
		"/analysis/apps", "/analysis/report", "/analysis/report/history",
		"/analysis/events", "/analysis/whatif",
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path, nil))
		if rr.Code != 405 {
			t.Fatalf("POST %s: %d, want 405", path, rr.Code)
		}
		if rr.Header().Get("Allow") != "GET" {
			t.Fatalf("POST %s: Allow=%q, want GET", path, rr.Header().Get("Allow"))
		}
	}
}

// waitForSubscriber blocks until at least one SSE client is registered
// on the hub (events published before the subscription would be lost to
// a fresh client, which carries no Last-Event-ID to replay from).
func waitForSubscriber(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.hub.mu.Lock()
		n := len(svc.hub.subs)
		svc.hub.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE client never subscribed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getCode(h http.Handler, path string) int {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr.Code
}
