package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

// hotTier is hot-app's system under test: one collect server over a
// SegStore, its ingest hook feeding a serving layer with the default
// configuration, and that layer's HTTP surface.
type hotTier struct {
	store  *tracedStore
	svc    *serve.Service
	srv    *collect.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	base   string        // http://host:port
}

func (t *hotTier) close() error {
	t.hs.Close()
	<-t.served
	err := t.srv.Close()
	t.svc.Close()
	if cerr := t.store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// reportURL is the operator's report endpoint for app.
func (t *hotTier) reportURL(app, wait string) string {
	q := url.Values{"app": {app}}
	if wait != "" {
		q.Set("wait", wait)
	}
	return t.base + "/analysis/report?" + q.Encode()
}

// openHotTier opens the store, warms the serving layer from it as
// collectd does, and returns once the first report is readable over
// HTTP. It also returns how long the first flush took, and the first
// report's ETag.
func openHotTier(dir, app string, tr *tracer, client *http.Client) (*hotTier, time.Duration, string, error) {
	store, err := openStore(dir, tr)
	if err != nil {
		return nil, 0, "", err
	}
	svc, err := serve.New(serve.Config{
		Analysis: core.DefaultConfig(),
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		store.Close()
		return nil, 0, "", err
	}
	hook := func(b *trace.TraceBundle) {
		sp := tr.begin("serve.notify", b.Key, 0)
		svc.Notify(b)
		sp.end()
	}
	srv, err := collect.NewServer("127.0.0.1:0", collect.WithStore(store), collect.WithIngestHook(hook))
	if err != nil {
		svc.Close()
		store.Close()
		return nil, 0, "", err
	}
	for _, b := range srv.Bundles(app) {
		svc.Notify(b)
	}
	sp := tr.begin("core.first_report", "setup", 0)
	t := time.Now()
	svc.Flush()
	first := time.Since(t)
	sp.end()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		svc.Close()
		store.Close()
		return nil, 0, "", err
	}
	tier := &hotTier{store: store, svc: svc, srv: srv, served: make(chan struct{}),
		hs: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String()}
	go func() {
		defer close(tier.served)
		_ = tier.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	resp, err := client.Get(tier.reportURL(app, ""))
	if err != nil {
		tier.close()
		return nil, 0, "", fmt.Errorf("hot-app: first report: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tier.close()
		return nil, 0, "", fmt.Errorf("hot-app: first report: HTTP %d", resp.StatusCode)
	}
	return tier, first, resp.Header.Get("ETag"), nil
}

// opRead is one new report version the operator read.
type opRead struct {
	version int64
	total   int       // the report's totalTraces
	hdr     time.Time // response headers arrived
	done    time.Time // body fully read
	size    int
}

var totalTracesField = []byte(`"totalTraces":`)

// totalTraces reads the totalTraces field from a report body's head
// without decoding the whole report.
func totalTraces(body []byte) (int, error) {
	i := bytes.Index(body[:min(len(body), 512)], totalTracesField)
	if i < 0 {
		return 0, fmt.Errorf("report has no totalTraces field")
	}
	rest := body[i+len(totalTracesField):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, fmt.Errorf("report totalTraces unterminated")
	}
	return strconv.Atoi(string(rest[:j]))
}

// operate long-polls the report with If-None-Match and records every
// new version until ctx ends. seen holds the highest totalTraces read.
func operate(ctx context.Context, client *http.Client, u, etag string, seen *atomic.Int64, reads *[]opRead) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return err
		}
		req.Header.Set("If-None-Match", etag)
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("hot-app: operator: %w", err)
		}
		hdr := time.Now()
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("hot-app: operator: %w", err)
		}
		switch resp.StatusCode {
		case http.StatusNotModified:
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("hot-app: operator: HTTP %d", resp.StatusCode)
		}
		total, err := totalTraces(body)
		if err != nil {
			return fmt.Errorf("hot-app: operator: %w", err)
		}
		version, err := strconv.ParseInt(resp.Header.Get("X-Analysis-Version"), 10, 64)
		if err != nil {
			return fmt.Errorf("hot-app: operator: version header: %w", err)
		}
		*reads = append(*reads, opRead{version: version, total: total, hdr: hdr, done: done, size: len(body)})
		etag = resp.Header.Get("ETag")
		seen.Store(int64(total))
	}
}

// drainTimeout bounds the wait, after the last phone, for the operator
// to read a report covering every acked bundle: the serving layer's
// default MaxDelay (5 s) plus room for the flush itself.
const drainTimeout = 15 * time.Second

// runHot is the hot-app workload: phones upload to one hot app on an
// open-loop schedule while one operator long-polls its report.
func runHot(rc runConfig) (*outcome, error) {
	o := newOutcome()
	in, err := genHot(rc.seed, rc.window)
	if err != nil {
		return nil, err
	}
	// Pre-write the corpus, stamped as phones uploaded it. The oracle's
	// corpus is the same bundles in the order the log holds them, then
	// the phones' in upload order.
	oracle, err := prewriteHot(rc.dir, in.corpus)
	if err != nil {
		return nil, err
	}
	app := oracle[0].Event.AppID

	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	var setups, replays, firsts []float64
	var tier *hotTier
	var etag string
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		var first time.Duration
		tier, first, etag, err = openHotTier(rc.dir, app, rc.tr, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		replays = append(replays, tier.store.replayTime.Seconds())
		firsts = append(firsts, first.Seconds())
		if r < setupReps-1 {
			if err := tier.close(); err != nil {
				return nil, err
			}
		}
	}
	defer tier.close()
	o.Setups = setups

	// The phones' bundles as the server will store them, for the oracle
	// and, in a traced run, for naming each bundle's spans by its
	// content key. Computed before the phase, so the sender's timing
	// does not include them.
	stamped := make([][]*trace.TraceBundle, len(in.phones))
	phoneKeys := make([][]string, len(in.phones))
	for i, batch := range in.phones {
		for _, b := range batch {
			s := stamp(b)
			stamped[i] = append(stamped[i], s)
			phoneKeys[i] = append(phoneKeys[i], s.Key)
		}
	}

	// The operator reads every new version for the whole phase.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		seen    atomic.Int64
		reads   []opRead
		opErr   error
		opWG    sync.WaitGroup
		pollURL = tier.reportURL(app, "30s")
	)
	opWG.Add(1)
	go func() {
		defer opWG.Done()
		opErr = operate(ctx, client, pollURL, etag, &seen, &reads)
	}()

	// The sender plays the phones, each timed from when it was due.
	var (
		due      time.Time
		ackAt    []time.Time // per uploaded bundle, in upload order
		dueOf    []time.Time
		keys     []string
		next     int
		upload   span
		late     []float64
		phoneLat []float64
		sent     int64
	)
	sender := collect.NewClient(tier.srv.Addr(),
		collect.WithBinary(),
		collect.WithJitterSeed(subSeed(rc.seed, 200)),
		collect.WithAckObserver(func(d time.Duration) {
			now := time.Now()
			ackAt = append(ackAt, now)
			dueOf = append(dueOf, due)
			if next < len(keys) {
				rc.tr.record("collect.ack", keys[next], upload.id, now.Add(-d), now)
				next++
			}
		}))
	state := collect.PhoneState{Charging: true, OnWiFi: true}
	start := time.Now()
	for i, a := range in.schedule {
		due = start.Add(a.Due)
		time.Sleep(time.Until(due))
		sendAt := time.Now()
		late = append(late, ms(sendAt.Sub(due)))
		batch := in.phones[i]
		keys, next = phoneKeys[i], 0
		upload = rc.tr.begin("collect.upload", fmt.Sprintf("phone%d", i), 0)
		err := sender.Upload(state, batch)
		upload.end()
		phoneLat = append(phoneLat, ms(time.Since(due)))
		sent += int64(len(batch))
		if err != nil {
			o.check(fmt.Errorf("hot-app: phone %d: %w", i, err))
			break
		}
		oracle = append(oracle, stamped[i]...)
	}
	lastAck := start
	if len(ackAt) > 0 {
		lastAck = ackAt[len(ackAt)-1]
	}
	target := int64(hotCorpus + len(ackAt))
	drainBy := time.Now().Add(drainTimeout)
	for seen.Load() < target && time.Now().Before(drainBy) {
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	opWG.Wait()
	o.HeapMB = liveHeapMB()
	o.check(opErr)
	o.check(checkAcks(sent, int64(len(ackAt))))
	if seen.Load() < target {
		o.check(fmt.Errorf("hot-app: operator saw %d traces within %v of the last phone, want %d",
			seen.Load(), drainTimeout, target))
	}
	o.Attempted = int(sent)

	// Visibility: a bundle is visible at the end of the first read whose
	// report covers it. Bundles join the corpus in upload order, so
	// bundle g is covered once totalTraces reaches hotCorpus+g+1.
	var acks, visible []float64
	coverRead := make([]int, len(ackAt)) // index into reads
	r := 0
	for g := range ackAt {
		acks = append(acks, ms(ackAt[g].Sub(dueOf[g])))
		for r < len(reads) && reads[r].total < hotCorpus+g+1 {
			r++
		}
		coverRead[g] = r
		if r < len(reads) {
			visible = append(visible, ms(reads[r].done.Sub(dueOf[g])))
		}
	}
	wall := lastAck.Sub(start).Seconds()
	o.measured(wall, float64(len(ackAt)), float64(len(phoneLat)), acks, visible, phoneLat)
	o.note("ack_* and visible_* are timed from each phone's due time; gates_* is one phone's whole Upload call, from due to return")

	// The final served report must be byte-identical to batch analysis
	// of the acked corpus in upload order.
	served, err := getBody(client, tier.reportURL(app, ""))
	if err != nil {
		return nil, err
	}
	want, err := batchReportJSON(oracle)
	if err != nil {
		return nil, err
	}
	o.check(compareReport(served, want))

	if rc.tr == nil {
		return o, nil
	}
	histBody, err := getBody(client, tier.base+"/analysis/report/history?app="+url.QueryEscape(app))
	if err != nil {
		return nil, err
	}
	var history []serve.Snapshot
	if err := json.Unmarshal(histBody, &history); err != nil {
		return nil, fmt.Errorf("hot-app: history: %w", err)
	}
	var status serve.AppStatus
	for _, st := range tier.svc.Statuses() {
		if st.App == app {
			status = st
		}
	}
	hotLayers(o, rc.tr, in, reads, coverRead, visible, history, status, tier.srv.Stats(),
		tier.store, sender.Stats(), len(in.schedule), replays, firsts, late)
	return o, nil
}

// hotLayers fills hot-app's per-layer metrics from the traced run.
func hotLayers(o *outcome, tr *tracer, in *hotInputs, reads []opRead, coverRead []int, visible []float64,
	history []serve.Snapshot, status serve.AppStatus, srvStats collect.ServerStats, store *tracedStore,
	cs collect.ClientStats, uploads int, replays, firsts, late []float64) {
	spans := tr.records()
	adoptByRequest(spans, "collect.ack", "collect.store_append", "serve.notify")
	o.spans = spans
	L := o.Layer

	var sample []*trace.TraceBundle
	for _, batch := range in.phones {
		for _, b := range batch {
			sample = append(sample, stamp(b))
		}
	}
	if enc, dec, err := codecTimes(sample); err == nil {
		L["binenc.encode_us"], L["binenc.decode_us"] = enc, dec
	} else {
		o.check(err)
	}
	L["binenc.wire_bytes_per_bundle"] = ratio(float64(srvStats.BytesIngested), float64(srvStats.Accepted))
	L["collect.upload_ms"] = median(durationsOf(spans, "collect.upload", time.Millisecond))
	L["collect.store_append_us"] = median(durationsOf(spans, "collect.store_append", time.Microsecond))
	L["collect.server_self_us"] = median(selfOf(spans, "collect.ack", time.Microsecond))
	L["collect.attempts_per_upload"] = ratio(float64(cs.Attempts), float64(uploads))
	L["collect.accepted"] = float64(srvStats.Accepted)
	L["collect.duplicated"] = float64(srvStats.Duplicated)
	L["collect.quarantined"] = float64(srvStats.Quarantined)
	ls := store.Log().Stats()
	L["seglog.fsyncs_per_bundle"] = ratio(float64(ls.Commits), float64(ls.Appends))
	L["seglog.replay_s"] = median(replays)

	notifyUS := durationsOf(spans, "serve.notify", time.Microsecond)
	L["serve.notify_mean_us"] = mean(notifyUS)
	notify := summarize(notifyUS)
	L["serve.notify_p50_us"], L["serve.notify_tail_us"] = notify.P50, notify.Tail
	flushes := float64(status.Analyses - 1) // the set-up flush is not the phase's
	L["serve.flushes"] = flushes
	L["serve.bundles_per_flush"] = ratio(float64(srvStats.Accepted), flushes)

	// Per version: report wall time from the history ring, materialize
	// from AnalyzedAt to the long-poll wake, read from wake to body end.
	byVersion := make(map[int64]serve.Snapshot, len(history))
	for _, s := range history {
		byVersion[s.Version] = s
	}
	type phase struct{ report, materialize, read float64 }
	phases := make([]*phase, len(reads))
	var reportMS, materialize, readMS, sizes []float64
	for i, rd := range reads {
		readMS = append(readMS, ms(rd.done.Sub(rd.hdr)))
		sizes = append(sizes, float64(rd.size)/1e6)
		snap, ok := byVersion[rd.version]
		if !ok {
			continue
		}
		at, err := time.Parse(time.RFC3339Nano, snap.AnalyzedAt)
		if err != nil {
			continue
		}
		p := &phase{report: snap.WallMillis, materialize: ms(rd.hdr.Sub(at)), read: ms(rd.done.Sub(rd.hdr))}
		phases[i] = p
		reportMS = append(reportMS, p.report)
		materialize = append(materialize, p.materialize)
	}
	L["serve.report_ms"] = median(reportMS)
	L["serve.materialize_ms"] = median(materialize)
	L["serve.read_ms"] = median(readMS)
	L["serve.report_mb"] = median(sizes)
	var wait []float64
	for g, v := range visible {
		if p := phases[coverRead[g]]; p != nil {
			wait = append(wait, v-p.report-p.materialize-p.read)
		}
	}
	L["serve.debounce_wait_ms"] = median(wait)

	L["core.step1_hit_rate"] = status.Cache.HitRate()
	L["core.summary_mb"] = float64(status.Summaries.Bytes) / 1e6
	L["core.first_report_s"] = median(firsts)
	o.zeroLayers("no version chains on hot-app", "revision.analyze_ms", "revision.compare_ms",
		"revision.evaluate_us", "revision.churn_frac")
	L["harness.late_ms"] = summarize(late).Tail
	o.note("harness.late_ms is the tail of how late the sender started each phone's upload")
	o.note("serve.debounce_wait_ms is visible minus report, materialize and read time of the covering version")
}

// hotWriters is how many goroutines pre-write hot-app's corpus, so the
// log's group commit shares each fsync among them.
const hotWriters = 32

// prewriteHot writes the stamped corpus into a fresh log in dir, as the
// phones that uploaded it earlier would have left it, and returns the
// stamped bundles in the log's replay order (read back with a raw scan
// of the log, not through the store the tier replays with).
func prewriteHot(dir string, corpus []*trace.TraceBundle) ([]*trace.TraceBundle, error) {
	store, err := openStore(dir, nil)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var (
		mu    sync.Mutex
		byKey = make(map[string]*trace.TraceBundle, len(corpus))
		work  = make(chan *trace.TraceBundle)
		errs  = make(chan error, 1) // the first error
		wg    sync.WaitGroup
	)
	for w := 0; w < hotWriters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				s := stamp(b)
				mu.Lock()
				byKey[s.Key] = s
				mu.Unlock()
				if err := store.Append(s); err != nil {
					select {
					case errs <- err:
					default:
					}
				}
			}
		}()
	}
	for _, b := range corpus {
		work <- b
	}
	close(work)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, fmt.Errorf("hot-app: pre-write: %w", err)
	}
	var ordered []*trace.TraceBundle
	err = store.Log().Scan(func(typ byte, key string, _ []byte) error {
		if b, ok := byKey[key]; ok {
			ordered = append(ordered, b)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("hot-app: pre-write scan: %w", err)
	}
	if len(ordered) != len(corpus) {
		return nil, fmt.Errorf("hot-app: pre-write left %d of %d bundles in the log", len(ordered), len(corpus))
	}
	return ordered, nil
}

// getBody GETs u and returns the 200 body.
func getBody(client *http.Client, u string) ([]byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", u, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return body, nil
}
