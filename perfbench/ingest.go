package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/trace"
)

// fleetShards is the shard count behind the router; fleetClients the
// closed-loop uploaders (one per CPU of the machine it was built on).
const (
	fleetShards  = 2
	fleetClients = 2
)

// fleetTier is the collect tier of ingest-fleet: a router over
// fleetShards shards, each with its own SegStore.
type fleetTier struct {
	ss     *collect.ShardedServer
	stores []*tracedStore
}

func (t *fleetTier) close() error {
	err := t.ss.Close()
	for _, st := range t.stores {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// replayTime sums the shards' log replay time.
func (t *fleetTier) replayTime() time.Duration {
	var d time.Duration
	for _, st := range t.stores {
		d += st.replayTime
	}
	return d
}

// openFleetTier opens the shard logs, starts the router over them as
// collectd -shards 2 -store-format seg does (analysis off), and returns
// once the router accepts a connection.
func openFleetTier(dir string, tr *tracer) (*fleetTier, error) {
	t := &fleetTier{stores: make([]*tracedStore, fleetShards)}
	var openErr error
	ss, err := collect.NewShardedServer("127.0.0.1:0", fleetShards, func(i int) []collect.ServerOption {
		st, err := openStore(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), tr)
		if err != nil {
			openErr = err
			return nil
		}
		t.stores[i] = st
		return []collect.ServerOption{collect.WithStore(st)}
	})
	if err == nil {
		err = openErr
	}
	if err != nil {
		if ss != nil {
			ss.Close()
		}
		for _, st := range t.stores {
			if st != nil {
				st.Close()
			}
		}
		return nil, err
	}
	t.ss = ss
	conn, err := net.Dial("tcp", ss.Addr())
	if err != nil {
		t.close()
		return nil, fmt.Errorf("ingest: router not accepting: %w", err)
	}
	conn.Close()
	return t, nil
}

// prewriteFleet writes the earlier batch into the shard logs, as an
// earlier run of the tier would have left them.
func prewriteFleet(dir string, in *fleetInputs) (map[string]int, error) {
	perApp := make(map[string]int)
	stores := make([]*tracedStore, fleetShards)
	for i := range stores {
		st, err := openStore(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), nil)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		stores[i] = st
	}
	// One writer per shard, so the pre-write is not paced by one fsync
	// at a time across both logs.
	var wg sync.WaitGroup
	errs := make([]error, fleetShards)
	byShard := make([][]*trace.TraceBundle, fleetShards)
	for k := 0; k < fleetEarlier; k++ {
		b := stamp(in.item(k))
		perApp[b.Event.AppID]++
		s := collect.ShardOf(b.Event.AppID, fleetShards)
		byShard[s] = append(byShard[s], b)
	}
	for s := range stores {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, b := range byShard[s] {
				if err := stores[s].Append(b); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ingest: pre-write: %w", err)
		}
	}
	return perApp, nil
}

// fleetClient is one closed-loop uploader's record of its run.
type fleetClient struct {
	acks    []float64 // per-bundle send→ack, ms
	landed  []float64 // per-bundle Upload start→ack, ms
	uploads []float64 // per-Upload call latency, ms
	sent    int64
	acked   int64
	perApp  map[string]int
	stats   collect.ClientStats
	err     error
	end     time.Time
}

// runIngest is the ingest-fleet workload: two binary clients upload
// catalog sessions back to back through the router for the window.
func runIngest(rc runConfig) (*outcome, error) {
	o := newOutcome()
	in, err := genFleet(rc.seed)
	if err != nil {
		return nil, err
	}
	want, err := prewriteFleet(rc.dir, in)
	if err != nil {
		return nil, err
	}

	var setups, replays []float64
	var tier *fleetTier
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		tier, err = openFleetTier(rc.dir, rc.tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		replays = append(replays, tier.replayTime().Seconds())
		if r < setupReps-1 {
			if err := tier.close(); err != nil {
				return nil, err
			}
		}
	}
	defer tier.close()
	o.Setups = setups

	clients := make([]*fleetClient, fleetClients)
	start := time.Now()
	deadline := start.Add(rc.window)
	var wg sync.WaitGroup
	for c := range clients {
		clients[c] = &fleetClient{perApp: make(map[string]int)}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			uploadLoop(rc, in, tier.ss.Addr(), c, deadline, clients[c])
		}(c)
	}
	wg.Wait()
	end := start
	var acks, landed, uploads []float64
	var sent, acked, attempts int64
	for _, cl := range clients {
		if cl.end.After(end) {
			end = cl.end
		}
		acks = append(acks, cl.acks...)
		landed = append(landed, cl.landed...)
		uploads = append(uploads, cl.uploads...)
		sent += cl.sent
		acked += cl.acked
		attempts += cl.stats.Attempts
		for app, n := range cl.perApp {
			want[app] += n
		}
		o.check(cl.err)
	}
	o.HeapMB = liveHeapMB()
	o.Attempted = int(sent)
	wall := end.Sub(start).Seconds()
	o.measured(wall, float64(acked), float64(len(uploads)), acks, landed, uploads)
	o.note("visible_* is Upload start to ack: with analysis off a bundle is readable from the tier's corpus once acked")
	o.note("gates_* is one phone's whole Upload call (%d sessions): the caller-level completion of this workload", fleetBatch)

	// Output checks, outside the measured phase.
	srvStats := tier.ss.Stats()
	var appends, commits int64
	for _, st := range tier.stores {
		ls := st.Log().Stats()
		appends += ls.Appends
		commits += ls.Commits
	}
	perApp := make(map[string]int)
	for _, app := range tier.ss.Apps() {
		perApp[app] = len(tier.ss.Bundles(app))
	}
	o.check(checkFleet(fleetOutcome{Sent: sent, Acked: acked, Server: srvStats,
		Appends: appends, PerApp: perApp, WantPerApp: want})...)

	if rc.tr == nil {
		return o, nil
	}
	spans := rc.tr.records()
	adoptByRequest(spans, "collect.ack", "collect.store_append")
	o.spans = spans
	var sample []*trace.TraceBundle
	for a := range in.pool {
		sample = append(sample, stamp(in.pool[a][0]))
	}
	enc, dec, err := codecTimes(sample)
	if err != nil {
		return nil, err
	}
	L := o.Layer
	L["binenc.encode_us"], L["binenc.decode_us"] = enc, dec
	L["binenc.wire_bytes_per_bundle"] = ratio(float64(srvStats.BytesIngested), float64(srvStats.Accepted))
	L["collect.upload_ms"] = median(durationsOf(spans, "collect.upload", time.Millisecond))
	L["collect.store_append_us"] = median(durationsOf(spans, "collect.store_append", time.Microsecond))
	L["collect.server_self_us"] = median(selfOf(spans, "collect.ack", time.Microsecond))
	L["collect.attempts_per_upload"] = ratio(float64(attempts), float64(len(uploads)))
	L["collect.accepted"] = float64(srvStats.Accepted)
	L["collect.duplicated"] = float64(srvStats.Duplicated)
	L["collect.quarantined"] = float64(srvStats.Quarantined)
	L["seglog.fsyncs_per_bundle"] = ratio(float64(commits), float64(appends))
	L["seglog.replay_s"] = median(replays)
	o.zeroLayers("analysis is off on ingest-fleet", "serve.notify_p50_us", "serve.notify_tail_us", "serve.notify_mean_us",
		"serve.flushes", "serve.bundles_per_flush", "serve.report_ms", "serve.materialize_ms",
		"serve.read_ms", "serve.report_mb", "serve.debounce_wait_ms",
		"core.step1_hit_rate", "core.summary_mb", "core.first_report_s")
	o.zeroLayers("no version chains on ingest-fleet", "revision.analyze_ms", "revision.compare_ms",
		"revision.evaluate_us", "revision.churn_frac")
	o.zeroLayers("closed loop: no schedule to run late against", "harness.late_ms")
	o.note("collect.server_self_us is the self time of the client's per-bundle ack span once the store-append span sharing its content key is its child")
	return o, nil
}

// uploadLoop is one closed-loop client: it uploads fleetBatch-session
// batches back to back until the deadline passes.
func uploadLoop(rc runConfig, in *fleetInputs, addr string, c int, deadline time.Time, cl *fleetClient) {
	var (
		uploadStart time.Time
		upload      span
		keys        []string
		next        int
	)
	client := collect.NewClient(addr,
		collect.WithBinary(),
		collect.WithJitterSeed(subSeed(rc.seed, uint64(100+c))),
		collect.WithAckObserver(func(d time.Duration) {
			now := time.Now()
			cl.acks = append(cl.acks, ms(d))
			cl.landed = append(cl.landed, ms(now.Sub(uploadStart)))
			cl.acked++
			if rc.tr != nil && next < len(keys) {
				rc.tr.record("collect.ack", keys[next], upload.id, now.Add(-d), now)
				next++
			}
		}))
	state := collect.PhoneState{Charging: true, OnWiFi: true}
	batch := make([]*trace.TraceBundle, fleetBatch)
	for j := 0; time.Now().Before(deadline); j += fleetBatch {
		for i := range batch {
			batch[i] = clientItem(in, fleetClients, c, j+i)
			cl.perApp[batch[i].Event.AppID]++
		}
		if rc.tr != nil {
			keys, next = keys[:0], 0
			for _, b := range batch {
				keys = append(keys, stamp(b).Key)
			}
		}
		uploadStart = time.Now()
		upload = rc.tr.begin("collect.upload", fmt.Sprintf("client%d/upload%d", c, j/fleetBatch), 0)
		err := client.Upload(state, batch)
		upload.end()
		cl.uploads = append(cl.uploads, ms(time.Since(uploadStart)))
		cl.sent += int64(len(batch))
		if err != nil {
			cl.err = fmt.Errorf("ingest: client %d: %w", c, err)
			break
		}
	}
	cl.end = time.Now()
	cl.stats = client.Stats()
}
