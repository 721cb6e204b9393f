package collect

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// ShardOf maps an app ID onto one of n shards (FNV-1a 32). It is the
// single partitioning function of the sharded deployment: the
// connection loop's dispatch and the per-shard stores agree on it, so
// an app's whole corpus and dedup state live on exactly one shard.
// Analysis is not partitioned: every shard feeds the one serving
// layer, which is keyed by app.
func ShardOf(appID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % uint32(n))
}

// ShardedServer is the server type NewShardedServer returns.
//
// Deprecated: a sharded server is a Server; use Server.
type ShardedServer = Server

// NewShardedServer starts one server on addr whose ingest state is
// split into n shards by ShardOf. shardOpts, when non-nil, supplies
// each shard's options (store, ingest hook, limits, faults) by shard
// index; the connection-level settings come from shard 0's.
//
// Each shard owns its apps' store, dedup state and quarantine, so
// exactly-once holds per shard exactly as it does for one server: the
// bundle's content key travels with the bytes, and a retry lands on the
// same shard's dedup map and durable store.
func NewShardedServer(addr string, n int, shardOpts func(shard int) []ServerOption) (*Server, error) {
	if n < 1 {
		return nil, fmt.Errorf("collect: shard count %d < 1", n)
	}
	return newServer(addr, n, shardOpts)
}

// shard is one partition of a Server's ingest state: the apps whose IDs
// hash to it, with their store, dedup state, quarantine, counters,
// ingest hook and per-bundle limits.
type shard struct {
	store    Store // optional durable store
	limits   Limits
	injector *faults.Injector         // optional chaos injector (shard 0's is used)
	hook     func(*trace.TraceBundle) // optional accepted-bundle hook

	// Lock-free message counters (see ServerStats).
	accepted, duplicated, quarantined atomic.Int64

	mu         sync.Mutex
	byApp      map[string][]*trace.TraceBundle
	dupes      map[string]struct{}  // upload-key dedup across reconnects
	inflight   map[string]*inflight // keys being persisted right now
	quarantine []QuarantineEntry    // most recent maxQuarantineKept rejects
	quarCount  int                  // total rejects, including rotated-out ones
	closed     bool
}

// inflight tracks one dedup key whose store append is in progress on
// some handler goroutine. Concurrent uploads of the same key wait for
// the leader's verdict instead of double-appending — the dedup check
// alone cannot cover the window because the append happens outside the
// state lock (it must: group commit wants many handlers inside
// store.Append at once).
type inflight struct {
	done chan struct{}
}

// newShard applies opts and reloads the shard's store, if any.
func newShard(opts []ServerOption) (*shard, error) {
	sh := &shard{
		limits:   DefaultLimits(),
		byApp:    make(map[string][]*trace.TraceBundle),
		dupes:    make(map[string]struct{}),
		inflight: make(map[string]*inflight),
	}
	for _, o := range opts {
		o(sh)
	}
	sh.limits = sh.limits.withDefaults()
	if sh.store != nil {
		persisted, skipped, err := sh.store.Load()
		if err != nil {
			return nil, err
		}
		for appID, bundles := range persisted {
			for _, b := range bundles {
				sh.byApp[appID] = append(sh.byApp[appID], b)
				sh.dupes[b.Key] = struct{}{}
			}
		}
		// Undecodable records were never usable; record them for
		// diagnosis.
		sh.quarCount += skipped
	}
	return sh, nil
}

// close makes every later ingest refuse with "server shutting down".
func (sh *shard) close() {
	sh.mu.Lock()
	sh.closed = true
	sh.mu.Unlock()
}

func keyOrUnknown(key string) string {
	if key == "" {
		return ackUnknownKey
	}
	return key
}

// ack translates one ingest verdict into counters, quarantine and a
// (buffered, not yet flushed) ack line. It reports whether the frame
// was taken (accepted or duplicated) rather than rejected.
func (sh *shard) ack(w *bufio.Writer, raw []byte, key string, stored *trace.TraceBundle, dup bool, err error) bool {
	if err != nil {
		sh.quarantineLine(raw, key, err)
		fmt.Fprintf(w, "%s %s %v\n", ackErr, keyOrUnknown(key), err)
		return false
	}
	if dup {
		sh.duplicated.Add(1)
		mSrvDuplicated.Inc()
	} else {
		sh.accepted.Add(1)
		mSrvAccepted.Inc()
		if sh.hook != nil {
			sh.hook(stored)
		}
	}
	fmt.Fprintf(w, "%s %s\n", ackOK, keyOrUnknown(key))
	return true
}

// ingest validates, scrubs and stores one bundle frame payload,
// returning the bundle's stamped key when one could be decoded, the
// stored (scrubbed) bundle on acceptance, and whether the bundle was a
// content-key duplicate of an already stored one.
func (sh *shard) ingest(payload []byte) (key string, stored *trace.TraceBundle, dup bool, err error) {
	b, err := binenc.DecodeBundle(payload)
	if err != nil {
		return "", nil, false, fmt.Errorf("decode: %v", err)
	}
	// The binary codec is a pure serialization layer and will carry
	// NaN/Inf utilization bit patterns (JSON structurally cannot), but
	// the content key hashes canonical JSON, which has no form for them
	// — reject non-finite floats here so a hostile frame cannot reach it.
	for i := range b.Util.Samples {
		for _, v := range b.Util.Samples[i].Util {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b.Key, nil, false, errors.New("utilization not finite")
			}
		}
	}
	return sh.ingestBundle(b)
}

// ingestBundle validates, scrubs and stores one decoded bundle. The
// store append runs OUTSIDE the state lock: with a group-committing
// store many handler goroutines must be inside Append at once for
// batching to exist at all. Exactly-once across that window is kept by
// the inflight map — the first uploader of a key becomes its persist
// leader, concurrent uploads of the same key wait for the leader's
// verdict, and the ack is only ever sent after durability.
func (sh *shard) ingestBundle(b *trace.TraceBundle) (key string, stored *trace.TraceBundle, dup bool, err error) {
	key = b.Key
	// Integrity before anything else: a bundle altered in flight must
	// not reach the store even if it still decodes, and an unkeyed one
	// has no identity to dedupe or store it by.
	if err := trace.VerifyContentKey(b); err != nil {
		return key, nil, false, fmt.Errorf("integrity: %v", err)
	}
	if b.Event.AppID == "" {
		return key, nil, false, errors.New("bundle has no app id")
	}
	if n := len(b.Event.Records); n > sh.limits.MaxRecords {
		return key, nil, false, fmt.Errorf("event trace has %d records, limit %d", n, sh.limits.MaxRecords)
	}
	if n := len(b.Util.Samples); n > sh.limits.MaxSamples {
		return key, nil, false, fmt.Errorf("utilization trace has %d samples, limit %d", n, sh.limits.MaxSamples)
	}
	if err := b.Event.Validate(); err != nil {
		return key, nil, false, fmt.Errorf("event trace: %v", err)
	}
	if err := b.Util.Validate(); err != nil {
		return key, nil, false, fmt.Errorf("utilization trace: %v", err)
	}
	scrubbed := trace.ScrubBundle(b)

	sh.mu.Lock()
	for {
		if sh.closed {
			sh.mu.Unlock()
			return key, nil, false, errors.New("server shutting down")
		}
		if _, seen := sh.dupes[key]; seen {
			sh.mu.Unlock()
			return key, nil, true, nil // idempotent: re-uploads after a lost ack are fine
		}
		leader, busy := sh.inflight[key]
		if !busy {
			break
		}
		// Another connection is persisting this exact key right now.
		// Wait for its verdict: if it succeeds we are a duplicate; if
		// it fails we take over as the new leader.
		sh.mu.Unlock()
		<-leader.done
		sh.mu.Lock()
	}
	fl := &inflight{done: make(chan struct{})}
	sh.inflight[key] = fl
	sh.mu.Unlock()

	// Persist before acknowledging: an acked bundle survives a crash; a
	// failed write is reported so the phone retries. Off-lock, so
	// concurrent handlers share the store's group commit.
	var aerr error
	if sh.store != nil {
		aerr = sh.store.Append(scrubbed)
	}

	sh.mu.Lock()
	delete(sh.inflight, key)
	if aerr == nil {
		sh.dupes[key] = struct{}{}
		sh.byApp[scrubbed.Event.AppID] = append(sh.byApp[scrubbed.Event.AppID], scrubbed)
	}
	close(fl.done)
	sh.mu.Unlock()
	if aerr != nil {
		return key, nil, false, aerr
	}
	return key, scrubbed, false, nil
}

// quarantineLine records a rejected upload: bounded in memory,
// complete in the durable store when one is attached.
func (sh *shard) quarantineLine(line []byte, key string, cause error) {
	sh.quarantined.Add(1)
	mSrvQuarantined.Inc()
	entry := QuarantineEntry{
		Key:    key,
		Reason: cause.Error(),
		Line:   append([]byte(nil), line...),
	}
	sh.mu.Lock()
	sh.quarCount++
	sh.quarantine = append(sh.quarantine, entry)
	if len(sh.quarantine) > maxQuarantineKept {
		sh.quarantine = sh.quarantine[len(sh.quarantine)-maxQuarantineKept:]
	}
	sh.mu.Unlock()
	if sh.store != nil {
		// Best-effort: quarantine persistence failing must not take the
		// handler down with it.
		_ = sh.store.AppendQuarantine(entry)
	}
}

// quarantineCount returns how many uploads this shard has rejected in
// total.
func (sh *shard) quarantineCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.quarCount
}

// bundles returns the stored bundles for one app (a copy of the slice).
func (sh *shard) bundles(appID string) []*trace.TraceBundle {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	src := sh.byApp[appID]
	out := make([]*trace.TraceBundle, len(src))
	copy(out, src)
	return out
}
