// Package collect implements EnergyDx's trace-collection tier: phones
// upload their event and utilization traces to a backend server "when
// the smartphone is in charge with WiFi, which is a common practice to
// upload traces without impacting the normal usage of smartphone"
// (paper §II-B). An upload connection opens with the "EDX1 bin" hello
// and then carries length-prefixed, CRC-checked binenc bundle frames
// over TCP. Each bundle is acknowledged with a newline-terminated text
// ack that echoes its content key, so a client can resume after a
// dropped connection without duplicating data.
//
// The ingestion path assumes nothing about upload quality: every frame
// is strictly validated (decode, content-key integrity, structural
// trace invariants, size limits) and rejected uploads are kept in a
// quarantine — excluded from analysis but available for diagnosis —
// so one corrupt upload never poisons a corpus or takes down a
// connection handler.
//
// Privacy: the client scrubs bundles before they leave the phone, and
// the server scrubs again on receipt (defense in depth) — the backend
// never stores raw user identifiers.
package collect

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// Ingestion-path metrics on the process registry, aggregated across
// every Server in the process. Per-instance numbers (the ones the
// reconciliation invariant accepted+duplicated+quarantined == received
// is checked against) come from Server.Stats. The quarantine ring size
// and skipped-trace gauges make state that used to be visible only
// post-hoc in files observable live.
var (
	mSrvAccepted    = obs.Default.Counter("collect_bundles_accepted_total", "bundles validated and stored")
	mSrvDuplicated  = obs.Default.Counter("collect_bundles_duplicated_total", "re-uploads deduplicated by content key")
	mSrvQuarantined = obs.Default.Counter("collect_bundles_quarantined_total", "uploads rejected into quarantine")
	mSrvBytes       = obs.Default.Counter("collect_bytes_ingested_total", "wire bytes received on the ingest path")
	mSrvConns       = obs.Default.Counter("collect_connections_total", "client connections accepted")
	gSrvConnsOpen   = obs.Default.Gauge("collect_connections_open", "client connections currently open")
	hSrvIngest      = obs.Default.Histogram("collect_ingest_seconds", "per-frame validate+store latency", nil)
)

const (
	// ackOK acknowledges a validated-and-stored (or deduplicated) bundle.
	ackOK = "OK"
	// ackErr precedes a rejection; the line is "ERR <key> <reason>".
	ackErr = "ERR"
	// ackUnknownKey stands in for the key when an upload cannot be decoded.
	ackUnknownKey = "?"
)

// ackErrPrefix is the textual prefix of a rejection ack.
const ackErrPrefix = ackErr + " "

// helloBinary is the protocol hello a client sends (and a server
// echoes) before its first bundle frame. A connection that opens with
// anything else gets one "ERR ?" ack and is closed. Acks are
// newline-delimited text.
const helloBinary = "EDX1 bin"

// helloLine is the hello as it appears on the wire.
const helloLine = helloBinary + "\n"

// errNoHello is the quarantine reason for a connection that did not
// open with the hello.
var errNoHello = errors.New("connection did not open with the " + helloBinary + " hello")

// Limits bounds what one client may ingest. The zero value of any
// field means its default.
type Limits struct {
	// MaxLineBytes bounds one serialized bundle frame (default 16 MiB).
	MaxLineBytes int
	// MaxRecords bounds the event records in one bundle (default 1M).
	MaxRecords int
	// MaxSamples bounds the utilization samples in one bundle (default 1M).
	MaxSamples int
	// MaxBundlesPerConn bounds the bundles one connection may send
	// (default 10000); beyond it, the connection is closed.
	MaxBundlesPerConn int
	// MaxBadLinesPerConn bounds the rejected frames one connection may
	// produce before it is closed (default 100) — a client that only
	// sends garbage does not get to keep the handler busy forever.
	MaxBadLinesPerConn int
}

// DefaultLimits returns the production defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxLineBytes:       16 << 20,
		MaxRecords:         1 << 20,
		MaxSamples:         1 << 20,
		MaxBundlesPerConn:  10000,
		MaxBadLinesPerConn: 100,
	}
}

// withDefaults replaces zero fields with their defaults.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = d.MaxLineBytes
	}
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	if l.MaxSamples <= 0 {
		l.MaxSamples = d.MaxSamples
	}
	if l.MaxBundlesPerConn <= 0 {
		l.MaxBundlesPerConn = d.MaxBundlesPerConn
	}
	if l.MaxBadLinesPerConn <= 0 {
		l.MaxBadLinesPerConn = d.MaxBadLinesPerConn
	}
	return l
}

// maxQuarantineKept bounds the quarantine entries kept in memory; the
// durable store keeps all of them.
const maxQuarantineKept = 256

// QuarantineEntry is one rejected upload, kept for diagnosis and
// excluded from analysis.
type QuarantineEntry struct {
	// Key is the bundle's stamped content key when the frame decoded
	// far enough to read one, else empty.
	Key string `json:"key,omitempty"`
	// Reason is the rejection reason.
	Reason string `json:"reason"`
	// Line is the offending frame payload as received (for a
	// connection without the hello, its first bytes).
	Line []byte `json:"line"`
}

// ServerStats is a snapshot of one server's ingestion counters. Every
// message the server reads — a bundle frame, or the opening bytes of a
// connection without the hello — lands in exactly one of Accepted,
// Duplicated or Quarantined, so
//
//	Accepted + Duplicated + Quarantined == messages received
//
// holds at any quiescent point — the reconciliation invariant the
// fault-injection integration tests pin.
type ServerStats struct {
	// Accepted is the count of bundles validated and stored.
	Accepted int64
	// Duplicated is the count of re-uploads recognized by content key
	// and acknowledged without storing again.
	Duplicated int64
	// Quarantined is the count of rejected messages. Undecodable store
	// records skipped at reload are excluded (they were never received
	// on this server's wire); QuarantineCount includes them.
	Quarantined int64
	// BytesIngested is the wire bytes offered to ingestion.
	BytesIngested int64
	// ConnsTotal is the count of accepted client connections.
	ConnsTotal int64
	// ConnsOpen is the number of connections currently being handled.
	ConnsOpen int64
}

// Server receives and stores trace bundles.
type Server struct {
	ln       net.Listener
	store    Store // optional durable store
	limits   Limits
	injector *faults.Injector         // optional chaos injector on received frames
	tracer   *obs.Tracer              // optional span sink for the ingest path
	hook     func(*trace.TraceBundle) // optional accepted-bundle hook

	// Lock-free ingestion counters (see ServerStats).
	accepted, duplicated, quarantined atomic.Int64
	bytesIngested                     atomic.Int64
	connsTotal, connsOpen             atomic.Int64

	mu         sync.Mutex
	byApp      map[string][]*trace.TraceBundle
	dupes      map[string]struct{}  // upload-key dedup across reconnects
	inflight   map[string]*inflight // keys being persisted right now
	quarantine []QuarantineEntry    // most recent maxQuarantineKept rejects
	quarCount  int                  // total rejects, including rotated-out ones
	closed     bool
	handler    sync.WaitGroup
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

// ServerOption configures a server.
type ServerOption func(*Server)

// WithStore persists accepted bundles to a durable store (normally a
// SegStore) and, at startup, reloads (and deduplicates against)
// everything the store already holds — so a restarted server continues
// where it stopped.
func WithStore(store Store) ServerOption {
	return func(s *Server) { s.store = store }
}

// WithLimits overrides the ingestion limits; zero fields keep their
// defaults.
func WithLimits(l Limits) ServerOption {
	return func(s *Server) { s.limits = l }
}

// WithServerFaults injects faults into received frames before ingestion
// (chaos testing via collectd's -faults flag): frames may be corrupted,
// truncated or duplicated, connections dropped, and ingestion delayed.
func WithServerFaults(in *faults.Injector) ServerOption {
	return func(s *Server) { s.injector = in }
}

// WithIngestHook calls fn for every bundle accepted into the corpus —
// after validation, scrubbing, dedup and durable persistence, so fn
// only ever sees bundles that analysis would. Re-uploads recognized by
// content key do not fire it. fn runs on the connection handler
// goroutine outside the server's state lock; it must be
// concurrency-safe and should return quickly (hand heavy work, like
// triggering re-analysis, to a debounced consumer such as
// serve.Service). The bundle is the stored instance: treat it as
// read-only.
func WithIngestHook(fn func(*trace.TraceBundle)) ServerOption {
	return func(s *Server) { s.hook = fn }
}

// WithServerTracer records one span per ingested frame ("server.ingest",
// with "server.quarantine" children for rejects) on tr, exportable as a
// JSONL trace. Production servers may leave it nil; the ingest-latency
// histogram on the metrics registry is always populated.
func WithServerTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = tr }
}

// NewServer starts a collection server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	s := &Server{
		ln:       ln,
		limits:   DefaultLimits(),
		byApp:    make(map[string][]*trace.TraceBundle),
		dupes:    make(map[string]struct{}),
		inflight: make(map[string]*inflight),
	}
	for _, o := range opts {
		o(s)
	}
	s.limits = s.limits.withDefaults()
	if s.store != nil {
		persisted, skipped, err := s.store.Load()
		if err != nil {
			ln.Close()
			return nil, err
		}
		for appID, bundles := range persisted {
			for _, b := range bundles {
				s.byApp[appID] = append(s.byApp[appID], b)
				s.dupes[dedupKey(b)] = struct{}{}
			}
		}
		// Undecodable records were never usable; record them for
		// diagnosis.
		s.quarCount += skipped
	}
	// Live quarantine visibility: these gauges read the newest server's
	// state at scrape time. A ShardedServer re-registers them as sums
	// over its shards once they are built.
	registerQuarantineGauges(s.quarantineKept, s.QuarantineCount)
	s.handler.Add(1)
	go s.acceptLoop()
	return s, nil
}

// dedupKey identifies a bundle across re-uploads and restarts: the
// stamped content key when present, else the app/user/trace triple
// (legacy uploaders without integrity keys).
func dedupKey(b *trace.TraceBundle) string {
	if b.Key != "" {
		return b.Key
	}
	return b.Event.AppID + "/" + b.Event.UserID + "/" + b.Event.TraceID
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and waits for in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.handler.Wait()
	return err
}

// acceptLoop owns the listener; one goroutine per connection, all joined
// through the WaitGroup so Close is clean.
func (s *Server) acceptLoop() {
	defer s.handler.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.handler.Add(1)
		go func() {
			defer s.handler.Done()
			s.handleConn(conn)
		}()
	}
}

// Stats returns a snapshot of the server's ingestion counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Accepted:      s.accepted.Load(),
		Duplicated:    s.duplicated.Load(),
		Quarantined:   s.quarantined.Load(),
		BytesIngested: s.bytesIngested.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsOpen:     s.connsOpen.Load(),
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	s.connsTotal.Add(1)
	mSrvConns.Inc()
	s.connsOpen.Add(1)
	gSrvConnsOpen.Inc()
	defer func() {
		s.connsOpen.Add(-1)
		gSrvConnsOpen.Dec()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriter(conn)
	// Peeking at most the hello's length never stalls a live upload: a
	// client writes the whole hello before waiting for its echo.
	peek, _ := br.Peek(len(helloLine))
	s.bytesIngested.Add(int64(len(peek)))
	mSrvBytes.Add(int64(len(peek)))
	if string(peek) != helloLine {
		if len(peek) > 0 { // a connection that sent nothing has nothing to reject
			s.quarantineLine(peek, "", errNoHello, nil)
			fmt.Fprintf(w, "%s %s %v\n", ackErr, ackUnknownKey, errNoHello)
			w.Flush()
		}
		return
	}
	br.Discard(len(helloLine))
	if _, err := w.WriteString(helloLine); err != nil {
		return
	}
	if err := w.Flush(); err != nil {
		return
	}
	s.handleFrames(br, w)
}

// handleFrames is the frame loop of a connection past its hello:
// length-prefixed CRC-checked binenc frames in, text acks out.
func (s *Server) handleFrames(br *bufio.Reader, w *bufio.Writer) {
	bundles, bad := 0, 0
	for {
		payload, err := binenc.ReadFrame(br, s.limits.MaxLineBytes)
		if err != nil {
			if err == io.EOF {
				return // clean end of upload
			}
			// A torn, corrupt or over-long frame cannot be resynced past
			// (the next length prefix is untrustworthy), so this closes
			// the connection; the client retries.
			s.quarantineLine(nil, "", fmt.Errorf("binary framing: %v", err), nil)
			fmt.Fprintf(w, "%s %s binary framing: %v\n", ackErr, ackUnknownKey, err)
			w.Flush()
			return
		}
		bundles++
		if bundles > s.limits.MaxBundlesPerConn {
			fmt.Fprintf(w, "%s %s connection bundle limit (%d) exceeded\n",
				ackErr, ackUnknownKey, s.limits.MaxBundlesPerConn)
			w.Flush()
			return
		}
		payloads := [][]byte{payload}
		if s.injector != nil {
			if d := s.injector.Delay(); d > 0 {
				time.Sleep(d)
			}
			var drop bool
			payloads, drop = s.injector.Apply(payload)
			if drop {
				return // injected connection cut; the client retries
			}
		}
		for _, p := range payloads {
			s.bytesIngested.Add(int64(len(p)) + binenc.FrameOverhead)
			mSrvBytes.Add(int64(len(p)) + binenc.FrameOverhead)
			var sp *obs.Span
			if s.tracer != nil {
				sp = s.tracer.Start("server.ingest")
			}
			start := time.Now()
			key, stored, dup, err := s.ingest(p)
			hSrvIngest.Observe(time.Since(start).Seconds())
			if !s.ackIngest(w, p, key, stored, dup, err, sp, &bad) {
				return
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func keyOrUnknown(key string) string {
	if key == "" {
		return ackUnknownKey
	}
	return key
}

// ackIngest translates one ingest verdict into counters, quarantine and
// a (buffered, not yet flushed) ack line. It returns false when the
// connection has exhausted its bad-frame budget and must close.
func (s *Server) ackIngest(w *bufio.Writer, raw []byte, key string, stored *trace.TraceBundle, dup bool, err error, sp *obs.Span, bad *int) bool {
	defer func() {
		if sp != nil {
			sp.End()
		}
	}()
	if err != nil {
		*bad++
		s.quarantineLine(raw, key, err, sp)
		fmt.Fprintf(w, "%s %s %v\n", ackErr, keyOrUnknown(key), err)
		if *bad > s.limits.MaxBadLinesPerConn {
			w.Flush()
			return false
		}
		return true
	}
	if dup {
		s.duplicated.Add(1)
		mSrvDuplicated.Inc()
	} else {
		s.accepted.Add(1)
		mSrvAccepted.Inc()
		if s.hook != nil {
			s.hook(stored)
		}
	}
	fmt.Fprintf(w, "%s %s\n", ackOK, keyOrUnknown(key))
	return true
}

// ingest validates, scrubs and stores one bundle frame payload,
// returning the bundle's stamped key when one could be decoded, the
// stored (scrubbed) bundle on acceptance, and whether the bundle was a
// content-key duplicate of an already stored one.
func (s *Server) ingest(payload []byte) (key string, stored *trace.TraceBundle, dup bool, err error) {
	b, err := binenc.DecodeBundle(payload)
	if err != nil {
		return "", nil, false, fmt.Errorf("decode: %v", err)
	}
	// The binary codec is a pure serialization layer and will carry
	// NaN/Inf utilization bit patterns (JSON structurally cannot), but
	// the content-key hash goes through JSON — reject non-finite floats
	// here so a hostile frame cannot reach it.
	for i := range b.Util.Samples {
		for _, v := range b.Util.Samples[i].Util {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b.Key, nil, false, errors.New("utilization not finite")
			}
		}
	}
	return s.ingestBundle(b)
}

// ingestBundle validates, scrubs and stores one decoded bundle. The
// store append runs OUTSIDE the state lock: with a group-committing
// store many handler goroutines must be inside Append at once for
// batching to exist at all. Exactly-once across that window is kept by
// the inflight map — the first uploader of a key becomes its persist
// leader, concurrent uploads of the same key wait for the leader's
// verdict, and the ack is only ever sent after durability.
func (s *Server) ingestBundle(b *trace.TraceBundle) (key string, stored *trace.TraceBundle, dup bool, err error) {
	key = b.Key
	// Integrity before anything else: a bundle altered in flight must
	// not reach the store even if it still decodes.
	if err := trace.VerifyContentKey(b); err != nil {
		return key, nil, false, fmt.Errorf("integrity: %v", err)
	}
	if b.Event.AppID == "" {
		return key, nil, false, errors.New("bundle has no app id")
	}
	if n := len(b.Event.Records); n > s.limits.MaxRecords {
		return key, nil, false, fmt.Errorf("event trace has %d records, limit %d", n, s.limits.MaxRecords)
	}
	if n := len(b.Util.Samples); n > s.limits.MaxSamples {
		return key, nil, false, fmt.Errorf("utilization trace has %d samples, limit %d", n, s.limits.MaxSamples)
	}
	if err := b.Event.Validate(); err != nil {
		return key, nil, false, fmt.Errorf("event trace: %v", err)
	}
	if err := b.Util.Validate(); err != nil {
		return key, nil, false, fmt.Errorf("utilization trace: %v", err)
	}
	scrubbed := trace.ScrubBundle(b)
	dk := dedupKey(scrubbed)

	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return key, nil, false, errors.New("server shutting down")
		}
		if _, seen := s.dupes[dk]; seen {
			s.mu.Unlock()
			return key, nil, true, nil // idempotent: re-uploads after a lost ack are fine
		}
		leader, busy := s.inflight[dk]
		if !busy {
			break
		}
		// Another connection is persisting this exact key right now.
		// Wait for its verdict: if it succeeds we are a duplicate; if
		// it fails we take over as the new leader.
		s.mu.Unlock()
		<-leader.done
		s.mu.Lock()
	}
	fl := &inflight{done: make(chan struct{})}
	s.inflight[dk] = fl
	s.mu.Unlock()

	// Persist before acknowledging: an acked bundle survives a crash; a
	// failed write is reported so the phone retries. Off-lock, so
	// concurrent handlers share the store's group commit.
	var aerr error
	if s.store != nil {
		aerr = s.store.Append(scrubbed)
	}

	s.mu.Lock()
	delete(s.inflight, dk)
	if aerr == nil {
		s.dupes[dk] = struct{}{}
		s.byApp[scrubbed.Event.AppID] = append(s.byApp[scrubbed.Event.AppID], scrubbed)
	}
	close(fl.done)
	s.mu.Unlock()
	if aerr != nil {
		return key, nil, false, aerr
	}
	return key, scrubbed, false, nil
}

// quarantineLine records a rejected upload: bounded in memory,
// complete in the durable store when one is attached. parent, when
// non-nil, is the ingest span the rejection belongs under.
func (s *Server) quarantineLine(line []byte, key string, cause error, parent *obs.Span) {
	s.quarantined.Add(1)
	mSrvQuarantined.Inc()
	if parent != nil {
		defer parent.Child("server.quarantine").End()
	}
	entry := QuarantineEntry{
		Key:    key,
		Reason: cause.Error(),
		Line:   append([]byte(nil), line...),
	}
	s.mu.Lock()
	s.quarCount++
	s.quarantine = append(s.quarantine, entry)
	if len(s.quarantine) > maxQuarantineKept {
		s.quarantine = s.quarantine[len(s.quarantine)-maxQuarantineKept:]
	}
	store := s.store
	s.mu.Unlock()
	if store != nil {
		// Best-effort: quarantine persistence failing must not take the
		// handler down with it.
		_ = store.AppendQuarantine(entry)
	}
}

// Quarantine returns the most recent quarantined uploads (a copy).
func (s *Server) Quarantine() []QuarantineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QuarantineEntry, len(s.quarantine))
	copy(out, s.quarantine)
	return out
}

// QuarantineCount returns how many uploads have been rejected in total.
func (s *Server) QuarantineCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarCount
}

// quarantineKept returns how many rejects the in-memory ring holds.
func (s *Server) quarantineKept() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantine)
}

// registerQuarantineGauges points the process-wide quarantine gauges at
// kept and count, replacing whatever they read before.
func registerQuarantineGauges(kept, count func() int) {
	obs.Default.GaugeFunc("collect_quarantine_kept",
		"quarantined uploads currently held in the in-memory ring",
		func() float64 { return float64(kept()) })
	obs.Default.GaugeFunc("collect_quarantine_count",
		"total uploads rejected into quarantine, including rotated-out and reload-skipped ones",
		func() float64 { return float64(count()) })
}

// Bundles returns the stored bundles for one app (a copy of the slice).
func (s *Server) Bundles(appID string) []*trace.TraceBundle {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.byApp[appID]
	out := make([]*trace.TraceBundle, len(src))
	copy(out, src)
	return out
}

// Count returns the total number of stored bundles.
func (s *Server) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, bs := range s.byApp {
		n += len(bs)
	}
	return n
}

// Apps returns the app IDs with stored traces.
func (s *Server) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	apps := make([]string, 0, len(s.byApp))
	for id := range s.byApp {
		apps = append(apps, id)
	}
	return apps
}
