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
// A Server may split its ingest state into shards by app ID
// (NewShardedServer). It still has one listener and one connection
// loop, which hands each frame to the owning shard in-process.
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
	"net"
	"sort"
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
// fault-injection integration tests pin. A connection that ends or is
// reset mid-frame delivered no message and is not counted.
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

// Server receives trace bundles and stores each in the shard that owns
// its app. It has one listener and one connection loop whatever the
// shard count: the loop checks the hello, reads frames, enforces the
// per-connection limits, applies the fault injector and writes the
// acks, handing each frame to its shard in-process. Connection-level
// settings (MaxLineBytes, MaxBundlesPerConn, MaxBadLinesPerConn and
// the fault injector) come from shard 0's options.
type Server struct {
	ln       net.Listener
	shards   []*shard
	limits   Limits           // shard 0's, for the connection loop
	injector *faults.Injector // shard 0's, on received frames

	// Lock-free connection counters (see ServerStats); the message
	// counters live on the shards.
	bytesIngested         atomic.Int64
	connsTotal, connsOpen atomic.Int64

	mu      sync.Mutex
	closed  bool
	handler sync.WaitGroup
}

// ServerOption configures a server, or one shard of a sharded server.
type ServerOption func(*shard)

// WithStore persists accepted bundles to a durable store (normally a
// SegStore) and, at startup, reloads (and deduplicates against)
// everything the store already holds — so a restarted server continues
// where it stopped.
func WithStore(store Store) ServerOption {
	return func(sh *shard) { sh.store = store }
}

// WithLimits overrides the ingestion limits; zero fields keep their
// defaults.
func WithLimits(l Limits) ServerOption {
	return func(sh *shard) { sh.limits = l }
}

// WithServerFaults injects faults into received frames before ingestion
// (chaos testing via collectd's -faults flag): frames may be corrupted,
// truncated or duplicated, connections dropped, and ingestion delayed.
func WithServerFaults(in *faults.Injector) ServerOption {
	return func(sh *shard) { sh.injector = in }
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
	return func(sh *shard) { sh.hook = fn }
}

// NewServer starts a collection server on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	return newServer(addr, 1, func(int) []ServerOption { return opts })
}

// newServer loads n shards, then listens on addr.
func newServer(addr string, n int, shardOpts func(shard int) []ServerOption) (*Server, error) {
	s := &Server{shards: make([]*shard, n)}
	for i := range s.shards {
		var opts []ServerOption
		if shardOpts != nil {
			opts = shardOpts(i)
		}
		sh, err := newShard(opts)
		if err != nil {
			if n > 1 {
				err = fmt.Errorf("collect: shard %d: %w", i, err)
			}
			return nil, err
		}
		s.shards[i] = sh
	}
	s.limits = s.shards[0].limits
	s.injector = s.shards[0].injector
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	s.ln = ln
	// Live quarantine visibility: these gauges read the newest server's
	// shards at scrape time.
	obs.Default.GaugeFunc("collect_quarantine_kept",
		"quarantined uploads currently held in the in-memory ring",
		func() float64 { return float64(s.quarantineKept()) })
	obs.Default.GaugeFunc("collect_quarantine_count",
		"total uploads rejected into quarantine, including rotated-out and reload-skipped ones",
		func() float64 { return float64(s.QuarantineCount()) })
	s.handler.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and waits for in-flight handlers;
// frames still arriving are refused as the server shuts down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	for _, sh := range s.shards {
		sh.close()
	}
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

// Stats returns a snapshot of the server's ingestion counters, summed
// over its shards.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		BytesIngested: s.bytesIngested.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsOpen:     s.connsOpen.Load(),
	}
	for _, sh := range s.shards {
		st.Accepted += sh.accepted.Load()
		st.Duplicated += sh.duplicated.Load()
		st.Quarantined += sh.quarantined.Load()
	}
	return st
}

func (s *Server) addBytes(n int) {
	s.bytesIngested.Add(int64(n))
	mSrvBytes.Add(int64(n))
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
	s.addBytes(len(peek))
	if string(peek) != helloLine {
		if len(peek) > 0 { // a connection that sent nothing has nothing to reject
			s.shards[0].quarantineLine(peek, "", errNoHello)
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

// shardFor picks the shard owning a frame's app. With one shard there
// is nothing to choose and no header is parsed; a frame whose header
// cannot be read goes to shard 0, whose decoder quarantines it.
func (s *Server) shardFor(payload []byte) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	hdr, err := binenc.FrameHeader(payload)
	if err != nil {
		return s.shards[0]
	}
	return s.shards[ShardOf(hdr.AppID, len(s.shards))]
}

// handleFrames is the frame loop of a connection past its hello:
// length-prefixed CRC-checked binenc frames in, text acks out.
func (s *Server) handleFrames(br *bufio.Reader, w *bufio.Writer) {
	bundles, bad := 0, 0
	for {
		payload, err := binenc.ReadFrame(br, s.limits.MaxLineBytes, nil)
		if err != nil {
			if !errors.Is(err, binenc.ErrFrameTooLarge) && !errors.Is(err, binenc.ErrCRCMismatch) {
				// EOF, a frame cut short by the connection ending, or a
				// reset: the client stopped sending, so there is no
				// message to count and no one to ack.
				return
			}
			// An over-long or corrupt frame cannot be resynced past (the
			// next length prefix is untrustworthy), so this closes the
			// connection; the client retries.
			s.shards[0].quarantineLine(nil, "", fmt.Errorf("binary framing: %v", err))
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
		sh := s.shardFor(payload)
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
			s.addBytes(len(p) + binenc.FrameOverhead)
			start := time.Now()
			key, stored, dup, err := sh.ingest(p)
			hSrvIngest.Observe(time.Since(start).Seconds())
			if !sh.ack(w, p, key, stored, dup, err) {
				bad++
				if bad > s.limits.MaxBadLinesPerConn {
					w.Flush()
					return
				}
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Quarantine returns the most recent quarantined uploads (a copy),
// shard by shard.
func (s *Server) Quarantine() []QuarantineEntry {
	var out []QuarantineEntry
	for _, sh := range s.shards {
		sh.mu.Lock()
		out = append(out, sh.quarantine...)
		sh.mu.Unlock()
	}
	return out
}

// QuarantineCount returns how many uploads have been rejected in total.
func (s *Server) QuarantineCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.quarantineCount()
	}
	return n
}

// quarantineKept returns how many rejects the shards' in-memory rings
// hold.
func (s *Server) quarantineKept() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.quarantine)
		sh.mu.Unlock()
	}
	return n
}

// Bundles returns the stored bundles for one app (a copy of the slice),
// read from the shard that owns it.
func (s *Server) Bundles(appID string) []*trace.TraceBundle {
	return s.shards[ShardOf(appID, len(s.shards))].bundles(appID)
}

// Count returns the total number of stored bundles.
func (s *Server) Count() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, bs := range sh.byApp {
			n += len(bs)
		}
		sh.mu.Unlock()
	}
	return n
}

// Apps returns the app IDs with stored traces, sorted.
func (s *Server) Apps() []string {
	var apps []string
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id := range sh.byApp {
			apps = append(apps, id)
		}
		sh.mu.Unlock()
	}
	sort.Strings(apps)
	return apps
}
