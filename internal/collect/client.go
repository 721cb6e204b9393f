package collect

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// Upload-path metrics on the process registry, aggregated across every
// client in the process; per-instance numbers come from Client.Stats.
var (
	mCliAttempts = obs.Default.Counter("collect_client_attempts_total", "connection attempts (first tries and retries)")
	mCliRetries  = obs.Default.Counter("collect_client_retries_total", "connection attempts beyond each upload's first")
	mCliSent     = obs.Default.Counter("collect_client_lines_sent_total", "bundle frames written, including injected duplicates and resends")
	mCliAcked    = obs.Default.Counter("collect_client_bundles_acked_total", "bundles acknowledged OK by the server")
	mCliRejected = obs.Default.Counter("collect_client_bundles_rejected_total", "bundles rejected by the server with retries exhausted")
	hCliBackoff  = obs.Default.Histogram("collect_client_backoff_seconds", "sleep before each retry attempt", nil)
)

// PhoneState is the device condition the upload policy checks.
type PhoneState struct {
	// Charging reports whether the phone is on external power.
	Charging bool
	// OnWiFi reports whether the phone has an unmetered connection.
	OnWiFi bool
}

// Eligible implements the paper's upload policy: only while charging on
// WiFi, so collection never impacts normal phone usage.
func (s PhoneState) Eligible() bool { return s.Charging && s.OnWiFi }

// ErrNotEligible is returned when the phone state forbids uploading.
var ErrNotEligible = errors.New("collect: phone not charging on WiFi; upload deferred")

// RejectedError is returned when the server refuses a bundle and
// retries are exhausted.
type RejectedError struct {
	Index  int
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("collect: bundle %d rejected: %s", e.Index, e.Reason)
}

// Client uploads trace bundles from a phone to the collection server.
// Transient failures (dial errors, timeouts, dropped connections,
// in-flight corruption rejected by the server) are retried with
// exponential backoff and jitter; every bundle is stamped with its
// content key before the first attempt, so retries are idempotent and
// the server stores each bundle exactly once no matter how many times
// parts of an upload are re-sent.
type Client struct {
	addr        string
	timeout     time.Duration
	maxAttempts int
	backoffBase time.Duration
	backoffMax  time.Duration
	dial        func(addr string, timeout time.Duration) (net.Conn, error)
	sleep       func(time.Duration)
	injector    *faults.Injector
	ackObs      func(time.Duration) // optional per-bundle ack latency sink

	// Lock-free upload counters (see ClientStats).
	attempts, linesSent, acked, rejected atomic.Int64
	backoffNanos                         atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand // backoff jitter
}

// ClientStats is a snapshot of one client's upload counters.
type ClientStats struct {
	// Attempts is the count of connection attempts across all uploads.
	Attempts int64
	// LinesSent is the count of bundle frames written, including
	// injected duplicates and retried resends.
	LinesSent int64
	// Acked is the count of bundles acknowledged OK.
	Acked int64
	// Rejected is the count of bundles rejected with retries exhausted.
	Rejected int64
	// Backoff is the total time slept between retry attempts.
	Backoff time.Duration
}

// Stats returns a snapshot of the client's upload counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Attempts:  c.attempts.Load(),
		LinesSent: c.linesSent.Load(),
		Acked:     c.acked.Load(),
		Rejected:  c.rejected.Load(),
		Backoff:   time.Duration(c.backoffNanos.Load()),
	}
}

// ClientOption configures a client.
type ClientOption func(*Client)

// WithTimeout sets the per-request timeout: it bounds the dial and each
// bundle's send+ack round trip individually, so one slow bundle cannot
// consume the whole upload's budget.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRetry sets the retry policy: at most maxAttempts connection
// attempts per upload, sleeping base<<attempt (capped at max, with up
// to 50% random jitter) between consecutive attempts.
func WithRetry(maxAttempts int, base, max time.Duration) ClientOption {
	return func(c *Client) {
		if maxAttempts > 0 {
			c.maxAttempts = maxAttempts
		}
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// WithJitterSeed seeds the backoff jitter, making retry schedules
// reproducible in tests.
func WithJitterSeed(seed int64) ClientOption {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithDialer replaces the TCP dialer (tests, proxies).
func WithDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) ClientOption {
	return func(c *Client) { c.dial = dial }
}

// WithAckObserver registers a sink for per-bundle acknowledgement
// latency: the time from starting to write a bundle's wire bytes to
// reading the server's matching ack. The fleet benchmark feeds these
// samples into its p50/p99 ack-latency quantiles. obs must be safe for
// the caller's own concurrency (one client uploads serially, so a
// per-client observer needs no locking).
func WithAckObserver(obs func(time.Duration)) ClientOption {
	return func(c *Client) { c.ackObs = obs }
}

// WithFaults attaches a fault injector to the upload path: bundle
// frames may be corrupted, truncated, duplicated or dropped, batches
// may be reordered, and sends may be delayed, exactly as an unreliable
// network would. Used by the soak tests and chaos tooling; production
// clients leave it nil.
func WithFaults(in *faults.Injector) ClientOption {
	return func(c *Client) { c.injector = in }
}

// WithBinary once selected the binary columnar codec over JSON lines.
//
// Deprecated: binenc is the only framing.
func WithBinary() ClientOption {
	return func(*Client) {}
}

// NewClient creates a client for the server at addr.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:        addr,
		timeout:     10 * time.Second,
		maxAttempts: 3,
		backoffBase: 100 * time.Millisecond,
		backoffMax:  5 * time.Second,
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		sleep: time.Sleep,
	}
	for _, o := range opts {
		o(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c
}

// wireBundle is one bundle prepared for upload.
type wireBundle struct {
	orig    int    // index in the caller's slice, for error reporting
	key     string // idempotent content key
	payload []byte // binenc payload of the scrubbed, key-stamped bundle
}

// Upload scrubs, stamps and sends the bundles if the phone state allows
// it. Bundles are acknowledged individually; on a transient failure the
// client backs off and resumes from the first unacknowledged bundle. A
// bundle still rejected when attempts are exhausted surfaces as a
// *RejectedError.
func (c *Client) Upload(state PhoneState, bundles []*trace.TraceBundle) error {
	if !state.Eligible() {
		return ErrNotEligible
	}
	if len(bundles) == 0 {
		return nil
	}
	wire := make([]wireBundle, len(bundles))
	for i, b := range bundles {
		scrubbed := trace.ScrubBundle(b) // PII never leaves the phone
		scrubbed.Key = trace.ContentKey(scrubbed)
		payload, err := binenc.EncodeBundle(nil, scrubbed)
		if err != nil {
			return fmt.Errorf("collect: encode bundle %d: %w", i, err)
		}
		wire[i] = wireBundle{orig: i, key: scrubbed.Key, payload: payload}
	}
	if c.injector != nil {
		perm := c.injector.Perm(len(wire))
		reordered := make([]wireBundle, len(wire))
		for i, p := range perm {
			reordered[i] = wire[p]
		}
		wire = reordered
	}

	pending := wire
	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			d := c.backoff(attempt)
			c.backoffNanos.Add(int64(d))
			hCliBackoff.Observe(d.Seconds())
			mCliRetries.Inc()
			c.sleep(d)
		}
		c.attempts.Add(1)
		mCliAttempts.Inc()
		acked, err := c.uploadOnce(pending)
		pending = pending[acked:]
		if len(pending) == 0 && err == nil {
			return nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = errors.New("attempts exhausted")
	}
	var rej *RejectedError
	if errors.As(lastErr, &rej) {
		c.rejected.Add(1)
		mCliRejected.Inc()
	}
	return fmt.Errorf("collect: %d bundle(s) unacknowledged after %d attempts: %w",
		len(pending), c.maxAttempts, lastErr)
}

// backoff computes the sleep before retry `attempt` (1-based):
// base<<(attempt-1), capped, plus up to 50% jitter.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.backoffBase << uint(attempt-1)
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d + jitter
}

// uploadOnce dials, exchanges the hello, and sends pending bundles in
// order until all are acknowledged or one fails, returning how many
// were acknowledged OK.
func (c *Client) uploadOnce(pending []wireBundle) (acked int, err error) {
	conn, err := c.dial(c.addr, c.timeout)
	if err != nil {
		return 0, fmt.Errorf("dial %s: %w", c.addr, err)
	}
	defer conn.Close()
	w := newLineWriter(conn)
	r := newLineReader(conn)
	if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, fmt.Errorf("deadline: %w", err)
	}
	if err := w.writeLine([]byte(helloBinary)); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	reply, err := r.readLine()
	if err != nil {
		return 0, fmt.Errorf("hello reply: %w", err)
	}
	if reply != helloBinary {
		return 0, fmt.Errorf("hello reply: got %q, want %q", reply, helloBinary)
	}
	for i := range pending {
		wb := &pending[i]
		// Per-request deadline: each bundle gets a fresh budget.
		if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return acked, fmt.Errorf("deadline: %w", err)
		}
		var sendStart time.Time
		if c.ackObs != nil {
			sendStart = time.Now()
		}
		msgs := [][]byte{wb.payload}
		if c.injector != nil {
			if d := c.injector.Delay(); d > 0 {
				c.sleep(d)
			}
			var drop bool
			// Faults hit the frame payload before its CRC is computed,
			// so corruption reaches the server's decoder and integrity
			// checks, not just the framing layer.
			msgs, drop = c.injector.Apply(wb.payload)
			if drop {
				return acked, errors.New("connection dropped (injected)")
			}
		}
		for _, m := range msgs {
			if err := w.writeFrame(m); err != nil {
				return acked, fmt.Errorf("send bundle %d: %w", wb.orig, err)
			}
			c.linesSent.Add(1)
			mCliSent.Inc()
		}
		if err := c.awaitAck(r, *wb); err != nil {
			return acked, err
		}
		if c.ackObs != nil {
			c.ackObs(time.Since(sendStart))
		}
		acked++
		c.acked.Add(1)
		mCliAcked.Inc()
	}
	return acked, nil
}

// awaitAck reads acknowledgements until one addresses wb. Acks carry
// the bundle's content key, so stale acks caused by duplicated frames
// (the server acknowledges every copy) are recognized and skipped
// instead of desynchronizing the stream.
func (c *Client) awaitAck(r *lineReader, wb wireBundle) error {
	for {
		ack, err := r.readLine()
		if err != nil {
			return fmt.Errorf("ack for bundle %d: %w", wb.orig, err)
		}
		status, key, reason := parseAck(ack)
		switch status {
		case ackOK:
			if key == wb.key {
				return nil
			}
			continue // stale ack for an earlier (duplicated) frame
		case ackErr:
			if key == ackUnknownKey || key == wb.key {
				return &RejectedError{Index: wb.orig, Reason: reason}
			}
			continue // stale rejection of a duplicated frame's copy
		default:
			return fmt.Errorf("ack for bundle %d: malformed %q", wb.orig, ack)
		}
	}
}

// parseAck splits an ack line into status, key and reason. The wire
// forms are "OK <key>" and "ERR <key> <reason>", where the key is "?"
// when the server could not read one; an ack without a key is
// malformed.
func parseAck(ack string) (status, key, reason string) {
	status, rest, _ := strings.Cut(strings.TrimSpace(ack), " ")
	key, reason, _ = strings.Cut(rest, " ")
	if (status != ackOK && status != ackErr) || key == "" {
		return "", "", ack
	}
	return status, key, reason
}

// lineReader reads the newline-delimited hello echo and acks;
// lineWriter writes the hello line and bundle frames.

type lineReader struct{ r *bufio.Reader }

func newLineReader(conn net.Conn) *lineReader {
	return &lineReader{r: bufio.NewReader(conn)}
}

func (l *lineReader) readLine() (string, error) {
	s, err := l.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(s), nil
}

type lineWriter struct{ w *bufio.Writer }

func newLineWriter(conn net.Conn) *lineWriter {
	return &lineWriter{w: bufio.NewWriter(conn)}
}

func (l *lineWriter) writeLine(b []byte) error {
	if _, err := l.w.Write(b); err != nil {
		return err
	}
	if err := l.w.WriteByte('\n'); err != nil {
		return err
	}
	return l.w.Flush()
}

// writeFrame sends one binenc frame (no newline framing).
func (l *lineWriter) writeFrame(payload []byte) error {
	if err := binenc.WriteFrame(l.w, payload); err != nil {
		return err
	}
	return l.w.Flush()
}
