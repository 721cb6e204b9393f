package collect

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// Router metrics: how the fronting tier spreads and degrades.
var (
	mRtBundles   = obs.Default.Counter("collect_router_bundles_total", "bundles routed to a shard")
	mRtUnrouted  = obs.Default.Counter("collect_router_unrouted_total", "frames with no readable app id (routed to shard 0 for quarantine) and connections without the hello (rejected)")
	mRtUpstreams = obs.Default.Counter("collect_router_upstream_conns_total", "upstream shard connections dialed")
	mRtErrors    = obs.Default.Counter("collect_router_upstream_errors_total", "client connections dropped on an upstream failure")
)

// ShardOf maps an app ID onto one of n shards (FNV-1a 32). It is the
// single partitioning function of the sharded deployment: the ingest
// router and the per-shard stores agree on it, so an app's whole
// corpus and dedup state live on exactly one shard. Analysis is not
// partitioned: every shard feeds the one serving layer, which is keyed
// by app.
func ShardOf(appID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % uint32(n))
}

// ShardedServer fronts N in-process collection shards with a thin
// routing listener. Each shard is a full *Server — own store, own
// dedup state, own ingest hook — and owns every app whose ID hashes to
// it. The router terminates the upload protocol only far enough to
// read each bundle's app ID (binenc.FrameHeader), forwards the raw
// frame to the owning shard over a per-connection upstream, and relays
// the shard's ack verbatim.
//
// Exactly-once survives routing because the router adds no state: the
// bundle's content key travels with the bytes, and the owning shard's
// dedup map (and durable store) is the same one a retry after a router
// crash or an upstream failure lands on. A frame whose app ID cannot
// be read is deterministically routed to shard 0, whose validator
// quarantines it — rejects stay observable without the router growing
// its own quarantine. A connection that does not open with the hello
// carries no frame to forward: the router answers it with one "ERR ?"
// ack, counts it in collect_router_unrouted_total and closes it.
type ShardedServer struct {
	ln     net.Listener
	shards []*Server
	limits Limits

	mu      sync.Mutex
	closed  bool
	handler sync.WaitGroup
}

// NewShardedServer starts n shards on loopback ports and a router on
// addr. shardOpts, when non-nil, supplies each shard's options (store,
// ingest hook, limits, faults) by shard index. With n == 1 the shard
// still sits behind the router, so behavior differs from a bare Server
// only by one forwarding hop.
func NewShardedServer(addr string, n int, shardOpts func(shard int) []ServerOption) (*ShardedServer, error) {
	if n < 1 {
		return nil, fmt.Errorf("collect: shard count %d < 1", n)
	}
	ss := &ShardedServer{}
	for i := 0; i < n; i++ {
		var opts []ServerOption
		if shardOpts != nil {
			opts = shardOpts(i)
		}
		srv, err := NewServer("127.0.0.1:0", opts...)
		if err != nil {
			for _, s := range ss.shards {
				s.Close()
			}
			return nil, fmt.Errorf("collect: shard %d: %w", i, err)
		}
		ss.shards = append(ss.shards, srv)
	}
	ss.limits = ss.shards[0].limits
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		for _, s := range ss.shards {
			s.Close()
		}
		return nil, fmt.Errorf("collect: router listen: %w", err)
	}
	ss.ln = ln
	registerQuarantineGauges(ss.quarantineKept, ss.QuarantineCount)
	ss.handler.Add(1)
	go ss.acceptLoop()
	return ss, nil
}

// Addr returns the router's listen address — the one clients dial.
func (ss *ShardedServer) Addr() string { return ss.ln.Addr().String() }

// Shards returns the shard servers, indexed by ShardOf.
func (ss *ShardedServer) Shards() []*Server { return ss.shards }

// ShardFor returns the shard owning an app's corpus.
func (ss *ShardedServer) ShardFor(appID string) *Server {
	return ss.shards[ShardOf(appID, len(ss.shards))]
}

// Close stops the router, waits for in-flight routed connections, then
// closes every shard.
func (ss *ShardedServer) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	ss.mu.Unlock()
	err := ss.ln.Close()
	ss.handler.Wait()
	for _, s := range ss.shards {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Stats sums the shards' ingestion counters. The reconciliation
// invariant (accepted + duplicated + quarantined == messages received)
// holds fleet-wide for every frame the router forwards because it
// holds per shard.
func (ss *ShardedServer) Stats() ServerStats {
	var out ServerStats
	for _, s := range ss.shards {
		st := s.Stats()
		out.Accepted += st.Accepted
		out.Duplicated += st.Duplicated
		out.Quarantined += st.Quarantined
		out.BytesIngested += st.BytesIngested
		out.ConnsTotal += st.ConnsTotal
		out.ConnsOpen += st.ConnsOpen
	}
	return out
}

// Bundles returns the stored bundles for one app, read from its shard.
func (ss *ShardedServer) Bundles(appID string) []*trace.TraceBundle {
	return ss.ShardFor(appID).Bundles(appID)
}

// Count returns the total stored bundles across all shards.
func (ss *ShardedServer) Count() int {
	n := 0
	for _, s := range ss.shards {
		n += s.Count()
	}
	return n
}

// Apps returns the app IDs with stored traces across all shards.
func (ss *ShardedServer) Apps() []string {
	var out []string
	for _, s := range ss.shards {
		out = append(out, s.Apps()...)
	}
	sort.Strings(out)
	return out
}

// QuarantineCount sums the shards' rejected-upload totals.
func (ss *ShardedServer) QuarantineCount() int {
	n := 0
	for _, s := range ss.shards {
		n += s.QuarantineCount()
	}
	return n
}

// quarantineKept sums the rejects the shards' in-memory rings hold.
func (ss *ShardedServer) quarantineKept() int {
	n := 0
	for _, s := range ss.shards {
		n += s.quarantineKept()
	}
	return n
}

func (ss *ShardedServer) acceptLoop() {
	defer ss.handler.Done()
	for {
		conn, err := ss.ln.Accept()
		if err != nil {
			return
		}
		ss.handler.Add(1)
		go func() {
			defer ss.handler.Done()
			ss.route(conn)
		}()
	}
}

// upstream is one lazily-dialed router→shard connection. The router
// opens at most one per shard per client connection and forwards
// bundles synchronously (send, await shard ack, relay), so per-client
// ack order is the shard ack order and MaxBundlesPerConn on the shard
// bounds what one routed client can send, same as an unsharded server.
type upstream struct {
	conn net.Conn
	br   *bufio.Reader
	w    *bufio.Writer
}

func (u *upstream) close() {
	if u != nil {
		u.conn.Close()
	}
}

// dialShard opens the upstream to one shard and exchanges the hello
// with it; frames then pass through untouched — the router never
// transcodes.
func (ss *ShardedServer) dialShard(i int) (*upstream, error) {
	conn, err := net.Dial("tcp", ss.shards[i].Addr())
	if err != nil {
		return nil, err
	}
	mRtUpstreams.Inc()
	u := &upstream{conn: conn, br: bufio.NewReaderSize(conn, 64*1024), w: bufio.NewWriter(conn)}
	if _, err := u.w.WriteString(helloLine); err != nil {
		conn.Close()
		return nil, err
	}
	if err := u.w.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	echo, err := u.br.ReadString('\n')
	if err != nil {
		conn.Close()
		return nil, err
	}
	if echo != helloLine {
		conn.Close()
		return nil, errors.New("shard did not echo the hello")
	}
	return u, nil
}

// route handles one client connection: check the hello exactly like a
// Server would, then forward bundle-by-bundle to owning shards.
func (ss *ShardedServer) route(conn net.Conn) {
	defer conn.Close()
	ups := make([]*upstream, len(ss.shards))
	defer func() {
		for _, u := range ups {
			u.close()
		}
	}()
	get := func(i int) (*upstream, error) {
		if ups[i] == nil {
			u, err := ss.dialShard(i)
			if err != nil {
				mRtErrors.Inc()
				return nil, err
			}
			ups[i] = u
		}
		return ups[i], nil
	}

	br := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriter(conn)
	peek, _ := br.Peek(len(helloLine))
	if string(peek) != helloLine {
		if len(peek) > 0 {
			mRtUnrouted.Inc()
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
	ss.routeFrames(br, w, get)
}

// forward sends one already-framed message to a shard and relays the
// shard's one-line ack back to the client. Any failure in the middle
// closes the client connection: the client's retry re-offers the
// bundle with its content key intact and the shard dedups it, so a
// half-forwarded bundle can never double-ingest.
func forward(up *upstream, w *bufio.Writer, msg []byte) error {
	if _, err := up.w.Write(msg); err != nil {
		mRtErrors.Inc()
		return err
	}
	if err := up.w.Flush(); err != nil {
		mRtErrors.Inc()
		return err
	}
	ack, err := up.br.ReadString('\n')
	if err != nil {
		mRtErrors.Inc()
		return err
	}
	if _, err := w.WriteString(ack); err != nil {
		return err
	}
	return w.Flush()
}

func (ss *ShardedServer) routeFrames(br *bufio.Reader, w *bufio.Writer, get func(int) (*upstream, error)) {
	for {
		payload, err := binenc.ReadFrame(br, ss.limits.MaxLineBytes)
		if err != nil {
			if err != io.EOF {
				// Same contract as Server.handleFrames: a torn frame
				// cannot be resynced past, so reject and close.
				fmt.Fprintf(w, "%s %s binary framing: %v\n", ackErr, ackUnknownKey, err)
				w.Flush()
			}
			return
		}
		shard := 0
		if hdr, herr := binenc.FrameHeader(payload); herr == nil {
			shard = ShardOf(hdr.AppID, len(ss.shards))
		} else {
			mRtUnrouted.Inc() // shard 0's decoder will quarantine it
		}
		up, err := get(shard)
		if err != nil {
			return
		}
		mRtBundles.Inc()
		if err := forward(up, w, binenc.AppendFrame(nil, payload)); err != nil {
			return
		}
	}
}
