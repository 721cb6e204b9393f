// Event stream: a broadcast hub fanning report-update events out to SSE
// clients at /analysis/events.
//
// Backpressure contract: publish never blocks the flush path. Every
// subscriber has a bounded queue; when it is full the OLDEST queued
// event is dropped in favor of the new one, because the newest snapshot
// supersedes the ones before it (report updates are state notifications,
// not a ledger). Clients detect drops from gaps in the monotonically
// increasing event-ID sequence and resume missed events — as far as the
// bounded replay ring reaches — with the standard SSE Last-Event-ID
// header. A resume past the ring's horizon is answered with a
// "resume-gap" comment so the client knows to refetch current state.
package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

var (
	mStreamEvents  = obs.Default.Counter("serve_stream_events_total", "report-update events published to the SSE hub")
	mStreamDropped = obs.Default.Counter("serve_stream_dropped_total", "events dropped from slow SSE clients' queues (drop-oldest)")
	gStreamClients = obs.Default.Gauge("serve_stream_clients", "SSE clients currently connected to /analysis/events")
)

// Event is one report-update notification: which app flushed, the new
// snapshot's version and ETag, and the delta summary an operator (or
// the dashboard) renders without refetching the full report.
type Event struct {
	App string `json:"app"`
	Snapshot
}

// streamEvent pairs an Event with its hub-assigned sequence ID (the SSE
// "id:" field).
type streamEvent struct {
	id uint64
	ev Event
}

// subscriber is one connected stream client.
type subscriber struct {
	app     string // filter: only events for this app ("" = all)
	ch      chan streamEvent
	dropped atomic.Uint64
}

// hub fans events out to subscribers and retains a bounded replay ring
// for Last-Event-ID resume.
type hub struct {
	mu        sync.Mutex
	nextID    uint64
	ring      []streamEvent
	replayCap int
	queueCap  int
	subs      map[*subscriber]struct{}
	closed    bool
}

func newHub(replayCap, queueCap int) *hub {
	return &hub{
		replayCap: replayCap,
		queueCap:  queueCap,
		subs:      make(map[*subscriber]struct{}),
	}
}

// publish assigns the next event ID, appends to the replay ring, and
// offers the event to every matching subscriber. It never blocks: a
// full subscriber queue drops its oldest event. Safe to call from the
// flush path.
func (h *hub) publish(ev Event) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0
	}
	h.nextID++
	se := streamEvent{id: h.nextID, ev: ev}
	if len(h.ring) == h.replayCap {
		copy(h.ring, h.ring[1:])
		h.ring[len(h.ring)-1] = se
	} else {
		h.ring = append(h.ring, se)
	}
	mStreamEvents.Inc()
	for s := range h.subs {
		if s.app != "" && s.app != ev.App {
			continue
		}
		// Drop-oldest, never block: this loop terminates because the hub
		// is the only sender — once we pop an element (or the consumer
		// does), the send succeeds.
		for sent := false; !sent; {
			select {
			case s.ch <- se:
				sent = true
			default:
				select {
				case <-s.ch:
					s.dropped.Add(1)
					mStreamDropped.Inc()
				default:
					// Consumer drained it first; retry the send.
				}
			}
		}
	}
	return h.nextID
}

// subscribe registers a new client and returns the replayable backlog
// after lastID (filtered by app), plus the oldest ID still in the ring
// so the caller can detect a resume gap. ok is false once the hub is
// closed.
func (h *hub) subscribe(app string, lastID uint64) (sub *subscriber, backlog []streamEvent, oldest uint64, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, 0, false
	}
	sub = &subscriber{app: app, ch: make(chan streamEvent, h.queueCap)}
	h.subs[sub] = struct{}{}
	if len(h.ring) > 0 {
		oldest = h.ring[0].id
	}
	if lastID > 0 {
		for _, se := range h.ring {
			if se.id > lastID && (app == "" || se.ev.App == app) {
				backlog = append(backlog, se)
			}
		}
	}
	return sub, backlog, oldest, true
}

func (h *hub) unsubscribe(s *subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, s)
}

// close terminates every subscriber (they observe a closed channel).
// Publishing and closing both happen under h.mu, so a send on a closed
// channel is impossible.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for s := range h.subs {
		close(s.ch)
		delete(h.subs, s)
	}
}

// lastEventID extracts the client's resume position: the standard
// Last-Event-ID header (set by browser EventSource on reconnect) or the
// ?last_event_id= query parameter (curl-friendly).
func lastEventID(req *http.Request) uint64 {
	raw := req.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = req.URL.Query().Get("last_event_id")
	}
	if raw == "" {
		return 0
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return id
}

// writeSSE renders one event in the text/event-stream framing.
func writeSSE(w io.Writer, se streamEvent) error {
	data, err := json.Marshal(se.ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: report\ndata: %s\n\n", se.id, data)
	return err
}

// serveEvents is the GET /analysis/events SSE endpoint. Query
// parameters: ?app=X filters to one app; ?last_event_id=N resumes
// (equivalent to the Last-Event-ID header).
func (s *Service) serveEvents(w http.ResponseWriter, req *http.Request) {
	if !requireGET(w, req) {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	lastID := lastEventID(req)
	sub, backlog, oldest, ok := s.hub.subscribe(req.URL.Query().Get("app"), lastID)
	if !ok {
		http.Error(w, "service closed", http.StatusServiceUnavailable)
		return
	}
	defer s.hub.unsubscribe(sub)
	gStreamClients.Inc()
	defer gStreamClients.Dec()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, "retry: 2000\n\n")
	if lastID > 0 && oldest > lastID+1 {
		// The ring no longer reaches the client's position: anything
		// between lastID and the ring is unrecoverable here. Tell the
		// client so it refetches current snapshots before trusting the
		// stream's deltas.
		fmt.Fprint(w, ": resume-gap\n\n")
	}
	for _, se := range backlog {
		if writeSSE(w, se) != nil {
			return
		}
	}
	fl.Flush()

	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case se, open := <-sub.ch:
			if !open {
				return // service closed
			}
			if writeSSE(w, se) != nil {
				return
			}
			fl.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// StreamEvent is one decoded server-sent event, as delivered to a
// WatchEvents callback.
type StreamEvent struct {
	ID    uint64
	Event Event
}

// WatchEvents connects to baseURL's /analysis/events stream (optionally
// filtered to one app) and invokes fn for every report event until ctx
// is canceled, the connection breaks, or fn returns an error. lastID
// resumes after a previously seen event ID. It returns ctx.Err() on
// cancellation, fn's error verbatim, or the transport error — the
// caller owns the reconnect policy (energydx -watch reconnects with the
// last delivered ID).
func WatchEvents(ctx context.Context, client *http.Client, baseURL, app string, lastID uint64, fn func(StreamEvent) error) error {
	if client == nil {
		client = http.DefaultClient
	}
	u := strings.TrimSuffix(baseURL, "/") + "/analysis/events"
	if app != "" {
		u += "?app=" + url.QueryEscape(app)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastID, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("serve: event stream %s: status %s", u, resp.Status)
	}

	// Minimal SSE parser: accumulate id/event/data fields, dispatch on
	// each blank line. Comment lines (":" prefix) are heartbeats.
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var (
		id    uint64
		kind  string
		data  strings.Builder
		seen  bool
		flush = func() error {
			defer func() { id, kind, seen = 0, "", false; data.Reset() }()
			if !seen || kind != "report" {
				return nil
			}
			var ev Event
			if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
				return fmt.Errorf("serve: bad stream event: %w", err)
			}
			return fn(StreamEvent{ID: id, Event: ev})
		}
	)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, ":"):
			// comment / heartbeat
		case strings.HasPrefix(line, "id:"):
			id, _ = strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64)
			seen = true
		case strings.HasPrefix(line, "event:"):
			kind = strings.TrimSpace(line[6:])
			seen = true
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(line[5:]))
			seen = true
		case strings.HasPrefix(line, "retry:"):
			// server reconnect hint; the caller owns reconnect policy
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return io.EOF // server closed the stream
}
