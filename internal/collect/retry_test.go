package collect

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// flakyDialer fails the first n dials, then delegates to the real
// dialer.
type flakyDialer struct {
	mu       sync.Mutex
	failures int
	dials    int
}

func (f *flakyDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	f.mu.Lock()
	f.dials++
	fail := f.dials <= f.failures
	f.mu.Unlock()
	if fail {
		return nil, errors.New("injected dial failure")
	}
	return net.DialTimeout("tcp", addr, timeout)
}

func TestClientRetriesThroughDialFailures(t *testing.T) {
	srv := startServer(t)
	fd := &flakyDialer{failures: 2}
	var slept []time.Duration
	c := NewClient(srv.Addr(),
		WithDialer(fd.dial),
		WithRetry(5, time.Millisecond, 8*time.Millisecond),
		WithJitterSeed(1))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t1")})
	if err != nil {
		t.Fatalf("upload did not survive %d dial failures: %v", fd.failures, err)
	}
	if fd.dials != 3 {
		t.Errorf("dialed %d times, want 3 (2 failures + 1 success)", fd.dials)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times between attempts, want 2", len(slept))
	}
	if srv.Count() != 1 {
		t.Errorf("server stores %d bundles, want 1", srv.Count())
	}
}

func TestClientBackoffGrowsAndCaps(t *testing.T) {
	fd := &flakyDialer{failures: 1 << 30} // never succeeds
	var slept []time.Duration
	const (
		base = 100 * time.Millisecond
		max  = 300 * time.Millisecond
	)
	c := NewClient("unused:0",
		WithDialer(fd.dial),
		WithRetry(5, base, max),
		WithJitterSeed(7))
	c.sleep = func(d time.Duration) { slept = append(slept, d) }

	err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t1")})
	if err == nil {
		t.Fatal("upload succeeded with a dialer that always fails")
	}
	if !strings.Contains(err.Error(), "after 5 attempts") {
		t.Errorf("error does not report the attempt budget: %v", err)
	}
	if len(slept) != 4 {
		t.Fatalf("slept %d times for 5 attempts, want 4", len(slept))
	}
	// base<<(n-1) capped at max, plus at most 50% jitter.
	wantFloor := []time.Duration{base, 2 * base, max, max}
	for i, d := range slept {
		if d < wantFloor[i] || d > wantFloor[i]+wantFloor[i]/2 {
			t.Errorf("backoff %d = %v, want within [%v, %v]", i, d, wantFloor[i], wantFloor[i]*3/2)
		}
	}
}

// TestClientResumesFromFirstUnacked verifies that a connection cut
// mid-batch does not restart the upload from scratch: acknowledged
// bundles stay acknowledged, and the retry resumes at the first
// unacknowledged one (the server-side dedup then absorbs any overlap).
func TestClientResumesFromFirstUnacked(t *testing.T) {
	srv := startServer(t)
	batch := []*trace.TraceBundle{
		bundle("app", "u1", "t1"),
		bundle("app", "u2", "t2"),
		bundle("app", "u3", "t3"),
	}

	// A proxy connection that dies after forwarding the hello and one
	// bundle frame on the first dial, then behaves.
	dials := 0
	dial := func(addr string, timeout time.Duration) (net.Conn, error) {
		dials++
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if dials == 1 {
			return &droppingConn{Conn: conn, writesLeft: 2}, nil
		}
		return conn, nil
	}
	c := NewClient(srv.Addr(),
		WithDialer(dial),
		WithRetry(3, time.Millisecond, 2*time.Millisecond),
		WithJitterSeed(3))
	if err := c.Upload(PhoneState{Charging: true, OnWiFi: true}, batch); err != nil {
		t.Fatalf("upload did not recover from the cut connection: %v", err)
	}
	if srv.Count() != len(batch) {
		t.Errorf("server stores %d bundles, want %d", srv.Count(), len(batch))
	}
	if dials != 2 {
		t.Errorf("dialed %d times, want 2", dials)
	}
}

// droppingConn forwards writesLeft writes, then fails everything.
type droppingConn struct {
	net.Conn
	writesLeft int
}

func (d *droppingConn) Write(b []byte) (int, error) {
	if d.writesLeft <= 0 {
		d.Conn.Close()
		return 0, errors.New("connection cut (test)")
	}
	d.writesLeft--
	return d.Conn.Write(b)
}

// TestPermanentRejectionSurfacesAfterRetries pins the error shape for a
// bundle the server will never accept: the upload fails with the
// rejection (not a generic timeout), wrapped in the attempts report.
func TestPermanentRejectionSurfacesAfterRetries(t *testing.T) {
	srv := startServer(t)
	bad := bundle("", "u", "t") // no app id: deterministic rejection
	c := NewClient(srv.Addr(),
		WithRetry(3, time.Millisecond, 2*time.Millisecond),
		WithJitterSeed(9))
	err := c.Upload(PhoneState{Charging: true, OnWiFi: true}, []*trace.TraceBundle{bad})
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("err = %v, want a wrapped *RejectedError", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error does not report the attempt budget: %v", err)
	}
	if srv.Count() != 0 {
		t.Errorf("rejected bundle was stored")
	}
}
