package collect

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// These tests speak the wire protocol directly to verify the server
// survives malformed clients.

func dialRaw(t *testing.T, s *Server) net.Conn {
	t.Helper()
	return dialAddr(t, s.Addr())
}

func dialAddr(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// hello sends the protocol hello on conn, checks the echo and returns
// the reader the acks arrive on.
func hello(t *testing.T, conn net.Conn) *bufio.Reader {
	t.Helper()
	if _, err := conn.Write([]byte(helloLine)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	echo, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if echo != helloLine {
		t.Fatalf("hello echo = %q, want %q", echo, helloLine)
	}
	return r
}

// sendFrame writes payload as one binenc frame.
func sendFrame(t *testing.T, conn net.Conn, payload []byte) {
	t.Helper()
	if _, err := conn.Write(binenc.AppendFrame(nil, payload)); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsGarbageLine(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := hello(t, conn)
	sendFrame(t, conn, []byte("this is not a bundle"))
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ") {
		t.Errorf("ack = %q, want ERR", ack)
	}
	if s.Count() != 0 {
		t.Error("garbage stored")
	}
}

func TestServerSurvivesGarbageThenAcceptsValid(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := hello(t, conn)
	sendFrame(t, conn, []byte("{\"broken\": "))
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	// The server keeps serving: a fresh client upload still works.
	c := NewClient(s.Addr())
	err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t1")})
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 {
		t.Errorf("count = %d", s.Count())
	}
}
