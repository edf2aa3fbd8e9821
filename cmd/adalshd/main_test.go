package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/topk-er/adalsh/internal/server"
)

// TestHTTPServerDeadlines pins the daemon's connection limits: read
// deadlines set, no write deadline (a long TopK must be able to
// answer).
func TestHTTPServerDeadlines(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, read %v, idle %v; want all set", hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	if hs.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v, want none", hs.WriteTimeout)
	}
}

// TestStalledHeadersClosed: a client that opens a connection and never
// finishes its request headers is disconnected once the header
// deadline passes, instead of holding the connection forever.
func TestStalledHeadersClosed(t *testing.T) {
	defer func(old time.Duration) { readHeaderTimeout = old }(readHeaderTimeout)
	readHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer("", server.New(server.Options{}).Handler())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: adalshd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server gives up on the headers and closes (possibly after a
	// 408 reply); without a deadline this read would block until ours.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reply, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("connection not closed by the server: %v (after %v)", err, time.Since(start))
	}
	if len(reply) > 0 && !strings.Contains(string(reply), "408") {
		t.Fatalf("stalled request answered with %q, want a 408 or a bare close", reply)
	}
}
