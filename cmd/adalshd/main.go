// Command adalshd serves adaptive-LSH entity resolution over HTTP:
// named per-dataset sessions, each owning one streaming resolver, with
// periodic checkpoints and warm restarts.
//
//	adalshd -addr :8321 -checkpoint-dir /var/lib/adalsh -checkpoint-every 5000
//
// On SIGINT/SIGTERM the daemon drains in-flight requests, then flushes
// a final checkpoint per session; a later -load-dir pointing at the
// same directory warm-boots every session from where it left off. See
// internal/server for the API surface.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/topk-er/adalsh/internal/server"
)

// Connection deadlines, so one slow or idle client cannot hold a
// connection (and its goroutine) open forever: the request headers must
// arrive within readHeaderTimeout, the whole request within
// readTimeout, and a kept-alive connection is closed after idleTimeout
// without a new request. There is deliberately no write deadline: a
// TopK over a large session can legitimately run long. Vars only so
// tests can shorten them; production code treats them as constants.
var (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server for h.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("adalshd: ")

	addr := flag.String("addr", ":8321", "listen address")
	ckptDir := flag.String("checkpoint-dir", "", "directory for session checkpoints (<id>.snap); empty disables")
	ckptEvery := flag.Int("checkpoint-every", 0, "default checkpoint cadence in records (0: only the shutdown flush)")
	loadDir := flag.String("load-dir", "", "warm-boot: restore every *.snap in this directory as a session")
	queueDepth := flag.Int("queue-depth", 64, "per-session bounded ingest queue depth (overflow: HTTP 429)")
	k := flag.Int("k", 10, "default top-k for sessions that do not set one")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatalf("creating -checkpoint-dir: %v", err)
		}
	}

	srv := server.New(server.Options{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEvery,
		QueueDepth:      *queueDepth,
		DefaultK:        *k,
		Logf:            log.Printf,
	})
	if *loadDir != "" {
		ids, err := srv.LoadDir(*loadDir)
		if err != nil {
			log.Fatalf("warm boot: %v", err)
		}
		log.Printf("warm boot: restored %d session(s) from %s", len(ids), *loadDir)
	}

	hs := newHTTPServer(*addr, srv.Handler())
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	case err := <-done:
		log.Fatalf("serve: %v", err)
	}

	// Drain in-flight requests, then flush a final checkpoint per
	// session so a restart warm-boots from the freshest state.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	if err := srv.Checkpoint(); err != nil {
		log.Fatalf("final checkpoint: %v", err)
	}
	log.Printf("bye")
}
