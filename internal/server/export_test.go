package server

// Test hooks: the integration suite lives in package server_test (it
// drives the HTTP surface through internal/server/client, which
// imports this package), so the white-box handles it needs are
// exported here.

// LockSession grabs s's write lock — as if a long TopK were running —
// and returns the unlock. Ingests issued while it is held park in the
// bounded queue, which is how the backpressure test fills the queue
// deterministically.
func LockSession(s *Session) (unlock func()) {
	s.mu.Lock()
	return s.mu.Unlock
}

// QueueFull reports whether s's bounded ingest queue is at capacity
// (the next Ingest will fail with ErrBusy).
func QueueFull(s *Session) bool {
	return len(s.slots) == cap(s.slots)
}

// Lookup exposes the registry for test assertions.
func (sv *Server) Lookup(id string) *Session { return sv.session(id) }

// SetMaxBodyBytes lowers the request-body cap so tests can exceed it
// with small payloads. It returns a restore function.
func SetMaxBodyBytes(n int64) func() {
	old := maxBodyBytes
	maxBodyBytes = n
	return func() { maxBodyBytes = old }
}
