package server

import (
	"errors"
	"fmt"

	"sync"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/shard"
	"github.com/topk-er/adalsh/internal/snapio"
)

// ErrBusy is returned by Session.Ingest when the bounded ingest queue
// is full — more requests are already waiting on the session's write
// lock than the configured depth. Handlers map it to 429.
var ErrBusy = errors.New("server: session ingest queue full")

// Session is one live ER session: a core.Stream plus the locking
// discipline that makes it servable.
//
// The locking contract: Stream is not safe for concurrent use, so
// every mutation — Add, TopK, and any Query that must rebuild a stale
// index — runs under the write lock. Point lookups against a fresh
// index only read (QueryIndex.Query is documented safe for concurrent
// use while nothing rebuilds it), so they run under the read lock and
// proceed in parallel with each other. Freshness is checked under the
// same read lock the probe runs under, which is what makes the
// admission sound: a writer cannot slip between the check and the
// probe.
//
// Ingest backpressure is a bounded queue in front of the write lock:
// at most queue-depth ingest requests may be queued (including the one
// holding the lock); beyond that Ingest fails fast with ErrBusy
// instead of stacking goroutines behind a long TopK.
type Session struct {
	id       string
	rule     string
	k, khat  int
	probes   int
	ckptPath string
	ckptEvry int
	shards   int
	restored bool
	// eng is the sharded engine of a session with shards > 1, nil
	// otherwise.
	eng *shard.Engine

	// slots is the bounded ingest queue: acquired (non-blocking) for
	// the duration of one Ingest, including its wait on mu.
	slots chan struct{}

	mu  sync.RWMutex
	st  *core.Stream
	col *obs.Collector
}

// Info snapshots the session's metadata.
func (s *Session) Info() SessionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return SessionInfo{
		ID: s.id, Rule: s.rule, K: s.k, ReturnClusters: s.khat,
		Records: s.st.Len(), Shards: s.shards, Restored: s.restored,
	}
}

// Ingest appends records (entities[i] is the optional ground truth,
// -1 unknown) and returns the assigned IDs plus the new record count.
// Returns ErrBusy when the bounded ingest queue is full, or a layout
// error when a record does not match the session's field layout.
func (s *Session) Ingest(entities []int, fields [][]record.Field) ([]int, int, error) {
	select {
	case s.slots <- struct{}{}:
	default:
		return nil, 0, ErrBusy
	}
	defer func() { <-s.slots }()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Validate the layout against the first resident record before
	// mutating anything: a bad record must not poison the dataset (the
	// stream itself only validates at the next TopK). The first record
	// of a session sets the layout, so it must fit the rule.
	ds := s.st.Dataset()
	ref := fields[0]
	if ds.Len() > 0 {
		ref = ds.Records[0].Fields
	} else if err := distance.CheckFields(s.st.Rule(), ref); err != nil {
		return nil, 0, fmt.Errorf("record 0: %w", err)
	}
	for i, fs := range fields {
		if err := record.CheckLayout(ref, fs); err != nil {
			return nil, 0, fmt.Errorf("server: record %d: %w", i, err)
		}
	}
	ids := make([]int, len(fields))
	for i, fs := range fields {
		ids[i] = s.st.AddWithTruth(entities[i], fs...)
	}
	return ids, s.st.Len(), nil
}

// Records reports the session's current record count.
func (s *Session) Records() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.st.Len()
}

// TopK re-clusters the session and returns the current top-k result.
// k/khat 0 take the session defaults. A checkpoint-persistence failure
// (core.CheckpointError) does not fail the call: the result is
// returned with ckptFailed true.
func (s *Session) TopK(k, khat int) (res *core.Result, ckptFailed bool, err error) {
	if k == 0 {
		k = s.k
	}
	if khat == 0 {
		khat = s.khat
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res, err = s.st.TopKClusters(k, khat)
	var ce *core.CheckpointError
	if err != nil && errors.As(err, &ce) && res != nil {
		return res, true, nil
	}
	return res, false, err
}

// Query answers one online point lookup. Lookups against a fresh index
// run under the read lock — concurrently with each other — and report
// readOnly true; a stale or absent index takes the write lock so the
// stream can transparently rebuild it (checkpoint failures during the
// rebuild are absorbed by Stream.Query itself). A negative probes is
// refused before any lock is taken, so it cannot trigger a rebuild.
func (s *Session) Query(fields []record.Field, m, probes int) (res *core.QueryResult, readOnly bool, err error) {
	if probes < 0 {
		return nil, false, fmt.Errorf("server: probes %d: want >= 0", probes)
	}
	if m < 1 {
		m = 3
	}
	if probes == 0 {
		probes = s.probes
	}
	q := &record.Record{Fields: fields}
	s.mu.RLock()
	if s.st.QueryFresh() {
		res, err = s.st.QueryIndex().Query(q, m, core.QueryOptions{Probes: probes, Obs: s.col})
		s.mu.RUnlock()
		return res, true, err
	}
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if probes != s.probes {
		// Per-request override through the stream path; restore the
		// session default afterwards (we hold the write lock).
		s.st.SetQueryProbes(probes)
		defer s.st.SetQueryProbes(s.probes)
	}
	res, err = s.st.Query(q, m)
	return res, false, err
}

// Stats snapshots the session's lifecycle state and obs counters.
func (s *Session) Stats() StatsResponse {
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := StatsResponse{
		ID:              s.id,
		Records:         s.st.Len(),
		PlanDesigned:    s.st.Plan() != nil,
		Replans:         s.st.Replans(),
		QueryIndexFresh: s.st.QueryFresh(),
		CheckpointEvery: s.ckptEvry,
		CheckpointPath:  s.ckptPath,
		Counters:        s.col.Counters(),
	}
	if s.eng != nil {
		for _, sh := range s.eng.PerShard() {
			resp.CacheBytes += sh.CacheBytes
			resp.CacheDeadBytes += sh.CacheDeadBytes
			resp.PoolBytes += sh.PoolBytes
		}
		return resp
	}
	resp.CacheBytes = s.st.Cache().MemBytes()
	resp.CacheDeadBytes = s.st.Cache().DeadBytes()
	resp.PoolBytes = s.st.HashPool().MemBytes()
	resp.QueryIndexBytes = s.st.QueryIndex().MemBytes()
	return resp
}

// Checkpoint flushes the session to its checkpoint path (a no-op for
// sessions without checkpoint wiring or without records). The graceful
// shutdown path calls this for every session after the listener
// drains, so a restart warm-boots from the freshest possible state.
func (s *Session) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ckptPath == "" || s.st.Len() == 0 {
		return nil
	}
	return snapio.SaveFile(s.ckptPath, s.st)
}
