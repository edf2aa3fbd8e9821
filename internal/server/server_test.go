package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/rulespec"
	"github.com/topk-er/adalsh/internal/server"
	"github.com/topk-er/adalsh/internal/server/client"
	"github.com/topk-er/adalsh/internal/xhash"
)

const testRule = "jaccard@0 <= 0.4"

// testRecords builds n Jaccard-set records over a few entities: each
// entity has a base token set, each record keeps ~90% of it.
func testRecords(t *testing.T, n, entities int, seed uint64) ([]server.WireRecord, [][]record.Field, []int) {
	t.Helper()
	rng := xhash.NewRNG(seed)
	bases := make([][]uint64, entities)
	for i := range bases {
		base := make([]uint64, 40+rng.Intn(20))
		for j := range base {
			base[j] = rng.Uint64()
		}
		bases[i] = base
	}
	wire := make([]server.WireRecord, n)
	fields := make([][]record.Field, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		ent := i % entities
		var toks []uint64
		for _, tok := range bases[ent] {
			if rng.Float64() < 0.9 {
				toks = append(toks, tok)
			}
		}
		truth[i] = ent
		fields[i] = []record.Field{record.NewSet(toks)}
		wr, err := client.EncodeRecord(ent, fields[i]...)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = wr
	}
	return wire, fields, truth
}

// startServer spins up a server over httptest plus a client for it.
func startServer(t *testing.T, opts server.Options) (*server.Server, *client.Client) {
	t.Helper()
	srv := server.New(opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL, hs.Client())
}

// TestRoundTripMatchesDirectStream feeds the same records through the
// HTTP API and through a core.Stream directly and asserts the top-k
// output is byte-for-byte identical.
func TestRoundTripMatchesDirectStream(t *testing.T) {
	_, c := startServer(t, server.Options{})
	wire, fields, truth := testRecords(t, 40, 4, 7)

	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "rt", Rule: testRule, K: 3, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	// Mixed single + batch ingest.
	if _, err := c.Ingest("rt", wire[0]); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Ingest("rt", wire[1:]...)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Records != len(wire) {
		t.Fatalf("server holds %d records, want %d", resp.Records, len(wire))
	}
	got, err := c.TopK("rt", 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	rule, err := rulespec.Parse(testRule)
	if err != nil {
		t.Fatal(err)
	}
	st := core.NewStream(rule, core.SequenceConfig{Seed: 11})
	for i := range fields {
		st.AddWithTruth(truth[i], fields[i]...)
	}
	want, err := st.TopKClusters(3, 0)
	if err != nil {
		t.Fatal(err)
	}

	if got.Kept != len(want.Output) {
		t.Errorf("kept %d records, direct stream kept %d", got.Kept, len(want.Output))
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("got %d clusters, direct stream %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range want.Clusters {
		a, _ := json.Marshal(got.Clusters[i].Records)
		b, _ := json.Marshal(want.Clusters[i].Records)
		if string(a) != string(b) {
			t.Errorf("cluster %d: got %s, direct stream %s", i, a, b)
		}
	}

	// Point lookups must agree too — and be served read-only now that
	// the index is fresh.
	q, err := c.Query("rt", server.QueryRequest{Fields: wire[2].Fields, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !q.ReadOnly {
		t.Errorf("query after TopK not served read-only")
	}
	wq, err := st.Query(&record.Record{Fields: fields[2]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Matches) != len(wq.Matches) {
		t.Fatalf("got %d matches, direct stream %d", len(q.Matches), len(wq.Matches))
	}
	for i := range wq.Matches {
		if q.Matches[i].Cluster != wq.Matches[i].Cluster ||
			!reflect.DeepEqual(q.Matches[i].Records, wq.Matches[i].Records) {
			t.Errorf("match %d: got %+v, direct stream %+v", i, q.Matches[i], wq.Matches[i])
		}
	}
}

// TestConcurrentIngestAndQuery hammers one session with concurrent
// ingest batches, point queries and re-clustering runs. Run under
// -race this is the locking-contract regression test.
func TestConcurrentIngestAndQuery(t *testing.T) {
	_, c := startServer(t, server.Options{QueueDepth: 128})
	wire, _, _ := testRecords(t, 200, 5, 3)

	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "conc", Rule: testRule, K: 4, Seed: 5, QueryRefresh: 50}); err != nil {
		t.Fatal(err)
	}
	warm := 50
	if _, err := c.Ingest("conc", wire[:warm]...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK("conc", 0, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	// Ingest workers: the tail records in small batches.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for at := warm + w*10; at < len(wire); at += 40 {
				end := at + 10
				if end > len(wire) {
					end = len(wire)
				}
				for {
					_, err := c.Ingest("conc", wire[at:end]...)
					if client.IsBusy(err) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						errc <- err
					}
					break
				}
			}
		}(w)
	}
	// Query workers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := c.Query("conc", server.QueryRequest{Fields: wire[(w*25+i)%warm].Fields, M: 2}); err != nil {
					errc <- err
				}
			}
		}(w)
	}
	// Re-clustering in the middle of it all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := c.TopK("conc", 0, 0); err != nil {
				errc <- err
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats, err := c.Stats("conc")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != len(wire) {
		t.Errorf("session holds %d records, want %d", stats.Records, len(wire))
	}
}

// TestIngestBackpressure fills the bounded ingest queue while a writer
// holds the session lock and asserts the overflow request gets 429.
func TestIngestBackpressure(t *testing.T) {
	srv, c := startServer(t, server.Options{QueueDepth: 2})
	wire, _, _ := testRecords(t, 10, 2, 9)
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "bp", Rule: testRule}); err != nil {
		t.Fatal(err)
	}
	s := srv.Lookup("bp")
	unlock := server.LockSession(s)

	// Two ingests park in the queue behind the held lock...
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Ingest("bp", wire[i]); err != nil {
				t.Errorf("queued ingest %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !server.QueueFull(s) {
		if time.Now().After(deadline) {
			unlock()
			t.Fatal("ingest queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// ...so the third is rejected with 429, not queued.
	_, err := c.Ingest("bp", wire[2])
	if !client.IsBusy(err) {
		unlock()
		t.Fatalf("overflow ingest: got %v, want 429", err)
	}
	unlock()
	wg.Wait()

	// Once the queue drains, ingest works again.
	if _, err := c.Ingest("bp", wire[2]); err != nil {
		t.Fatalf("ingest after drain: %v", err)
	}
}

// TestShutdownCheckpointFlush asserts the shutdown flush persists every
// checkpoint-wired session and that a warm boot restores it.
func TestShutdownCheckpointFlush(t *testing.T) {
	dir := t.TempDir()
	srv, c := startServer(t, server.Options{CheckpointDir: dir})
	wire, _, _ := testRecords(t, 30, 3, 13)
	// Huge cadence: no periodic checkpoint fires during the run, so the
	// file can only come from the shutdown flush.
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "flush", Rule: testRule, K: 3, CheckpointEvery: 1 << 30}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("flush", wire...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK("flush", 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "flush.snap")
	if _, err := os.Stat(snap); err == nil {
		t.Fatal("checkpoint written before the shutdown flush")
	}

	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("shutdown flush wrote no checkpoint: %v", err)
	}

	// Warm boot a second server from the flushed directory.
	srv2 := server.New(server.Options{CheckpointDir: dir, CheckpointEvery: 1 << 30})
	ids, err := srv2.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "flush" {
		t.Fatalf("warm boot restored %v, want [flush]", ids)
	}
	infos := srv2.Sessions()
	if len(infos) != 1 || infos[0].Records != len(wire) || !infos[0].Restored {
		t.Fatalf("restored session info %+v, want %d records, restored", infos[0], len(wire))
	}
}

// TestCheckpointFailureDoesNotFailServing wires a session's checkpoints
// to an unwritable path and asserts TopK still answers (flagging the
// failure) and point queries still answer during the failing rebuild —
// the regression the core.CheckpointError bugfix exists for.
func TestCheckpointFailureDoesNotFailServing(t *testing.T) {
	// CheckpointDir is a path *inside a regular file*, so every
	// snapio.SaveFile fails.
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, c := startServer(t, server.Options{CheckpointDir: filepath.Join(blocker, "snaps")})
	wire, _, _ := testRecords(t, 30, 3, 21)
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "cf", Rule: testRule, K: 3, CheckpointEvery: 1, QueryRefresh: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("cf", wire[:25]...); err != nil {
		t.Fatal(err)
	}
	got, err := c.TopK("cf", 0, 0)
	if err != nil {
		t.Fatalf("topk during failing checkpoint: %v", err)
	}
	if !got.CheckpointFailed {
		t.Error("topk did not flag the failed checkpoint")
	}
	if len(got.Clusters) == 0 {
		t.Error("topk with failing checkpoint returned no clusters")
	}

	// Staleness forces the next query through the transparent rebuild,
	// whose checkpoint also fails — the query must still answer.
	if _, err := c.Ingest("cf", wire[25:]...); err != nil {
		t.Fatal(err)
	}
	q, err := c.Query("cf", server.QueryRequest{Fields: wire[0].Fields, M: 2})
	if err != nil {
		t.Fatalf("query during failing checkpoint: %v", err)
	}
	if q.ReadOnly {
		t.Error("stale-index query reported read-only")
	}
	stats, err := c.Stats("cf")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["checkpoint_failures"] < 2 {
		t.Errorf("checkpoint_failures = %d, want >= 2", stats.Counters["checkpoint_failures"])
	}
}

// TestHTTPErrors covers the error mapping: unknown session 404, bad
// body 400, duplicate session 409, query before any TopK 409.
func TestHTTPErrors(t *testing.T) {
	_, c := startServer(t, server.Options{})
	wire, _, _ := testRecords(t, 5, 2, 17)

	if _, err := c.TopK("ghost", 0, 0); status(err) != http.StatusNotFound {
		t.Errorf("topk on unknown session: got %v, want 404", err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "e", Rule: "nonsense"}); status(err) != http.StatusBadRequest {
		t.Errorf("bad rule: got %v, want 400", err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "bad id!", Rule: testRule}); status(err) != http.StatusBadRequest {
		t.Errorf("bad session id: got %v, want 400", err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "e", Rule: testRule}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "e", Rule: testRule}); status(err) != http.StatusConflict {
		t.Errorf("duplicate session: got %v, want 409", err)
	}
	if _, err := c.Ingest("e", wire[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("e", server.QueryRequest{Fields: wire[1].Fields}); status(err) != http.StatusConflict {
		t.Errorf("query before topk: got %v, want 409", err)
	}
	// A record whose layout does not match the resident ones is
	// rejected without poisoning the session.
	badWire, err := client.EncodeRecord(-1, record.Vector([]float64{1, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("e", badWire); status(err) != http.StatusBadRequest {
		t.Errorf("layout mismatch: got %v, want 400", err)
	}
	if info, err := c.Stats("e"); err != nil || info.Records != 1 {
		t.Errorf("after rejected ingest: stats %+v, %v; want 1 record", info, err)
	}
	// Delete, then the session is gone.
	if err := c.Delete("e"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("e"); status(err) != http.StatusNotFound {
		t.Errorf("double delete: got %v, want 404", err)
	}
}

// TestIngestOverBodyCap: an ingest body past the request-body cap is
// refused with 413 before any record is decoded, and the session keeps
// its record count; a body under the cap still ingests.
func TestIngestOverBodyCap(t *testing.T) {
	_, c := startServer(t, server.Options{})
	wire, _, _ := testRecords(t, 40, 4, 29)
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "cap", Rule: testRule}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("cap", wire[:5]...); err != nil {
		t.Fatal(err)
	}
	one, err := json.Marshal(server.IngestRequest{Records: wire[5:6]})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(server.IngestRequest{Records: wire[6:]})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(2 * len(one))
	if int64(len(batch)) <= limit {
		t.Fatalf("batch body %d bytes does not exceed the %d-byte test cap", len(batch), limit)
	}
	defer server.SetMaxBodyBytes(limit)()

	if _, err := c.Ingest("cap", wire[6:]...); status(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap ingest: got %v, want 413", err)
	}
	if info, err := c.Stats("cap"); err != nil || info.Records != 5 {
		t.Fatalf("after over-cap ingest: stats %+v, %v; want 5 records", info, err)
	}
	if res, err := c.Ingest("cap", wire[5]); err != nil || res.Records != 6 {
		t.Fatalf("under-cap ingest: %+v, %v; want 6 records", res, err)
	}
}

func status(err error) int {
	if ae, ok := err.(*client.APIError); ok {
		return ae.Status
	}
	return 0
}

// TestShardedSession creates a session on the sharded engine and
// requires its top-k output to match a plain session's byte-for-byte,
// while point queries are refused (the sharded engine keeps no
// query index).
func TestShardedSession(t *testing.T) {
	_, c := startServer(t, server.Options{})
	wire, _, _ := testRecords(t, 60, 5, 13)

	plain, err := c.CreateSession(server.CreateSessionRequest{ID: "plain", Rule: testRule, K: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards != 0 {
		t.Errorf("plain session echoes shards = %d, want 0", plain.Shards)
	}
	sharded, err := c.CreateSession(server.CreateSessionRequest{ID: "sharded", Rule: testRule, K: 3, Seed: 11, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards != 4 {
		t.Errorf("sharded session echoes shards = %d, want 4", sharded.Shards)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "bad", Rule: testRule, Shards: -2}); err == nil {
		t.Error("negative shards accepted")
	}

	for _, id := range []string{"plain", "sharded"} {
		if _, err := c.Ingest(id, wire...); err != nil {
			t.Fatalf("%s: ingest: %v", id, err)
		}
	}
	want, err := c.TopK("plain", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.TopK("sharded", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kept != want.Kept || !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Errorf("sharded session top-k differs from plain session:\n  sharded: %+v\n  plain:   %+v", got, want)
	}

	// Point lookups are a single-engine feature; the sharded session
	// refuses them the way a never-clustered session does.
	if _, err := c.Query("sharded", server.QueryRequest{Fields: wire[0].Fields, M: 2}); err == nil {
		t.Error("point query against a sharded session succeeded, want an error")
	}
	if _, err := c.Query("plain", server.QueryRequest{Fields: wire[0].Fields, M: 2}); err != nil {
		t.Errorf("point query against the plain session: %v", err)
	}
}

// TestCreateSessionFamily covers the family switch of session
// creation: "oph" rewrites the rule's Jaccard leaves to the
// one-permutation family (echoed through the canonical rule string),
// the session stays fully functional, and unknown family names are
// rejected at creation time.
func TestCreateSessionFamily(t *testing.T) {
	_, c := startServer(t, server.Options{})
	info, err := c.CreateSession(server.CreateSessionRequest{ID: "oph", Rule: testRule, K: 3, Family: "oph"})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rule != "jaccard-oph@0 <= 0.4" {
		t.Errorf("session rule = %q, want the canonical jaccard-oph form", info.Rule)
	}
	wire, _, _ := testRecords(t, 40, 4, 7)
	if _, err := c.Ingest("oph", wire...); err != nil {
		t.Fatal(err)
	}
	res, err := c.TopK("oph", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) == 0 || res.Kept == 0 {
		t.Errorf("oph session returned no clusters (kept %d)", res.Kept)
	}
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "bad", Rule: testRule, K: 3, Family: "simhash"}); err == nil {
		t.Error("unknown family accepted at session creation")
	}
}
