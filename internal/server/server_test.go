package server_test

import (
	"encoding/json"
	"fmt"
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
	"github.com/topk-er/adalsh/internal/snapio"
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

// TestNegativeProbesRejected: a negative probe count is refused with
// 400 at the HTTP boundary. At creation no session is made. Per lookup
// the refusal comes before any lock, so a stale session's lookup
// neither re-clusters (hash_evals) nor freshens the index. Worker and
// shard counts outside 0..MaxSessionParallelism are refused at creation
// the same way.
func TestNegativeProbesRejected(t *testing.T) {
	srv, c := startServer(t, server.Options{})
	wire, _, _ := testRecords(t, 60, 4, 37)
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "neg", Rule: testRule, QueryProbes: -2}); status(err) != http.StatusBadRequest {
		t.Fatalf("create with query_probes -2: got %v, want 400", err)
	}
	if srv.Lookup("neg") != nil {
		t.Fatal("session created with query_probes -2")
	}
	for _, req := range []server.CreateSessionRequest{
		{ID: "w-neg", Rule: testRule, Workers: -1},
		{ID: "w-big", Rule: testRule, Workers: server.MaxSessionParallelism + 1},
		{ID: "s-big", Rule: testRule, Shards: server.MaxSessionParallelism + 1},
	} {
		if _, err := c.CreateSession(req); status(err) != http.StatusBadRequest {
			t.Fatalf("create with workers %d, shards %d: got %v, want 400", req.Workers, req.Shards, err)
		}
		if srv.Lookup(req.ID) != nil {
			t.Fatalf("session created with workers %d, shards %d", req.Workers, req.Shards)
		}
	}

	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "stale", Rule: testRule, K: 3, QueryRefresh: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("stale", wire[:40]...); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK("stale", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("stale", wire[40:]...); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats("stale")
	if err != nil {
		t.Fatal(err)
	}
	if before.QueryIndexFresh {
		t.Fatal("index fresh after 20 adds past a refresh threshold of 10")
	}
	if _, err := c.Query("stale", server.QueryRequest{Fields: wire[0].Fields, Probes: -1}); status(err) != http.StatusBadRequest {
		t.Fatalf("lookup with probes -1: got %v, want 400", err)
	}
	after, err := c.Stats("stale")
	if err != nil {
		t.Fatal(err)
	}
	if after.QueryIndexFresh || after.Counters["hash_evals"] != before.Counters["hash_evals"] {
		t.Fatalf("rejected lookup moved the session: index fresh %v, hash_evals %d -> %d",
			after.QueryIndexFresh, before.Counters["hash_evals"], after.Counters["hash_evals"])
	}
	// A valid lookup does rebuild: the session really was stale.
	if _, err := c.Query("stale", server.QueryRequest{Fields: wire[0].Fields}); err != nil {
		t.Fatal(err)
	}
	if rebuilt, err := c.Stats("stale"); err != nil || !rebuilt.QueryIndexFresh || rebuilt.Counters["hash_evals"] == before.Counters["hash_evals"] {
		t.Fatalf("valid lookup on the stale session: stats %+v, %v; want a rebuild", rebuilt, err)
	}
}

// TestWarmBootQueryProbes: warm boot makes a session's stored probe
// count its default on both lookup paths, and refuses a negative one.
func TestWarmBootQueryProbes(t *testing.T) {
	dir := t.TempDir()
	_, fields, truth := testRecords(t, 40, 4, 41)
	rule, err := rulespec.Parse(testRule)
	if err != nil {
		t.Fatal(err)
	}
	save := func(id string, probes int) {
		st := core.NewStream(rule, core.SequenceConfig{Seed: 5})
		for i := range fields {
			st.AddWithTruth(truth[i], fields[i]...)
		}
		if _, err := st.TopKClusters(3, 0); err != nil {
			t.Fatal(err)
		}
		st.SetQueryProbes(probes)
		if err := snapio.SaveFile(filepath.Join(dir, id+".snap"), st); err != nil {
			t.Fatal(err)
		}
	}

	save("one", 1)
	srv := server.New(server.Options{})
	if _, err := srv.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	s := srv.Lookup("one")
	// The restored index is rebuilt by the first lookup, on the
	// stream's path; the second reads it under the read lock.
	rebuilt, readOnly, err := s.Query(fields[0], 3, 0)
	if err != nil || readOnly {
		t.Fatalf("first lookup after warm boot: read-only %v, %v; want a rebuild", readOnly, err)
	}
	fresh, readOnly, err := s.Query(fields[0], 3, 0)
	if err != nil || !readOnly {
		t.Fatalf("second lookup after warm boot: read-only %v, %v", readOnly, err)
	}
	if rebuilt.Probes != fresh.Probes {
		t.Fatalf("stored probe count 1: rebuilding lookup made %d probes, read-only lookup %d", rebuilt.Probes, fresh.Probes)
	}

	save("neg", -2)
	srv2 := server.New(server.Options{})
	if _, err := srv2.LoadDir(dir); err == nil || srv2.Lookup("neg") != nil {
		t.Fatalf("warm boot of stored query_probes -2: err %v; want an error and no session", err)
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

// TestIngestRejectsMismatchedWidths: a vector whose dimension, or a
// fingerprint whose width, differs from the session's is refused with
// 400 at ingest, as a different field kind is, and the session keeps
// serving. Ingest used to compare kinds only, so a FuzzHandlers input
// ingested a 2-dimensional vector beside 4-dimensional ones and the
// next TopK panicked in the cosine metric.
func TestIngestRejectsMismatchedWidths(t *testing.T) {
	_, c := startServer(t, server.Options{})
	encode := func(f record.Field) server.WireRecord {
		t.Helper()
		wr, err := client.EncodeRecord(-1, f)
		if err != nil {
			t.Fatal(err)
		}
		return wr
	}
	for _, tc := range []struct {
		rule      string
		good, bad func(i int) record.Field
	}{
		{"cosine@0 <= 0.2",
			func(i int) record.Field { return record.Vector{1, float64(i % 3), 2, 0.5} },
			func(i int) record.Field { return record.Vector{1, 2} }},
		{"hamming@0 <= 0.3",
			func(i int) record.Field { return record.NewBits([]uint64{uint64(i % 3)}, 32) },
			func(i int) record.Field { return record.NewBits([]uint64{1}, 48) }},
	} {
		if _, err := c.CreateSession(server.CreateSessionRequest{ID: "w", Rule: tc.rule}); err != nil {
			t.Fatal(err)
		}
		var good []server.WireRecord
		for i := range 6 {
			good = append(good, encode(tc.good(i)))
		}
		if _, err := c.Ingest("w", good...); err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		if _, err := c.Ingest("w", encode(tc.bad(0))); status(err) != http.StatusBadRequest {
			t.Errorf("%s: width mismatch: got %v, want 400", tc.rule, err)
		}
		if res, err := c.TopK("w", 2, 0); err != nil || res.Records != 6 {
			t.Errorf("%s: topk after a refused ingest: %+v, %v; want 6 records", tc.rule, res, err)
		}
		if err := c.Delete("w"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestRejectsRecordsOutsideRule: a session's first record sets
// its layout, so it must carry every field the rule reads, in the kind
// the rule's metric measures; otherwise ingest refuses it with 400 and
// the session stays empty. A FuzzHandlers input ingested vectors into
// a Jaccard session, and the next TopK panicked calibrating the plan.
func TestIngestRejectsRecordsOutsideRule(t *testing.T) {
	_, c := startServer(t, server.Options{})
	if _, err := c.CreateSession(server.CreateSessionRequest{ID: "r", Rule: "and(jaccard@0 <= 0.4, cosine@1 <= 0.2)"}); err != nil {
		t.Fatal(err)
	}
	for _, fields := range [][]record.Field{
		{record.Vector{1, 2}, record.Vector{1, 2}},
		{record.NewSet([]uint64{1, 2})},
		{record.NewSet([]uint64{1, 2}), record.NewSet([]uint64{3})},
	} {
		wr, err := client.EncodeRecord(-1, fields...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest("r", wr); status(err) != http.StatusBadRequest {
			t.Errorf("%d-field record outside the rule: got %v, want 400", len(fields), err)
		}
	}
	if info, err := c.Stats("r"); err != nil || info.Records != 0 {
		t.Fatalf("after refused ingests: stats %+v, %v; want 0 records", info, err)
	}
	wr, err := client.EncodeRecord(-1, record.NewSet([]uint64{1, 2, 3}), record.Vector{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest("r", wr, wr, wr); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TopK("r", 1, 0); err != nil {
		t.Fatalf("topk over records that fit the rule: %v", err)
	}
}

// TestStatsMemoryAccounting: after a TopK, /stats reports the session's
// signature cache, scratch pool and query index at exactly their own
// MemBytes, the cache's uncompacted relocated prefixes at its
// DeadBytes, and a sharded session its shards' caches and pools
// summed.
func TestStatsMemoryAccounting(t *testing.T) {
	srv, c := startServer(t, server.Options{})
	wire, _, _ := testRecords(t, 60, 6, 41)
	for _, shards := range []int{0, 2} {
		id := fmt.Sprintf("mem%d", shards)
		if _, err := c.CreateSession(server.CreateSessionRequest{ID: id, Rule: testRule, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(id, wire...); err != nil {
			t.Fatal(err)
		}
		if _, err := c.TopK(id, 3, 0); err != nil {
			t.Fatal(err)
		}
		got, err := c.Stats(id)
		if err != nil {
			t.Fatal(err)
		}
		s := srv.Lookup(id)
		var cache, dead, pool, index int64
		if eng := server.SessionEngine(s); eng != nil {
			for _, sh := range eng.PerShard() {
				cache += sh.CacheBytes
				pool += sh.PoolBytes
			}
			for _, c := range eng.Caches() {
				dead += c.DeadBytes()
			}
		} else {
			st := server.SessionStream(s)
			cache, pool, index = st.Cache().MemBytes(), st.HashPool().MemBytes(), st.QueryIndex().MemBytes()
			dead = st.Cache().DeadBytes()
			if index == 0 {
				t.Errorf("%s: query index holds 0 bytes after a TopK", id)
			}
		}
		if got.CacheBytes != cache || got.PoolBytes != pool || got.QueryIndexBytes != index {
			t.Errorf("%s: stats cache/pool/index bytes %d/%d/%d, structures hold %d/%d/%d",
				id, got.CacheBytes, got.PoolBytes, got.QueryIndexBytes, cache, pool, index)
		}
		if got.CacheDeadBytes != dead || dead >= cache {
			t.Errorf("%s: stats cache_dead_bytes %d, caches hold %d dead of %d bytes", id, got.CacheDeadBytes, dead, cache)
		}
		if cache == 0 || pool == 0 {
			t.Errorf("%s: cache %d and pool %d bytes after a TopK, want both retained", id, cache, pool)
		}
	}
}
