package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// captureFilter runs Filter with a point-query capture and returns
// both the result and the populated index.
func captureFilter(t *testing.T, ds *record.Dataset, plan *core.Plan, opts core.Options) (*core.Result, *core.QueryIndex) {
	t.Helper()
	ix := &core.QueryIndex{}
	opts.Capture = ix
	res, err := core.Filter(ds, plan, opts)
	if err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if !ix.Built() {
		t.Fatal("capture did not build the query index")
	}
	return res, ix
}

// TestQueryFindsOwnCluster probes the index with records the filtering
// run itself clustered: the record's own cluster must come back as the
// top match (the record collides with itself in every table, and the
// prepared kernel verifies reflexively).
func TestQueryFindsOwnCluster(t *testing.T) {
	ds := clusteredSetDataset(t, []int{40, 25, 12, 6, 4}, 7)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 11})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}
	res, ix := captureFilter(t, ds, plan, core.Options{K: 3})
	for ord, c := range res.Clusters {
		for _, rec := range c.Records {
			got, err := ix.Query(&ds.Records[rec], 1, core.QueryOptions{})
			if err != nil {
				t.Fatalf("Query(rec %d): %v", rec, err)
			}
			if len(got.Matches) == 0 {
				t.Fatalf("record %d (cluster %d): no matches", rec, ord)
			}
			if got.Matches[0].Cluster != ord {
				t.Fatalf("record %d: top match cluster %d, want %d", rec, got.Matches[0].Cluster, ord)
			}
			if got.Matches[0].Matched == 0 {
				t.Fatalf("record %d: top match has zero verified candidates", rec)
			}
		}
	}
}

// TestQueryDifferentialAcrossPaths pins the capture's correctness on
// every worker count: tables filled on one goroutine and by parallel
// table workers must yield identical query results for every record.
func TestQueryDifferentialAcrossPaths(t *testing.T) {
	defer core.SetParallelHashThreshold(1)()
	ds := clusteredSetDataset(t, []int{30, 20, 10, 5, 3, 2}, 19)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"serial", core.Options{K: 3, Workers: 1}},
		{"parallel", core.Options{K: 3, Workers: 4, PairwiseMinPairs: 1 << 62}},
	}
	type answer struct {
		cands   []int32
		matched []int32
		top     int
	}
	var baseline []answer
	for vi, v := range variants {
		_, ix := captureFilter(t, ds, plan, v.opts)
		var answers []answer
		for rec := 0; rec < ds.Len(); rec++ {
			got, err := ix.Query(&ds.Records[rec], 2, core.QueryOptions{Probes: 2})
			if err != nil {
				t.Fatalf("%s: Query(%d): %v", v.name, rec, err)
			}
			top := -1
			if len(got.Matches) > 0 {
				top = got.Matches[0].Cluster
			}
			answers = append(answers, answer{got.Candidates, got.MatchedRecords, top})
		}
		if vi == 0 {
			baseline = answers
			continue
		}
		for rec := range answers {
			if !equalInt32(answers[rec].cands, baseline[rec].cands) {
				t.Fatalf("%s: record %d candidates %v, serial %v", v.name, rec, answers[rec].cands, baseline[rec].cands)
			}
			if !equalInt32(answers[rec].matched, baseline[rec].matched) {
				t.Fatalf("%s: record %d matched %v, serial %v", v.name, rec, answers[rec].matched, baseline[rec].matched)
			}
			if answers[rec].top != baseline[rec].top {
				t.Fatalf("%s: record %d top cluster %d, serial %d", v.name, rec, answers[rec].top, baseline[rec].top)
			}
		}
	}
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQuerySubsetOfFilterOutput: every matched candidate of a query
// probing a clustered record must belong to the full run's output set
// union that record's bucket neighborhood — in particular, matched
// candidates assigned to a cluster are exactly members of that
// cluster in the full clustering.
func TestQuerySubsetOfFilterOutput(t *testing.T) {
	ds := clusteredSetDataset(t, []int{35, 22, 11, 4}, 23)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}
	res, ix := captureFilter(t, ds, plan, core.Options{K: 4})
	inCluster := make(map[int32]int)
	for ord, c := range res.Clusters {
		for _, rec := range c.Records {
			inCluster[rec] = ord
		}
	}
	for rec := 0; rec < ds.Len(); rec++ {
		got, err := ix.Query(&ds.Records[rec], 4, core.QueryOptions{})
		if err != nil {
			t.Fatalf("Query(%d): %v", rec, err)
		}
		for _, mt := range got.Matches {
			// Every per-cluster candidate count must be coverable by the
			// cluster's actual membership.
			if mt.Candidates > mt.Size() {
				t.Fatalf("record %d: cluster %d reports %d candidates of a size-%d cluster", rec, mt.Cluster, mt.Candidates, mt.Size())
			}
			member := make(map[int32]bool, mt.Size())
			for _, r := range mt.Records {
				member[r] = true
			}
			for _, r := range mt.Records {
				if inCluster[r] != mt.Cluster {
					t.Fatalf("record %d: match cluster %d holds record %d of cluster %d", rec, mt.Cluster, r, inCluster[r])
				}
			}
		}
	}
}

// andMinHashPlan hand-builds a one-function plan whose z tables AND w
// MinHash functions each. Designed plans for a plain Jaccard rule use
// w = 1 tables whose exact-bucket recall is already ~1, leaving
// multi-probe nothing to recover — AND-composed tables (w > 1) are
// where near-miss buckets actually occur.
func andMinHashPlan(rule distance.Rule, w, z int, seed uint64) *core.Plan {
	hf := &core.HashFunc{Seq: 1, Budget: w * z, Label: "test", FuncsPerHasher: []int{w * z}}
	for t := 0; t < z; t++ {
		hf.Tables = append(hf.Tables, core.Table{Parts: []core.TablePart{{Hasher: 0, Start: t * w, Count: w}}})
	}
	return &core.Plan{
		Rule:        rule,
		Hashers:     []lshfamily.Hasher{lshfamily.NewMinHash(0, w*z, seed)},
		HasherDescs: []lshfamily.Desc{{Kind: lshfamily.KindMinHash, Field: 0, MaxFuncs: w * z, Seed: seed}},
		Funcs:       []*core.HashFunc{hf},
		Cost:        core.CostModel{CostFunc: []float64{1}, CostP: 1},
	}
}

// TestQueryMultiProbeSuperset: the probe sequence grows monotonically,
// so a higher probe count can only widen the candidate set — and on an
// AND-composed scheme probing noisy records, it must actually recover
// near-miss buckets (the recall-vs-probes trade multi-probe LSH buys).
func TestQueryMultiProbeSuperset(t *testing.T) {
	ds := clusteredSetDataset(t, []int{25, 15, 8, 4}, 31)
	plan := andMinHashPlan(jaccardRule(), 3, 5, 41)
	if err := plan.Validate(); err != nil {
		t.Fatalf("hand-built plan invalid: %v", err)
	}
	_, ix := captureFilter(t, ds, plan, core.Options{K: 4})
	rng := xhash.NewRNG(99)
	widened := false
	recovered := map[int]int{} // probes -> total candidates
	sweep := []int{1, 2, 4, 8}
	for rec := 0; rec < ds.Len(); rec++ {
		// A noisy half-overlap probe: exact buckets miss often.
		s := ds.Records[rec].Fields[0].(record.Set)
		elems := make([]uint64, 0, len(s))
		for _, e := range s {
			if rng.Float64() < 0.6 {
				elems = append(elems, e)
			}
		}
		probe := record.Record{Fields: []record.Field{record.NewSet(elems)}}
		var prevCands map[int32]bool
		for _, probes := range sweep {
			got, err := ix.Query(&probe, 3, core.QueryOptions{Probes: probes})
			if err != nil {
				t.Fatalf("Query(%d, probes=%d): %v", rec, probes, err)
			}
			cands := make(map[int32]bool, len(got.Candidates))
			for _, c := range got.Candidates {
				cands[c] = true
			}
			recovered[probes] += len(cands)
			if prevCands != nil {
				for c := range prevCands {
					if !cands[c] {
						t.Fatalf("record %d: candidate %d present at fewer probes, lost at probes=%d", rec, c, probes)
					}
				}
				if len(cands) > len(prevCands) {
					widened = true
				}
			}
			prevCands = cands
		}
	}
	if !widened {
		t.Error("multi-probe never widened any candidate set (perturbations inert?)")
	}
	for i := 1; i < len(sweep); i++ {
		if recovered[sweep[i]] < recovered[sweep[i-1]] {
			t.Fatalf("candidate totals not monotone over probes: %v", recovered)
		}
	}
	t.Logf("recall sweep (total candidates): %v", recovered)
}

// TestStreamQueryNoFullPass is the acceptance check of the online
// mode: after the index is built, queries emit only StageQuery spans —
// zero StageHash / StagePairwise spans — and bump the query counters.
func TestStreamQueryNoFullPass(t *testing.T) {
	rng := xhash.NewRNG(3)
	bases := make([][]uint64, 4)
	for i := range bases {
		bases[i] = make([]uint64, 50)
		for j := range bases[i] {
			bases[i][j] = rng.Uint64()
		}
	}
	s := core.NewStream(jaccardRule(), core.SequenceConfig{Seed: 7})
	col := obs.NewCollector()
	s.SetObs(col)
	for i := 0; i < 12; i++ {
		s.AddWithTruth(0, streamEntity(rng, bases[0]))
	}
	for i := 0; i < 6; i++ {
		s.AddWithTruth(1, streamEntity(rng, bases[1]))
	}
	if _, err := s.TopK(2); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	const queries = 20
	for q := 0; q < queries; q++ {
		probe := record.Record{Fields: []record.Field{streamEntity(rng, bases[q%2])}}
		got, err := s.Query(&probe, 1)
		if err != nil {
			t.Fatalf("Query %d: %v", q, err)
		}
		if len(got.Matches) == 0 || got.Matches[0].Matched == 0 {
			t.Fatalf("query %d: no verified match for an in-distribution probe", q)
		}
		if got.Matches[0].Cluster != q%2 {
			t.Fatalf("query %d: top cluster %d, want %d", q, got.Matches[0].Cluster, q%2)
		}
	}
	for _, stage := range []obs.Stage{obs.StageHash, obs.StagePairwise, obs.StageFilter, obs.StageStream} {
		if _, _, n := col.StageAgg(stage); n != 0 {
			t.Fatalf("queries emitted %d %v spans, want 0 (full pass ran)", n, stage)
		}
	}
	if _, _, n := col.StageAgg(obs.StageQuery); n != queries {
		t.Fatalf("got %d query spans, want %d", n, queries)
	}
	if p := col.Counter(obs.CtrQueryProbes); p == 0 {
		t.Error("query_probes counter did not move")
	}
	if c := col.Counter(obs.CtrQueryCandidates); c == 0 {
		t.Error("query_candidates counter did not move")
	}
}

// TestStreamQueryRebuildsWhenStale: records added after the build are
// invisible until the refresh threshold, then a rebuild makes them
// reachable.
func TestStreamQueryRebuildsWhenStale(t *testing.T) {
	rng := xhash.NewRNG(17)
	base0 := make([]uint64, 50)
	base1 := make([]uint64, 50)
	for j := range base0 {
		base0[j], base1[j] = rng.Uint64(), rng.Uint64()
	}
	s := core.NewStream(jaccardRule(), core.SequenceConfig{Seed: 7})
	for i := 0; i < 10; i++ {
		s.AddWithTruth(0, streamEntity(rng, base0))
	}
	if _, err := s.TopK(1); err != nil {
		t.Fatal(err)
	}
	s.SetQueryRefresh(5)
	// 4 adds: below the threshold — entity 1 is invisible to queries.
	for i := 0; i < 4; i++ {
		s.AddWithTruth(1, streamEntity(rng, base1))
	}
	probe := record.Record{Fields: []record.Field{streamEntity(rng, base1)}}
	got, err := s.Query(&probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MatchedRecords) != 0 {
		t.Fatalf("stale index matched new-entity records %v before refresh", got.MatchedRecords)
	}
	// One more add crosses the threshold: the rebuild (k=1 replayed)
	// re-indexes every record, so entity 1's records become reachable
	// bucket candidates even outside the emitted top-1.
	s.AddWithTruth(1, streamEntity(rng, base1))
	got, err = s.Query(&probe, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.MatchedRecords) == 0 {
		t.Fatal("rebuilt index still cannot see the new entity's records")
	}
	if got.Unclustered == 0 {
		t.Error("new entity should be outside the emitted top-1 (unclustered)")
	}
}

// TestStreamQueryConcurrent exercises query-after-add under the race
// detector: batches of adds and rebuilds alternate with bursts of
// concurrent queries against the fresh index.
func TestStreamQueryConcurrent(t *testing.T) {
	rng := xhash.NewRNG(29)
	bases := make([][]uint64, 2)
	for i := range bases {
		bases[i] = make([]uint64, 50)
		for j := range bases[i] {
			bases[i][j] = rng.Uint64()
		}
	}
	s := core.NewStream(jaccardRule(), core.SequenceConfig{Seed: 7})
	s.SetQueryRefresh(-1) // queries never mutate the stream
	probes := make([]record.Record, 8)
	for i := range probes {
		probes[i] = record.Record{Fields: []record.Field{streamEntity(rng, bases[i%2])}}
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			s.AddWithTruth(i%2, streamEntity(rng, bases[i%2]))
		}
		if _, err := s.TopK(2); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 16; i++ {
					if _, err := s.Query(&probes[(g*16+i)%len(probes)], 2); err != nil {
						t.Errorf("concurrent query: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestQueryIndexConcurrent: lookups share the index's prepared kernel
// and its pool of scratch buffers. Several goroutines query one index
// over every record, each in its own order, and every answer must equal
// the serial answer — so no lookup sees another's candidates, tallies
// or visited marks, and no result aliases a pooled buffer. Run it under
// -race.
func TestQueryIndexConcurrent(t *testing.T) {
	ds := clusteredSetDataset(t, []int{30, 20, 12, 6, 3}, 37)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 9})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}
	_, ix := captureFilter(t, ds, plan, core.Options{K: 3})
	opts := core.QueryOptions{Probes: 2}
	want := make([]*core.QueryResult, ds.Len())
	for rec := range want {
		if want[rec], err = ix.Query(&ds.Records[rec], 2, opts); err != nil {
			t.Fatalf("Query(%d): %v", rec, err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(order []int) {
			defer wg.Done()
			for _, rec := range order {
				got, err := ix.Query(&ds.Records[rec], 2, opts)
				if err != nil {
					t.Errorf("concurrent Query(%d): %v", rec, err)
					return
				}
				if !reflect.DeepEqual(got, want[rec]) {
					t.Errorf("concurrent Query(%d) = %+v, serial %+v", rec, got, want[rec])
					return
				}
			}
		}(xhash.NewRNG(uint64(g)).Perm(ds.Len()))
	}
	wg.Wait()
}

// builtAtFilterSpan is a sink that records, for each StageFilter span
// it receives, whether the run's query index was already built.
type builtAtFilterSpan struct {
	ix    *core.QueryIndex
	built []bool
}

func (s *builtAtFilterSpan) Count(obs.Counter, int64) {}

func (s *builtAtFilterSpan) Span(sp obs.Span) {
	if sp.Stage == obs.StageFilter {
		s.built = append(s.built, s.ix.Built())
	}
}

// TestCaptureFinishesInsideFilterSpan: finishing a capture (bucket runs,
// kernel prepare) is work of the filtering run, so the index is built
// before the run's StageFilter span ends and Stats.Elapsed covers it.
func TestCaptureFinishesInsideFilterSpan(t *testing.T) {
	ds := clusteredSetDataset(t, []int{20, 12, 6, 3}, 43)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}
	ix := &core.QueryIndex{}
	sink := &builtAtFilterSpan{ix: ix}
	for run := 0; run < 2; run++ {
		if _, err := core.Filter(ds, plan, core.Options{K: 2, Capture: ix, Obs: sink}); err != nil {
			t.Fatalf("Filter: %v", err)
		}
	}
	if want := []bool{true, true}; !reflect.DeepEqual(sink.built, want) {
		t.Fatalf("index built at each filter span: %v, want %v", sink.built, want)
	}
}

// TestQueryValidation: the new entry points reject invalid arguments
// with clear errors instead of undefined downstream behavior.
func TestQueryValidation(t *testing.T) {
	ds := clusteredSetDataset(t, []int{10, 5}, 41)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatalf("DesignPlan: %v", err)
	}

	// Unbuilt index refuses queries.
	unbuilt := &core.QueryIndex{}
	if _, err := unbuilt.Query(&ds.Records[0], 1, core.QueryOptions{}); err == nil {
		t.Error("unbuilt index accepted a query")
	}

	_, ix := captureFilter(t, ds, plan, core.Options{K: 1})
	if _, err := ix.Query(&ds.Records[0], 0, core.QueryOptions{}); err == nil {
		t.Error("m = 0 accepted")
	}
	if _, err := ix.Query(&ds.Records[0], -3, core.QueryOptions{}); err == nil {
		t.Error("m = -3 accepted")
	}
	if _, err := ix.Query(&ds.Records[0], 1, core.QueryOptions{Probes: -1}); err == nil {
		t.Error("probes = -1 accepted")
	}
	// Probe record with the wrong layout is rejected before hashing.
	bad := record.Record{Fields: []record.Field{record.Vector{1, 2}}}
	if _, err := ix.Query(&bad, 1, core.QueryOptions{}); err == nil {
		t.Error("layout-incompatible probe record accepted")
	}

	// Filter-level guards.
	if err := core.FilterIncremental(ds, plan, core.Options{K: 1, ReturnClusters: -1},
		func(core.Cluster) bool { return true }, nil); err == nil {
		t.Error("Filter accepted ReturnClusters < 0")
	}

	// Stream-level guards.
	s := core.NewStream(jaccardRule(), core.SequenceConfig{Seed: 7})
	s.Add(ds.Records[0].Fields...)
	if _, err := s.TopK(0); err == nil {
		t.Error("stream accepted k = 0")
	}
	if _, err := s.TopKClusters(1, -2); err == nil {
		t.Error("stream accepted returnClusters = -2")
	}
	if _, err := s.Query(&ds.Records[0], 0); err == nil {
		t.Error("stream accepted query m = 0")
	}
	if _, err := s.Query(&ds.Records[0], 1); err == nil {
		t.Error("stream accepted a query before any TopK run")
	}
}

// TestStreamSpanEndsOnError: TopKClusters must end its StageStream
// span on the ensurePlan error path, marked as errored, so
// span-pairing sinks stay balanced. The opaque rule wrapper (see
// pairwise_kernel_test.go) hides the rule's concrete type from
// DesignPlan, which therefore fails after the span has started.
func TestStreamSpanEndsOnError(t *testing.T) {
	var buf bytes.Buffer
	col := obs.NewCollector()
	s := core.NewStream(opaqueRule{jaccardRule()}, core.SequenceConfig{Seed: 7})
	s.SetObs(obs.Tee(col, obs.NewJSONL(&buf)))
	s.Add(record.NewSet([]uint64{1, 2, 3}))
	if _, err := s.TopK(1); err == nil {
		t.Fatal("opaque rule did not fail plan design")
	}
	spans := col.Spans()
	if len(spans) != 1 || spans[0].Stage != obs.StageStream {
		t.Fatalf("got spans %+v, want exactly one stream span", spans)
	}
	if !spans[0].Errored {
		t.Error("error-path stream span not marked Errored")
	}
	// The JSONL sink must carry the marker on the wire.
	line := strings.TrimSpace(buf.String())
	var ev map[string]any
	if err := json.Unmarshal([]byte(line), &ev); err != nil {
		t.Fatalf("bad JSONL line %q: %v", line, err)
	}
	if ev["type"] != "span" || ev["stage"] != "stream" || ev["error"] != true {
		t.Fatalf("JSONL event %v, want an errored stream span", ev)
	}

	// Validation failures before the span starts leave no span at all:
	// k < 1 is rejected up front.
	col.Reset()
	if _, err := s.TopK(0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if n := len(col.Spans()); n != 0 {
		t.Fatalf("k-validation failure emitted %d spans, want 0", n)
	}
}

// TestSetReplanGrowthNormalizes: NaN and other out-of-range inputs
// reset to the default instead of disabling re-planning.
func TestSetReplanGrowthNormalizes(t *testing.T) {
	s := core.NewStream(jaccardRule(), core.SequenceConfig{Seed: 7})
	cases := []struct {
		in   float64
		want float64
	}{
		{math.NaN(), 2},
		{-1, 2},
		{0, 2},
		{1, 2},
		{1.5, 1.5},
		{3, 3},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 2},
	}
	for _, c := range cases {
		s.SetReplanGrowth(c.in)
		if got := s.EffReplanGrowth(); got != c.want {
			t.Errorf("SetReplanGrowth(%v): effective factor %v, want %v", c.in, got, c.want)
		}
	}
}
