package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
)

// This file implements the online point-query mode: "which entity is
// this record?" answered in microseconds against the bucket state a
// filtering run already built, instead of re-running the global
// Algorithm 1 loop. The index retains round 1's bucket tables — H_1 is
// the only round that hashes the *whole* dataset, so its buckets are
// the one place where every record is reachable — plus the cluster
// assignment the run emitted and the rule's match kernel prepared over
// every record. A query hashes the probe record under H_1, looks up a
// small multi-probe key sequence per table, verifies the bucket
// candidates with the kernel's probe form, and ranks the candidates'
// clusters. The filter loop is never re-entered: a query reports a
// StageQuery span and query counters, never StageHash or StagePairwise
// spans.

// DefaultQueryProbes is the per-table probe-key count used when
// QueryOptions.Probes is zero: the exact bucket plus one perturbed key
// (the lowest-penalty single flip of the table's base functions).
const DefaultQueryProbes = 2

// BucketTables holds a hashing call's bucket tables after the call
// returned, instead of recycling them into the HashPool: one table per
// hash table, mapping each bucket key to the record last inserted
// under it, as an index into the call's recs. The zero value holds no
// buckets. Lookup only reads, so concurrent lookups are safe.
type BucketTables struct {
	tables []*oaTable
}

// Lookup returns the record last inserted under key in table t.
func (b *BucketTables) Lookup(t int, key uint64) (int32, bool) {
	if b.tables == nil {
		return 0, false
	}
	return b.tables[t].lookup(key)
}

// Release recycles the tables into pool (a nil pool drops them) and
// empties the handle. Safe on an empty handle.
func (b *BucketTables) Release(pool *HashPool) {
	if b.tables != nil && pool != nil {
		pool.putTables(b.tables...)
	}
	*b = BucketTables{}
}

// BucketCapture retains one ApplyHashOpt invocation's bucket state for
// later point lookups: the bucket tables themselves plus, per table,
// each record's predecessor in its bucket — swap returns the previous
// occupant at insertion time, so keeping it reconstructs every
// bucket's full chain from the head the table stores. A QueryIndex
// rewrites its capture into bucket runs when the capture finishes (see
// toRuns); until then, and in any capture used on its own, the tables
// hold heads and prev holds chains.
type BucketCapture struct {
	BucketTables
	prev [][]int32 // prev[t][li]: li's bucket predecessor, -1 none
}

// begin prepares the capture for an invocation over numRecs records.
func (c *BucketCapture) begin(numTables, numRecs int) {
	c.BucketTables = BucketTables{}
	if cap(c.prev) < numTables {
		c.prev = make([][]int32, numTables)
	}
	c.prev = c.prev[:numTables]
	for t := range c.prev {
		if cap(c.prev[t]) < numRecs {
			c.prev[t] = make([]int32, numRecs)
		}
		c.prev[t] = c.prev[t][:numRecs]
		row := c.prev[t]
		for i := range row {
			row[i] = -1
		}
	}
}

// toRuns rewrites the capture's chains into bucket runs and returns
// them: runs[t] lists table t's records bucket by bucket, each bucket
// one contiguous run from its head down to its first member, which is
// stored complemented (^li < 0) to end the run, and every table slot
// is repointed from its bucket's head to the bucket's run start. The
// chains' memory becomes the runs' and prev is emptied.
//
// Per table it is a counting sort by bucket. One forward pass resolves
// each record's bucket root (the bucket's first member) as the root of
// its predecessor: every table is filled in ascending li order, so
// prev[t][li] < li and the predecessor's root is already known. For
// the same reason a bucket's head, its last insertion, is
// its largest member, so placing records in descending li order puts
// each head at its run's start and each root at its end.
func (c *BucketCapture) toRuns() [][]int32 {
	runs := c.prev
	c.prev = nil
	if len(runs) == 0 {
		return runs
	}
	n := len(runs[0])
	// next[r] is the next free position of root r's run; spare receives
	// a table's run while its chain array is still being read, and is
	// then recycled for the next table.
	next := make([]int32, n)
	spare := make([]int32, n)
	for t, root := range runs {
		clear(next)
		for li, p := range root {
			if p >= 0 {
				p = root[p]
			} else {
				p = int32(li)
			}
			root[li] = p
			next[p]++
		}
		var off int32
		for r, size := range next {
			next[r] = off
			off += size
		}
		// Place the records; root[li] becomes li's position in run.
		run := spare
		for li := int32(n - 1); li >= 0; li-- {
			r := root[li]
			pos := next[r]
			next[r]++
			if r == li {
				run[pos] = ^li
			} else {
				run[pos] = li
			}
			root[li] = pos
		}
		tab := c.tables[t]
		for i, st := range tab.stamp {
			if st == tab.epoch {
				tab.vals[i] = root[tab.vals[i]]
			}
		}
		runs[t], spare = run, root
	}
	return runs
}

// QueryIndex is the retained point-lookup index of one filtering run:
// round 1's bucket state plus the emitted cluster assignment. Filter /
// FilterIncremental populate it when Options.Capture points at one;
// Stream manages one automatically (see Stream.Query).
//
// A built index is safe for concurrent Query calls — queries only read
// the index, and each takes its scratch buffers from the index's pool
// — as long as no filtering run is concurrently rebuilding it and the
// underlying dataset is not concurrently mutated.
type QueryIndex struct {
	plan *Plan
	ds   *record.Dataset
	hf   *HashFunc
	// seeds[t] is hf's table t bucket-key seed (see tableSeeds).
	seeds []uint64
	// recs maps local bucket index li to dataset record ID. Round 1
	// hashes every record in ID order, so li == recs[li] and sorting
	// local indices sorts record IDs.
	recs []int32

	// buckets holds round 1's bucket tables: while the capture runs,
	// ApplyHashOpt's heads and chains; once it finishes, run starts
	// into runs (see BucketCapture.toRuns), the chains emptied.
	buckets BucketCapture
	// runs[t] holds table t's buckets as contiguous runs, so a lookup
	// scans a probed bucket instead of chasing its chain. The next
	// capture reuses its memory for the chains.
	runs [][]int32
	// kernel is the rule's match kernel over recs, prepared once when
	// the capture finishes: a lookup prepares only its probe record.
	kernel distance.PreparedRule

	// clusterOf[rec] is the emission ordinal of the cluster holding
	// dataset record rec (0 = largest emitted first), or -1 when the
	// run never emitted the record.
	clusterOf []int32
	clusters  []Cluster

	// scratch pools *queryScratch values, so a lookup allocates little
	// beyond its result.
	scratch sync.Pool

	built bool
}

// Built reports whether a filtering run has populated the index.
func (ix *QueryIndex) Built() bool { return ix != nil && ix.built }

// Clusters exposes the emitted clusters, in emission (largest-first)
// order. Read-only.
func (ix *QueryIndex) Clusters() []Cluster { return ix.clusters }

// MemBytes reports the index's retained memory: its bucket tables'
// key, value and stamp arrays, the bucket runs (the chains while a
// capture runs), the prepared kernel's per-record arrays, the captured
// record list and the cluster assignment. The records the kernel
// points at are the dataset's, and the emitted clusters the run
// result's.
func (ix *QueryIndex) MemBytes() int64 {
	if ix == nil {
		return 0
	}
	total := int64(len(ix.recs)+cap(ix.clusterOf)) * 4
	for _, t := range ix.buckets.tables {
		total += t.memBytes()
	}
	for _, run := range ix.runs {
		total += int64(cap(run)) * 4
	}
	for _, chain := range ix.buckets.prev {
		total += int64(cap(chain)) * 4
	}
	if ix.kernel != nil {
		total += ix.kernel.MemBytes()
	}
	return total
}

// Release recycles the index's retained bucket tables into pool and
// marks the index unbuilt. A filtering run that captures into the
// index afterwards rebuilds it from scratch.
func (ix *QueryIndex) Release(pool *HashPool) {
	if ix == nil {
		return
	}
	ix.buckets.Release(pool)
	ix.kernel = nil
	ix.built = false
}

// beginCapture binds the index to one filtering run's round-1
// invocation and returns the bucket capture for ApplyHashOpt to fill.
func (ix *QueryIndex) beginCapture(ds *record.Dataset, plan *Plan, recs []int32) *BucketCapture {
	ix.plan, ix.ds, ix.hf = plan, ds, plan.Funcs[0]
	ix.seeds = tableSeeds(ix.seeds, len(ix.hf.Tables))
	ix.recs = recs
	if cap(ix.clusterOf) < ds.Len() {
		ix.clusterOf = make([]int32, ds.Len())
	}
	ix.clusterOf = ix.clusterOf[:ds.Len()]
	for i := range ix.clusterOf {
		ix.clusterOf[i] = -1
	}
	ix.clusters = ix.clusters[:0]
	ix.built = false
	ix.buckets.prev, ix.runs = ix.runs, nil
	return &ix.buckets
}

// registerCluster records one emitted cluster under the next ordinal.
func (ix *QueryIndex) registerCluster(c Cluster) {
	ord := int32(len(ix.clusters))
	ix.clusters = append(ix.clusters, c)
	for _, rec := range c.Records {
		ix.clusterOf[rec] = ord
	}
}

// finish rewrites the captured chains into bucket runs, prepares the
// rule's kernel over the captured records and marks the capture
// complete.
func (ix *QueryIndex) finish() {
	ix.runs = ix.buckets.toRuns()
	ix.kernel = distance.Prepare(ix.ds, ix.plan.Rule, ix.recs)
	ix.built = true
}

// QueryOptions controls one point query.
type QueryOptions struct {
	// Probes is the number of bucket keys probed per table: the exact
	// bucket plus Probes-1 perturbed keys, in ascending perturbation
	// penalty (multi-probe LSH; see internal/lshfamily's MultiProber).
	// 0 means DefaultQueryProbes; 1 probes exact buckets only.
	Probes int
	// Obs, when non-nil, receives the query's StageQuery span and the
	// query_probes / query_candidates counters.
	Obs obs.Sink
}

// QueryMatch is one candidate cluster of a point query.
type QueryMatch struct {
	// Cluster is the cluster's emission ordinal in the filtering run
	// that built the index (0 = the largest cluster).
	Cluster int
	// Records holds the cluster's dataset record IDs (read-only view
	// into the index).
	Records []int32
	// Matched counts the cluster's bucket candidates that matched the
	// probe record under the rule (prepared-kernel verified).
	Matched int
	// Candidates counts the cluster's records pulled out of probed
	// buckets, matched or not.
	Candidates int
}

// Size reports the cluster's record count.
func (m *QueryMatch) Size() int { return len(m.Records) }

// QueryResult is the output of one point query.
type QueryResult struct {
	// Matches ranks the candidate clusters with at least one
	// rule-matched candidate: most matched candidates first, then most
	// bucket candidates, then emission ordinal (largest cluster
	// first). At most m entries; clusters whose bucket candidates all
	// failed verification are omitted.
	Matches []QueryMatch
	// Probes counts the bucket-key lookups performed (tables x probe
	// keys).
	Probes int
	// Candidates holds the distinct records pulled out of probed
	// buckets, ascending — the verification set.
	Candidates []int32
	// MatchedRecords holds the candidates that matched the probe
	// record under the rule, ascending.
	MatchedRecords []int32
	// Unclustered counts matched candidates outside every emitted
	// cluster (records the filtering run's top-k(hat) cut excluded).
	Unclustered int
}

// flipPos is one perturbable base-function position of a table, with
// the penalty of substituting its runner-up value.
type flipPos struct {
	hasher, fn int
	penalty    float64
}

// clusterTally counts one cluster's candidates during a lookup.
type clusterTally struct{ matched, candidates int32 }

// queryScratch holds one lookup's working buffers. Query takes it from
// the index's pool and returns it clean: the tallies zeroed, the
// visited set emptied by the next epoch.
type queryScratch struct {
	vals  [][]uint64             // per hasher: the probe's base hash values
	alts  [][]lshfamily.ProbeAlt // per hasher: their runner-up alternatives
	flips []flipPos
	// visited[li] == epoch marks local index li as a candidate of the
	// current lookup; bumping epoch empties the set in O(1).
	visited []uint32
	epoch   uint32
	cands   []int32 // the lookup's candidates, as local indices
	matched []int32 // the matched candidates' record IDs
	// tally[ord] counts cluster ord's candidates; touched lists the
	// ordinals with a non-zero tally, in first-touch order.
	tally   []clusterTally
	touched []int32
	matches []QueryMatch
}

// getScratch takes a scratch from the pool and sizes it to this build
// of the index.
func (ix *QueryIndex) getScratch() *queryScratch {
	sc, _ := ix.scratch.Get().(*queryScratch)
	if sc == nil {
		sc = &queryScratch{}
	}
	if len(sc.visited) < len(ix.recs) {
		sc.visited, sc.epoch = make([]uint32, len(ix.recs)), 0
	}
	sc.epoch++
	if sc.epoch == 0 {
		// Wrapped: stale stamps could equal the new epoch.
		clear(sc.visited)
		sc.epoch = 1
	}
	if len(sc.tally) < len(ix.clusters) {
		sc.tally = make([]clusterTally, len(ix.clusters))
	}
	n := len(ix.plan.Hashers)
	if len(sc.vals) < n {
		sc.vals, sc.alts = make([][]uint64, n), make([][]lshfamily.ProbeAlt, n)
	}
	for h, fns := range ix.hf.FuncsPerHasher {
		if cap(sc.vals[h]) < fns {
			sc.vals[h], sc.alts[h] = make([]uint64, fns), make([]lshfamily.ProbeAlt, fns)
		}
		sc.vals[h], sc.alts[h] = sc.vals[h][:fns], sc.alts[h][:fns]
	}
	sc.cands, sc.matched, sc.touched = sc.cands[:0], sc.matched[:0], sc.touched[:0]
	return sc
}

// compareFlips orders perturbations by ascending penalty, then hasher,
// then function.
func compareFlips(a, b flipPos) int {
	if c := cmp.Compare(a.penalty, b.penalty); c != 0 {
		return c
	}
	if c := cmp.Compare(a.hasher, b.hasher); c != 0 {
		return c
	}
	return cmp.Compare(a.fn, b.fn)
}

// compareMatches ranks clusters as QueryResult.Matches documents.
func compareMatches(a, b QueryMatch) int {
	if c := cmp.Compare(b.Matched, a.Matched); c != 0 {
		return c
	}
	if c := cmp.Compare(b.Candidates, a.Candidates); c != 0 {
		return c
	}
	return cmp.Compare(a.Cluster, b.Cluster)
}

// Query answers one point lookup: hash the probe record under H_1,
// probe each table's multi-probe key sequence, verify the bucket
// candidates against the rule with the index's prepared kernel, and
// rank the candidates' clusters. Returns at most m clusters. The global
// filtering loop is never invoked.
func (ix *QueryIndex) Query(q *record.Record, m int, opts QueryOptions) (*QueryResult, error) {
	if !ix.Built() {
		return nil, fmt.Errorf("core: query index not built (run a capturing filter first)")
	}
	if m < 1 {
		return nil, fmt.Errorf("core: query m = %d, want >= 1", m)
	}
	probes := opts.Probes
	if probes == 0 {
		probes = DefaultQueryProbes
	}
	if probes < 1 {
		return nil, fmt.Errorf("core: query probes = %d, want >= 1", probes)
	}
	if err := ix.plan.CompatibleWithRecord(q); err != nil {
		return nil, err
	}
	qt := obs.StartStage(opts.Obs, obs.StageQuery)
	sc := ix.getScratch()

	// Base hash values and runner-up alternatives of every base
	// function H_1 uses, per hasher.
	hf := ix.hf
	vals, alts := sc.vals, sc.alts
	for h, n := range hf.FuncsPerHasher {
		if n == 0 {
			continue
		}
		lshfamily.HashRange(ix.plan.Hashers[h], 0, n, q, vals[h])
		lshfamily.ProbeRange(ix.plan.Hashers[h], 0, n, q, alts[h])
	}

	// keyFor folds table t's bucket key with the hash stage's
	// bucketKey, optionally substituting one base function's runner-up
	// value (the single-flip perturbation) for the duration of the
	// fold.
	keyFor := func(t int, flipHasher, flipFn int) uint64 {
		if flipHasher < 0 {
			return bucketKey(ix.seeds[t], hf.Tables[t].Parts, vals)
		}
		v := &vals[flipHasher][flipFn]
		orig := *v
		*v = alts[flipHasher][flipFn].Alt
		key := bucketKey(ix.seeds[t], hf.Tables[t].Parts, vals)
		*v = orig
		return key
	}

	probesDone := 0
	probe := func(t int, key uint64) {
		probesDone++
		i, ok := ix.buckets.Lookup(t, key)
		if !ok {
			return
		}
		run := ix.runs[t]
		for ; ; i++ {
			li := run[i]
			last := li < 0
			if last {
				li = ^li
			}
			if sc.visited[li] != sc.epoch {
				sc.visited[li] = sc.epoch
				sc.cands = append(sc.cands, li)
			}
			if last {
				return
			}
		}
	}
	for t := range hf.Tables {
		probe(t, keyFor(t, -1, -1))
		if probes == 1 {
			continue
		}
		// Perturbed keys: single flips in ascending penalty order.
		flips := sc.flips[:0]
		for _, part := range hf.Tables[t].Parts {
			for fn := part.Start; fn < part.Start+part.Count; fn++ {
				if a := alts[part.Hasher][fn]; !math.IsInf(a.Penalty, 1) {
					flips = append(flips, flipPos{part.Hasher, fn, a.Penalty})
				}
			}
		}
		slices.SortFunc(flips, compareFlips)
		sc.flips = flips
		if len(flips) > probes-1 {
			flips = flips[:probes-1]
		}
		for _, f := range flips {
			probe(t, keyFor(t, f.hasher, f.fn))
		}
	}
	slices.Sort(sc.cands)

	// Verify every candidate against the probe record with the kernel's
	// probe form — decisions identical to Rule.Match, at kernel cost —
	// and tally the candidates' clusters.
	res := &QueryResult{Probes: probesDone}
	if len(sc.cands) > 0 {
		res.Candidates = make([]int32, len(sc.cands))
		match := ix.kernel.Probe(q)
		for i, li := range sc.cands {
			rc := ix.recs[li]
			res.Candidates[i] = rc
			matched := match(int(li))
			if matched {
				sc.matched = append(sc.matched, rc)
			}
			ord := ix.clusterOf[rc]
			if ord < 0 {
				if matched {
					res.Unclustered++
				}
				continue
			}
			tl := &sc.tally[ord]
			if tl.candidates == 0 {
				sc.touched = append(sc.touched, ord)
			}
			tl.candidates++
			if matched {
				tl.matched++
			}
		}
	}
	if len(sc.matched) > 0 {
		res.MatchedRecords = slices.Clone(sc.matched)
	}
	matches := sc.matches[:0]
	for _, ord := range sc.touched {
		tl := sc.tally[ord]
		sc.tally[ord] = clusterTally{}
		if tl.matched == 0 {
			// Bucket collisions the rule rejected: not a match.
			continue
		}
		matches = append(matches, QueryMatch{
			Cluster: int(ord), Records: ix.clusters[ord].Records,
			Matched: int(tl.matched), Candidates: int(tl.candidates),
		})
	}
	if len(matches) > 0 {
		slices.SortFunc(matches, compareMatches)
		res.Matches = slices.Clone(matches[:min(m, len(matches))])
		clear(matches) // drop the cluster views until the next lookup
	}
	sc.matches = matches[:0]
	ix.scratch.Put(sc)

	obs.Count(opts.Obs, obs.CtrQueryProbes, int64(probesDone))
	obs.Count(opts.Obs, obs.CtrQueryCandidates, int64(len(res.Candidates)))
	qt.Items = len(res.Candidates)
	qt.End()
	return res, nil
}
