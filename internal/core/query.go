package core

import (
	"fmt"
	"math"
	"sort"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// This file implements the online point-query mode: "which entity is
// this record?" answered in microseconds against the bucket state a
// filtering run already built, instead of re-running the global
// Algorithm 1 loop. The index retains round 1's bucket tables — H_1 is
// the only round that hashes the *whole* dataset, so its buckets are
// the one place where every record is reachable — plus the cluster
// assignment the run emitted. A query hashes the probe record under
// H_1, looks up a small multi-probe key sequence per table, verifies
// the bucket candidates with a prepared match kernel, and ranks the
// candidates' clusters. The filter loop is never re-entered: a query
// reports a StageQuery span and query counters, never StageHash or
// StagePairwise spans.

// DefaultQueryProbes is the per-table probe-key count used when
// QueryOptions.Probes is zero: the exact bucket plus one perturbed key
// (the lowest-penalty single flip of the table's base functions).
const DefaultQueryProbes = 2

// BucketTables holds a hashing call's bucket tables after the call
// returned, instead of recycling them into the HashPool: per table,
// each bucket key maps to the record last inserted under it, as an
// index into the call's recs. The layout mirrors the call that filled
// it: shards*numTables tables (serial calls have one shard), with
// bucket keys routed to shard keyShard(key, shards) exactly as the
// sharded insertion stage routed them. The zero value holds no
// buckets. Lookup only reads, so concurrent lookups are safe.
type BucketTables struct {
	shards    int
	numTables int
	tables    []*oaTable
}

// Lookup returns the record last inserted under key in table t.
func (b *BucketTables) Lookup(t int, key uint64) (int32, bool) {
	if b.tables == nil {
		return 0, false
	}
	if b.shards > 1 {
		t += keyShard(key, b.shards) * b.numTables
	}
	return b.tables[t].lookup(key)
}

// Release recycles the tables into pool (a nil pool drops them) and
// empties the handle. Safe on an empty handle.
func (b *BucketTables) Release(pool *HashPool) {
	if b.tables != nil && pool != nil {
		pool.putTables(b.tables)
	}
	*b = BucketTables{}
}

// BucketCapture retains one ApplyHashOpt invocation's bucket state for
// later point lookups: the bucket tables themselves plus, per table,
// each record's predecessor in its bucket — swap returns the previous
// occupant at insertion time, so keeping it reconstructs every
// bucket's full chain from the head the table stores.
type BucketCapture struct {
	BucketTables
	prev [][]int32 // prev[t][li]: li's bucket predecessor, -1 none
}

// begin prepares the capture for an invocation over numRecs records.
func (c *BucketCapture) begin(numTables, numRecs int) {
	c.BucketTables = BucketTables{shards: 1, numTables: numTables}
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

// QueryIndex is the retained point-lookup index of one filtering run:
// round 1's bucket state plus the emitted cluster assignment. Filter /
// FilterIncremental populate it when Options.Capture points at one;
// Stream manages one automatically (see Stream.Query).
//
// A built index is safe for concurrent Query calls — queries only read
// the index and allocate per-call scratch — as long as no filtering
// run is concurrently rebuilding it and the underlying dataset is not
// concurrently mutated.
type QueryIndex struct {
	plan *Plan
	ds   *record.Dataset
	hf   *HashFunc
	recs []int32 // local bucket index li -> dataset record ID

	buckets BucketCapture

	// clusterOf[rec] is the emission ordinal of the cluster holding
	// dataset record rec (0 = largest emitted first), or -1 when the
	// run never emitted the record.
	clusterOf []int32
	clusters  []Cluster

	built bool
}

// Built reports whether a filtering run has populated the index.
func (ix *QueryIndex) Built() bool { return ix != nil && ix.built }

// Clusters exposes the emitted clusters, in emission (largest-first)
// order. Read-only.
func (ix *QueryIndex) Clusters() []Cluster { return ix.clusters }

// Release recycles the index's retained bucket tables into pool and
// marks the index unbuilt. A filtering run that captures into the
// index afterwards rebuilds it from scratch.
func (ix *QueryIndex) Release(pool *HashPool) {
	if ix == nil {
		return
	}
	ix.buckets.Release(pool)
	ix.built = false
}

// beginCapture binds the index to one filtering run's round-1
// invocation and returns the bucket capture for ApplyHashOpt to fill.
func (ix *QueryIndex) beginCapture(ds *record.Dataset, plan *Plan, recs []int32) *BucketCapture {
	ix.plan, ix.ds, ix.hf = plan, ds, plan.Funcs[0]
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

// finish marks the capture complete.
func (ix *QueryIndex) finish() { ix.built = true }

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

// Query answers one point lookup: hash the probe record under H_1,
// probe each table's multi-probe key sequence, verify the bucket
// candidates against the rule with a prepared match kernel, and rank
// the candidates' clusters. Returns at most m clusters. The global
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

	// Base hash values and runner-up alternatives of every base
	// function H_1 uses, per hasher.
	hf := ix.hf
	vals := make([][]uint64, len(ix.plan.Hashers))
	alts := make([][]lshfamily.ProbeAlt, len(ix.plan.Hashers))
	for h, n := range hf.FuncsPerHasher {
		if n == 0 {
			continue
		}
		vals[h] = make([]uint64, n)
		alts[h] = make([]lshfamily.ProbeAlt, n)
		lshfamily.HashRange(ix.plan.Hashers[h], 0, n, q, vals[h])
		lshfamily.ProbeRange(ix.plan.Hashers[h], 0, n, q, alts[h])
	}

	// keyFor folds table t's bucket key exactly as the hash stage's
	// keyScratch.keysFor does, optionally substituting one base
	// function's runner-up value (the single-flip perturbation).
	keyFor := func(t int, flipHasher, flipFn int) uint64 {
		key := xhash.CombineInit ^ xhash.SplitMix64(uint64(t)+0x51ed2701)
		for _, part := range hf.Tables[t].Parts {
			for fn := part.Start; fn < part.Start+part.Count; fn++ {
				v := vals[part.Hasher][fn]
				if part.Hasher == flipHasher && fn == flipFn {
					v = alts[part.Hasher][fn].Alt
				}
				key = xhash.Combine(key, v)
			}
		}
		return key
	}

	// flipPos is one perturbable position of the current table.
	type flipPos struct {
		hasher, fn int
		penalty    float64
	}
	var flips []flipPos
	seen := make(map[int32]struct{})
	var cands []int32
	probesDone := 0
	probe := func(t int, key uint64) {
		probesDone++
		head, ok := ix.buckets.Lookup(t, key)
		if !ok {
			return
		}
		for li := head; ; {
			if _, dup := seen[li]; !dup {
				seen[li] = struct{}{}
				cands = append(cands, ix.recs[li])
			}
			p := ix.buckets.prev[t][li]
			if p < 0 {
				break
			}
			li = p
		}
	}
	for t := range hf.Tables {
		probe(t, keyFor(t, -1, -1))
		if probes == 1 {
			continue
		}
		// Perturbed keys: single flips in ascending penalty order.
		flips = flips[:0]
		for _, part := range hf.Tables[t].Parts {
			for fn := part.Start; fn < part.Start+part.Count; fn++ {
				if a := alts[part.Hasher][fn]; !math.IsInf(a.Penalty, 1) {
					flips = append(flips, flipPos{part.Hasher, fn, a.Penalty})
				}
			}
		}
		sort.Slice(flips, func(i, j int) bool {
			if flips[i].penalty != flips[j].penalty {
				return flips[i].penalty < flips[j].penalty
			}
			if flips[i].hasher != flips[j].hasher {
				return flips[i].hasher < flips[j].hasher
			}
			return flips[i].fn < flips[j].fn
		})
		if len(flips) > probes-1 {
			flips = flips[:probes-1]
		}
		for _, f := range flips {
			probe(t, keyFor(t, f.hasher, f.fn))
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	// Verify every candidate against the probe record with a prepared
	// kernel over a scratch dataset {probe, candidates...} — decisions
	// identical to Rule.Match, at kernel cost.
	res := &QueryResult{Probes: probesDone, Candidates: cands}
	type agg struct{ matched, candidates int }
	perCluster := make(map[int32]*agg)
	if len(cands) > 0 {
		scratch := &record.Dataset{Name: "query-verify"}
		scratch.Records = make([]record.Record, 0, len(cands)+1)
		scratch.Records = append(scratch.Records, record.Record{ID: 0, Fields: q.Fields})
		for i, rc := range cands {
			scratch.Records = append(scratch.Records, record.Record{ID: i + 1, Fields: ix.ds.Records[rc].Fields})
		}
		idx := make([]int32, len(scratch.Records))
		for i := range idx {
			idx[i] = int32(i)
		}
		prep := distance.Prepare(scratch, ix.plan.Rule, idx)
		for j, rc := range cands {
			matched := prep.MatchIdx(0, j+1)
			if matched {
				res.MatchedRecords = append(res.MatchedRecords, rc)
			}
			ord := ix.clusterOf[rc]
			if ord < 0 {
				if matched {
					res.Unclustered++
				}
				continue
			}
			a := perCluster[ord]
			if a == nil {
				a = &agg{}
				perCluster[ord] = a
			}
			a.candidates++
			if matched {
				a.matched++
			}
		}
	}
	for ord, a := range perCluster {
		if a.matched == 0 {
			// Bucket collisions the rule rejected: not a match.
			continue
		}
		c := &ix.clusters[ord]
		res.Matches = append(res.Matches, QueryMatch{
			Cluster: int(ord), Records: c.Records,
			Matched: a.matched, Candidates: a.candidates,
		})
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		a, b := &res.Matches[i], &res.Matches[j]
		if a.Matched != b.Matched {
			return a.Matched > b.Matched
		}
		if a.Candidates != b.Candidates {
			return a.Candidates > b.Candidates
		}
		return a.Cluster < b.Cluster
	})
	if len(res.Matches) > m {
		res.Matches = res.Matches[:m]
	}

	obs.Count(opts.Obs, obs.CtrQueryProbes, int64(probesDone))
	obs.Count(opts.Obs, obs.CtrQueryCandidates, int64(len(cands)))
	qt.Items = len(cands)
	qt.End()
	return res, nil
}
