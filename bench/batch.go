package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/shard"
	"github.com/topk-er/adalsh/internal/xhash"
)

// batchSpec describes a batch workload: cold top-k filter passes over a
// fixed set of records, each followed by a burst of point lookups.
type batchSpec struct {
	// content builds the workload's records (before the run seed
	// permutes their arrival order) and its matching rule.
	content func(toy bool) (*record.Dataset, distance.Rule)
	k       int
	// shards > 0 runs the passes on the sharded engine over a .col copy
	// of the records. The sharded engine keeps no bucket state for
	// lookups, so one single-engine capturing pass builds the lookup
	// index (untimed: it is not the sharded path).
	shards int
	// After every pass, lookupsPerPass lookups go out as an open loop
	// at lookupRate per second from two goroutines. They cycle through
	// probes fixed records, evenly spaced in content order.
	lookupsPerPass int
	lookupRate     float64
	probes         int
	f1Floor        float64
	pin            core.CostModel
}

// workers is the worker-pool size of every filter pass: the two cores
// the benchmark was sized for. It is fixed rather than read from the
// machine so that a run's work does not depend on where it runs.
const workers = 2

// lookupGoroutines issue the point lookups of an open loop.
const lookupGoroutines = 2

// minCycles is the fewest pass-and-lookups cycles a run makes, however
// short its --seconds.
const minCycles = 3

// pinPlan designs the plan live (its time is part of set-up), then
// replaces the calibrated cost model with the committed pin so that
// Algorithm 1 takes the same route in every run.
func pinPlan(ds *record.Dataset, rule distance.Rule, pin core.CostModel) (*core.Plan, time.Duration, error) {
	t0 := time.Now()
	plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: contentSeed})
	d := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if len(pin.CostFunc) != len(plan.Hashers) {
		return nil, 0, fmt.Errorf("cost pin has %d hashers, plan has %d", len(pin.CostFunc), len(plan.Hashers))
	}
	plan.Cost = core.CostModel{CostP: pin.CostP, CostFunc: append([]float64(nil), pin.CostFunc...)}
	return plan, d, nil
}

func runBatch(spec *batchSpec, cfg runConfig) (*result, error) {
	r := newResult()
	content, rule := spec.content(cfg.toy)
	ds, at := permuted(content, cfg.seed)
	probes := make([]int32, min(spec.probes, ds.Len()))
	for i := range probes {
		probes[i] = at[i*ds.Len()/len(probes)]
	}
	lookups := spec.lookupsPerPass
	if cfg.toy {
		lookups = min(lookups, 20)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(spec.shards)
	}

	// Set-up: design the plan; for the sharded workload first write and
	// map the .col file.
	var (
		plan                     *core.Plan
		data                     = ds
		cf                       *dsio.ColFile
		colWrite, colOpen, plans []float64
		colBytes                 int64
	)
	defer func() {
		if cf != nil {
			cf.Close()
		}
	}()
	setups, err := repeatSetup(func() (time.Duration, error) {
		start := time.Now()
		if spec.shards > 0 {
			if cf != nil {
				cf.Close()
				cf = nil
			}
			path := filepath.Join(cfg.workDir, "corpus.col")
			t0 := time.Now()
			if err := dsio.WriteCol(path, ds); err != nil {
				return 0, err
			}
			colWrite = append(colWrite, seconds(time.Since(t0)))
			t0 = time.Now()
			var err error
			if cf, err = dsio.OpenCol(path); err != nil {
				return 0, err
			}
			colOpen = append(colOpen, millis(time.Since(t0)))
			fi, err := os.Stat(path)
			if err != nil {
				return 0, err
			}
			colBytes = fi.Size()
			data = cf.Dataset
		}
		p, d, err := pinPlan(data, rule, spec.pin)
		if err != nil {
			return 0, err
		}
		plan = p
		plans = append(plans, millis(d))
		return time.Since(start), nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.putN("setup_s", median(setups), len(setups))
	r.series["setup_s"] = setups
	r.putN("design.plan_ms", median(plans), len(plans))
	if spec.shards > 0 {
		r.putN("dsio.col_write_s", median(colWrite), len(colWrite))
		r.putN("dsio.col_open_ms", median(colOpen), len(colOpen))
		r.put("dsio.col_bytes_per_record", float64(colBytes)/float64(data.Len()))
		ds = nil // the passes read the mapped copy
	} else {
		r.idle("dsio.", "shard.")
	}
	r.idle("snapio.", "server.")

	// The measured phase is a sequence of cycles, each a cold filter pass
	// (a fresh cache, engine and capture) and a burst of lookups, until
	// the run's time is up. Interleaving them spreads both kinds of
	// timing over the whole run: the machine's speed drifts over
	// seconds, and a metric timed in one stretch of the run inherits
	// that stretch's speed. Every pass must repeat the first pass's
	// output and route. In a traced run the passes alternate traced and
	// untraced, so the tracing overhead is measured in the same process.
	gcw := startGC()
	var (
		untraced, traced []float64
		first            *core.Result
		firstRoute       route
		firstDigest      uint64
		idx              *core.QueryIndex
		cache            *core.Cache
		eng              *shard.Engine
		shardAgg         shardStats
		cacheBytes       int64
		// collisions is the first traced pass's bucket_collisions: only
		// a sink counts them, so traced passes compare them too.
		collisions int64 = -1
		lk         *lookupLoop
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < minCycles || time.Now().Before(deadline); i++ {
		on := tr != nil && i%2 == 0
		var sink obs.Sink
		end := func() {}
		if on {
			sink = tr.sink(lanePasses)
			end = tr.span(lanePasses, "pass")
		}
		var coll0 int64
		if on {
			coll0 = tr.col.Counter(obs.CtrBucketCollisions)
		}
		// The previous pass's engine or cache and its garbage are not
		// this pass's cost.
		eng, cache = nil, nil
		runtime.GC()
		t0 := time.Now()
		var res *core.Result
		if spec.shards > 0 {
			eng, err = shard.New(data, shard.Options{Shards: spec.shards, K: spec.k, Workers: workers, Obs: sink, MemSample: on})
			if err == nil {
				res, err = eng.Filter(plan)
			}
		} else {
			// The pass gets the cache Filter would create for itself, so
			// the last pass's cache stays referenced for heap_live_mb and
			// cache.mb.
			cache = core.NewCache(data, len(plan.Hashers))
			pidx := &core.QueryIndex{}
			res, err = core.Filter(data, plan, core.Options{K: spec.k, Workers: workers, Cache: cache, Capture: pidx, Obs: sink, MemSample: on})
			idx = pidx
		}
		wall := seconds(time.Since(t0))
		end()
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("filter pass %d: %w", i, err)
		}
		if on {
			traced = append(traced, wall)
			switch coll := tr.col.Counter(obs.CtrBucketCollisions) - coll0; {
			case collisions < 0:
				collisions = coll
				r.counters["bucket_collisions"] = coll
			case coll != collisions:
				r.fail("pass %d bucket_collisions %d differ from the first traced pass's %d", i, coll, collisions)
			}
			if spec.shards > 0 {
				shardAgg.add(eng)
				cacheBytes = 0
				for _, s := range eng.PerShard() {
					cacheBytes += s.CacheBytes
				}
			} else {
				cacheBytes = cache.MemBytes()
			}
		} else {
			untraced = append(untraced, wall)
		}
		rt, dg := routeOf(res.Stats), digest(res.Clusters)
		if first == nil {
			first, firstRoute, firstDigest = res, rt, dg
			rt.record(r)
			if spec.shards > 0 {
				idx = &core.QueryIndex{}
				res, err := core.Filter(data, plan, core.Options{K: spec.k, Workers: workers, Capture: idx})
				if err != nil {
					return nil, err
				}
				if digest(res.Clusters) != firstDigest {
					r.fail("single-engine capture output differs from the sharded passes")
				}
			}
			lk = newLookupLoop(tr, idx, data, probes, spec.lookupRate, cfg.seed)
		} else {
			if rt != firstRoute {
				r.fail("pass %d route %+v differs from pass 0 %+v", i, rt, firstRoute)
			}
			if dg != firstDigest {
				r.fail("pass %d top-k output differs from pass 0", i)
			}
		}
		lk.burst(idx, lookups)
	}
	if len(untraced) > 0 {
		r.putN("filter_s", median(untraced), len(untraced))
		r.series["filter_s"] = untraced
	}
	f1 := metrics.Gold(data, first.Output, spec.k).F1
	r.put("topk_f1", f1)
	if !cfg.toy && f1 < spec.f1Floor {
		r.fail("topk_f1 %.4f below the workload floor %.4f", f1, spec.f1Floor)
	}
	lk.record(r)

	gcw.record(r)
	r.put("heap_live_mb", heapLiveMB())
	runtime.KeepAlive(eng)
	runtime.KeepAlive(idx)
	runtime.KeepAlive(cache)

	if tr == nil {
		return r, nil
	}
	passLayers(r, tr, len(traced), data, plan, first)
	if spec.shards > 0 {
		shardAgg.record(r, tr, len(traced))
	}
	lk.recordTraced(r, tr)
	r.put("cache.mb", float64(cacheBytes)/(1<<20))
	if len(untraced) > 0 {
		r.put("trace.overhead_ratio", ratio(median(traced), median(untraced)))
	}
	return r, tr.write(cfg.tracePath, cfg.env())
}

// lookupLoop sends the point lookups of a batch workload, in bursts
// between filter passes, cycling through the probe records in
// sendOrder. Each lookup must match the probe itself, and rank the
// probe's cluster among its matches or, for a record outside the top-k
// clusters, report it unclustered.
type lookupLoop struct {
	tr        *tracer
	data      *record.Dataset
	probes    []int32
	clusterOf map[int32]int
	rate      float64
	order     *sendOrder

	sent      int
	lat, late []float64
	failed    int

	matched, examined atomic.Int64
}

func newLookupLoop(tr *tracer, idx *core.QueryIndex, data *record.Dataset, probes []int32, rate float64, seed uint64) *lookupLoop {
	l := &lookupLoop{tr: tr, data: data, probes: probes, clusterOf: map[int32]int{}, rate: rate, order: newSendOrder(len(probes), seed)}
	for ord, c := range idx.Clusters() {
		for _, rec := range c.Records {
			l.clusterOf[rec] = ord
		}
	}
	return l
}

// burst sends the next n lookups against idx as one open loop.
func (l *lookupLoop) burst(idx *core.QueryIndex, n int) {
	order := l.order.first(l.sent + n)[l.sent:]
	ls := openLoop(n, l.rate, lookupGoroutines, func(g, i int) bool {
		rec := l.probes[order[i]]
		end := l.tr.span(laneLookup+g, "lookup")
		res, err := idx.Query(&l.data.Records[rec], 3, core.QueryOptions{Obs: l.tr.sink(laneLookup + g)})
		end()
		if err != nil {
			return false
		}
		l.matched.Add(int64(len(res.MatchedRecords)))
		l.examined.Add(int64(len(res.Candidates)))
		k := sort.Search(len(res.MatchedRecords), func(j int) bool { return res.MatchedRecords[j] >= rec })
		if k == len(res.MatchedRecords) || res.MatchedRecords[k] != rec {
			return false
		}
		ord, clustered := l.clusterOf[rec]
		if !clustered {
			return res.Unclustered > 0
		}
		for _, m := range res.Matches {
			if m.Cluster == ord {
				return true
			}
		}
		return false
	})
	l.sent += n
	l.lat = append(l.lat, ls.lat...)
	l.late = append(l.late, ls.late...)
	l.failed += ls.failed
}

// record reports the lookups' end-to-end metrics and counts them.
func (l *lookupLoop) record(r *result) {
	r.attempted += l.sent
	if l.failed > 0 {
		r.failOps(l.failed, "%d of %d lookups missed the probe record or its cluster", l.failed, l.sent)
	}
	typical := perProbeMedian(l.lat, l.order.first(l.sent), len(l.probes))
	r.putN("query_p50_us", quantile(typical, 0.50), len(l.probes))
	r.putN("query_p95_us", quantile(typical, 0.95), len(l.probes))
	r.putN("gen.lateness_p99_ms", quantile(l.late, 0.99), l.sent)
	r.counters["lookups"] = int64(l.sent)
}

// recordTraced reports the query layer's traced metrics.
func (l *lookupLoop) recordTraced(r *result, tr *tracer) {
	n := float64(l.sent)
	r.put("query.probes_per_lookup", float64(tr.col.Counter(obs.CtrQueryProbes))/n)
	r.put("query.candidates_per_lookup", float64(tr.col.Counter(obs.CtrQueryCandidates))/n)
	r.put("query.match_ratio", ratio(l.matched.Load(), l.examined.Load()))
	var svc []float64
	for _, sp := range tr.programSpans(obs.StageQuery) {
		svc = append(svc, micros(sp.Wall))
	}
	r.putN("query.service_us", median(svc), len(svc))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio[T int | int64 | float64 | time.Duration](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// passLayers reports the hashing, cache, pairwise and loop layers of
// the traced passes (per pass), plus the replays of layers that run
// only inside Filter, timed alone on the same inputs.
func passLayers(r *result, tr *tracer, passes int, data *record.Dataset, plan *core.Plan, first *core.Result) {
	per := func(v float64) float64 { return v / float64(passes) }
	col := tr.col
	var hashWall, hashWork time.Duration
	var hashItems int
	var hashAlloc int64
	hashSpans := tr.programSpans(obs.StageHash)
	for _, sp := range hashSpans {
		hashWall += sp.Wall
		hashWork += sp.Work
		hashItems += sp.Items
		hashAlloc += sp.Mem.AllocBytes
	}
	var pairWall, filterWall time.Duration
	pairSpans := tr.programSpans(obs.StagePairwise)
	for _, sp := range pairSpans {
		pairWall += sp.Wall
	}
	for _, sp := range tr.programSpans(obs.StageFilter) {
		filterWall += sp.Wall
	}
	hits, misses := col.Counter(obs.CtrCacheHits), col.Counter(obs.CtrCacheMisses)
	coll := col.Counter(obs.CtrBucketCollisions)
	pairs := col.Counter(obs.CtrPairComparisons)

	r.put("cache.sig_elems_hashed", per(float64(col.Counter(obs.CtrSigElemsHashed))))
	r.put("cache.hash_evals", per(float64(col.Counter(obs.CtrHashEvals))))
	r.put("cache.hit_ratio", ratio(hits, hits+misses))
	r.put("hash.wall_ms", per(millis(hashWall)))
	r.put("hash.work_ms", per(millis(hashWork)))
	r.put("hash.rounds", per(float64(len(hashSpans))))
	r.put("hash.ns_per_record_round", ratio(float64(hashWall.Nanoseconds()), float64(hashItems)))
	r.put("hash.bucket_collisions", per(float64(coll)))
	r.put("hash.merge_ratio", ratio(tr.hashMerges, coll))
	r.put("hash.alloc_mb", per(float64(hashAlloc)/(1<<20)))
	r.put("filter.self_ms", per(millis(filterWall-hashWall-pairWall)))
	r.put("filter.rounds", per(float64(len(hashSpans)+len(pairSpans))))
	r.put("pairwise.wall_ms", per(millis(pairWall)))
	r.put("pairwise.pairs", per(float64(pairs)))
	r.put("pairwise.ns_per_pair", ratio(pairWall.Nanoseconds(), pairs))
	r.put("kernel.prefilter_reject_ratio", ratio(col.Counter(obs.CtrKernelPrefilterRejects), pairs))
	r.put("kernel.early_exit_ratio", ratio(col.Counter(obs.CtrKernelEarlyExits), pairs))
	replayLayers(r, data, plan, first.Clusters[0].Records)
}

// replayLayers times, through their public functions and on the run's
// own inputs, the layers that otherwise run only inside Filter:
// signature extension to H_1 on a cold cache, H_1's bucket tables over
// every record with that cache warm (so signatures cost nothing), and
// the prepared match kernel over seeded pairs of the largest cluster.
func replayLayers(r *result, data *record.Dataset, plan *core.Plan, largest []int32) {
	n := data.Len()
	h1 := plan.Funcs[0]
	cache := core.NewCache(data, len(plan.Hashers))
	t0 := time.Now()
	for rec := 0; rec < n; rec++ {
		for h, fns := range h1.FuncsPerHasher {
			if fns > 0 {
				cache.Ensure(plan, h, rec, fns)
			}
		}
	}
	r.put("cache.ensure_ns_per_record", float64(time.Since(t0).Nanoseconds())/float64(n))

	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	var tables []float64
	for rep := 0; rep < 3; rep++ {
		t0 = time.Now()
		core.ApplyHashOpt(data, plan, h1, cache, all, core.HashOptions{Workers: workers}, &core.HashStats{})
		tables = append(tables, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	r.putN("hash.table_ns_per_record", median(tables), len(tables))

	if len(largest) < 2 {
		r.put("kernel.match_ns_per_pair", 0)
		return
	}
	prep := distance.Prepare(data, plan.Rule, largest)
	rng := xhash.NewRNG(0x6e7)
	m := len(largest)
	pairs := 0
	t0 = time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for b := 0; b < 1024; b++ {
			i, j := rng.Intn(m), rng.Intn(m-1)
			if j >= i {
				j++
			}
			prep.MatchIdx(i, j)
		}
		pairs += 1024
	}
	r.put("kernel.match_ns_per_pair", float64(time.Since(t0).Nanoseconds())/float64(pairs))
}

// shardStats accumulates the sharded engine's per-pass statistics over
// the traced passes.
type shardStats struct {
	busyMax, busyMin, reconcile time.Duration
	keys, pairs, merges         int64
}

func (s *shardStats) add(e *shard.Engine) {
	var lo, hi time.Duration
	for i, st := range e.PerShard() {
		if i == 0 || st.Busy < lo {
			lo = st.Busy
		}
		if st.Busy > hi {
			hi = st.Busy
		}
	}
	b := e.Boundary()
	s.busyMax += hi
	s.busyMin += lo
	s.reconcile += b.Wall
	s.keys += b.Keys
	s.pairs += b.Pairs
	s.merges += b.Merges
}

// record reports the shard layer per traced pass. shard.hash_overlap is
// the hashing stage's work/wall: the average number of shards hashing
// at once. It is a speed-up only when the machine has a core per shard
// (the run's JSON file records NumCPU beside it).
func (s *shardStats) record(r *result, tr *tracer, passes int) {
	var wall, work time.Duration
	for _, sp := range tr.programSpans(obs.StageHash) {
		wall += sp.Wall
		work += sp.Work
	}
	r.put("shard.hash_overlap", ratio(work, wall))
	per := func(d time.Duration) float64 { return millis(d) / float64(passes) }
	r.put("shard.busy_max_ms", per(s.busyMax))
	r.put("shard.busy_min_ms", per(s.busyMin))
	r.put("shard.reconcile_ms", per(s.reconcile))
	r.put("shard.boundary_keys", float64(s.keys)/float64(passes))
	r.put("shard.boundary_pairs", float64(s.pairs)/float64(passes))
	r.put("shard.reconcile_merge_ratio", ratio(s.merges, s.pairs))
}
