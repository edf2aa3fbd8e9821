package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// metric is one reported number. Samples is the sample count behind a
// percentile or median (0 when the value is not a statistic).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is everything one run measured, before it is filtered down to
// the names BENCHMARK.json lists.
type result struct {
	metrics   map[string]metric
	attempted int
	failed    int
	// failures describes every failed check, one line each.
	failures []string
	// counters holds the route counters every pass repeated (checked
	// equal across passes) and the number of lookups sent, written to
	// the run's JSON file.
	counters map[string]int64
	// series keeps the raw samples behind the timing statistics,
	// written to the run's JSON file.
	series map[string][]float64
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, counters: map[string]int64{}, series: map[string][]float64{}}
}

// fail records a failed check; the run then reports correct=false and
// exits non-zero.
func (r *result) fail(format string, args ...any) { r.failOps(1, format, args...) }

// failOps records n failed operations under one description.
func (r *result) failOps(n int, format string, args ...any) {
	r.failed += n
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return d.Seconds() * 1e3 }
func micros(d time.Duration) float64  { return d.Seconds() * 1e6 }

// repeatSetup runs one full set-up at least minSetups times and until
// one second of set-up time has accumulated (at most 200 times), and
// returns every repetition's duration in seconds. Callers keep only
// the last repetition's state: the others exist so that setup_s is a
// median, and a millisecond set-up gets enough repetitions to be one.
func repeatSetup(once func() (time.Duration, error)) ([]float64, error) {
	const minSetups = 5
	var times []float64
	var total time.Duration
	for len(times) < minSetups || (total < time.Second && len(times) < 200) {
		d, err := once()
		if err != nil {
			return nil, err
		}
		times = append(times, seconds(d))
		total += d
	}
	return times, nil
}

// loopStats is the outcome of one open-loop phase; lat[i] and late[i]
// belong to request i.
type loopStats struct {
	// lat is each request's latency (see openLoop).
	lat []float64 // microseconds
	// late is how far behind schedule each request was sent.
	late   []float64 // milliseconds
	failed int
	wall   time.Duration
}

// openLoop sends n requests at a fixed rate: request i is due at
// start + i/rate and is sent by goroutine i mod goroutines. It is an
// open loop: a slow request delays its goroutine's later requests, and
// their latency counts that wait, because a request its goroutine could
// not send on time is timed from when it was due. A request whose
// goroutine was idle and slept until the due time is timed from when it
// was sent: the sleep's overshoot is the timer's, not the program's,
// and for lookups of a few hundred microseconds it would otherwise be
// most of the reading. gen.lateness_p99_ms reports both kinds of
// lateness. do reports whether the request succeeded.
func openLoop(n int, rate float64, goroutines int, do func(g, i int) bool) loopStats {
	st := loopStats{lat: make([]float64, n), late: make([]float64, n)}
	var failed atomic.Int64
	interval := float64(time.Second) / rate
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += goroutines {
				due := start.Add(time.Duration(float64(i) * interval))
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
				}
				sent := time.Now()
				if !do(g, i) {
					failed.Add(1)
				}
				st.lat[i] = micros(time.Since(from))
				st.late[i] = millis(sent.Sub(due))
			}
		}(g)
	}
	wg.Wait()
	st.wall = time.Since(start)
	st.failed = int(failed.Load())
	return st
}

// sendOrder lists, send by send, which of n probes to send: round
// after round, each round a seed-chosen permutation of the probes, so
// every probe is sent about equally often and its sends fall at
// unrelated moments of the run.
type sendOrder struct {
	n     int
	rng   *xhash.RNG
	order []int
}

func newSendOrder(n int, seed uint64) *sendOrder {
	return &sendOrder{n: n, rng: xhash.NewRNG(seed ^ 0x9b0be)}
}

// first returns the probes of the first k sends.
func (s *sendOrder) first(k int) []int {
	for len(s.order) < k {
		s.order = append(s.order, s.rng.Perm(s.n)...)
	}
	return s.order[:k]
}

// perProbeMedian returns each probe's median latency over its sends
// (lat[i] belongs to probe order[i]). The query_p50_us and query_p95_us
// percentiles are taken across these per-probe medians: every probe is
// sent many times at unrelated moments of the run, so its median is
// its lookup's typical cost, while the tail of single sends is mostly
// the moments the machine or the other traffic slowed them.
func perProbeMedian(lat []float64, order []int, probes int) []float64 {
	per := make([][]float64, probes)
	for i, p := range order {
		per[p] = append(per[p], lat[i])
	}
	out := make([]float64, 0, probes)
	for _, xs := range per {
		if len(xs) > 0 {
			out = append(out, median(xs))
		}
	}
	return out
}

// digest fingerprints a top-k result (cluster order and membership),
// so passes can be checked for identical output.
func digest(clusters []core.Cluster) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range clusters {
		for _, r := range append([]int32{int32(len(c.Records))}, c.Records...) {
			buf[0], buf[1], buf[2], buf[3] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// route is the part of a pass's work the pinned cost model fixes: it
// must repeat exactly from pass to pass.
type route struct {
	hashEvals, pairs         int64
	hashRounds, pairwiseRnds int
}

func routeOf(st core.Stats) route {
	var evals int64
	for _, n := range st.HashEvals {
		evals += n
	}
	return route{hashEvals: evals, pairs: st.PairsComputed, hashRounds: st.HashRounds, pairwiseRnds: st.PairwiseRounds}
}

func (rt route) record(r *result) {
	r.counters["hash_evals"] = rt.hashEvals
	r.counters["pair_comparisons"] = rt.pairs
	r.counters["rehash_rounds"] = int64(rt.hashRounds - 1)
	r.counters["pairwise_rounds"] = int64(rt.pairwiseRnds)
}

// permuted returns ds with its records in a seed-chosen arrival order,
// and where each record of ds landed (the new ID of record i is at[i]).
// Workload content is fixed (the committed cost pins were calibrated on
// it); the run seed picks the order records arrive in, which changes
// record IDs, bucket insertion order and the lookups' send order while
// leaving the amount of work nearly unchanged.
func permuted(ds *record.Dataset, seed uint64) (out *record.Dataset, at []int32) {
	out = &record.Dataset{Name: ds.Name}
	at = make([]int32, ds.Len())
	for j, i := range xhash.NewRNG(seed ^ 0x0bde4).Perm(ds.Len()) {
		out.Add(ds.Truth[i], ds.Records[i].Fields...)
		at[i] = int32(j)
	}
	return out, at
}

// heapLiveMB reports the live heap after full collections. Callers keep
// the run's state referenced across the call. The second collection
// empties what the first moved into sync.Pool victim caches.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// gcWindow measures GC pause time and allocation volume over a phase.
type gcWindow struct{ pauseNS, alloc uint64 }

func startGC() gcWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcWindow{ms.PauseTotalNs, ms.TotalAlloc}
}

func (w gcWindow) record(r *result) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.put("gc.pause_ms", float64(ms.PauseTotalNs-w.pauseNS)/1e6)
	r.put("gc.alloc_mb", float64(ms.TotalAlloc-w.alloc)/(1<<20))
}
