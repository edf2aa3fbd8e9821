package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/rulespec"
	"github.com/topk-er/adalsh/internal/server"
	"github.com/topk-er/adalsh/internal/server/client"
	"github.com/topk-er/adalsh/internal/snapio"
	"github.com/topk-er/adalsh/internal/xhash"
	"github.com/topk-er/adalsh/internal/zipfian"
)

// serveSpec describes the serving workload: a warm session served over
// loopback HTTP. The measured phase opens with the mixed traffic, one
// goroutine writing and another sending point queries up a rate
// ladder, and ends with the refresh phase (see mixShare).
type serveSpec struct {
	warm int // warm-boot records
	k    int
	rule string
	// The write side of the mix: ingestRate records a second in batches
	// of ingestBatch, and a TopK every topkEvery, the first half a
	// period in. Every run ingests the same records, so its final state
	// differs from another run's only in record order. The session
	// checkpoints at the first TopK after checkpointEvery records have
	// arrived; filter_s leaves that TopK out.
	ingestRate      float64
	ingestBatch     int
	topkEvery       time.Duration
	checkpointEvery int
	// ladder holds the query rates; every step sends the same number of
	// queries, sized so the ladder fills the mix. Queries cycle through
	// probes fixed records of the largest boot clusters in sendOrder.
	ladder []float64
	probes int
	// latencyLimit is the p99 a ladder step must meet, without a
	// growing backlog, to count toward server.max_qps.
	latencyLimit time.Duration
	f1Floor      float64
	pin          core.CostModel
}

// mixShare is the share of the measured phase the mixed traffic takes.
// The rest is the refresh phase: TopK requests back to back on the
// grown session and nothing else, whose median is serve-mixed's
// filter_s. At the mix's cadence a 25 s run holds two TopKs, too few
// for a median that repeats from run to run; the mix's own TopKs are
// reported as server.topk_p50_ms.
const mixShare = 0.8

// minRefreshes is the fewest TopKs the refresh phase makes, however
// short the run.
const minRefreshes = 3

// serveContent is the load generator's record recipe: Zipf(1.0)-sized
// entities, each record a 90% sample of its entity's 60–119 base
// tokens plus up to five noise tokens.
func serveContent(n, entities int) *record.Dataset {
	rng := xhash.NewRNG(contentSeed ^ 0x10adc0de)
	ds := &record.Dataset{Name: "serve"}
	for ent, size := range zipfian.Sizes(n, entities, 1.0) {
		base := make([]uint64, 60+rng.Intn(60))
		for j := range base {
			base[j] = rng.Uint64()
		}
		for i := 0; i < size; i++ {
			var toks []uint64
			for _, t := range base {
				if rng.Float64() < 0.9 {
					toks = append(toks, t)
				}
			}
			for extra := rng.Intn(6); extra > 0; extra-- {
				toks = append(toks, rng.Uint64())
			}
			ds.Add(ent, record.NewSet(toks))
		}
	}
	return ds
}

// serveRecords lays out the serving workload's records: the warm set,
// then the n records the run ingests, in a seed-chosen order. The
// content is 2*warm records over one entity per 40 (the load
// generator's ratio), in a fixed order; the warm set is its first half
// and the ingested records the start of its second. So every run boots
// the same session and ingests the same records, whatever its length:
// the signature cache grows its arena in whole pages, and a
// seed-dependent warm set moved heap_live_mb by whole pages from run to
// run.
func serveRecords(warm, n int, seed uint64) (*record.Dataset, error) {
	if n > warm {
		return nil, fmt.Errorf("the run ingests %d records, more than the %d it has", n, warm)
	}
	content, _ := permuted(serveContent(2*warm, 2*warm/40), contentSeed)
	head := content.Subset("warm", seq(warm))
	tail, _ := permuted(content.Subset("ingest", seq(warm + n)[warm:]), seed)
	for i := range tail.Records {
		head.Add(tail.Truth[i], tail.Records[i].Fields...)
	}
	return head, nil
}

// live is one running server: the session registry behind a loopback
// HTTP listener, plus the client that talks to it (at most two
// connections, one per issuing goroutine).
type live struct {
	sv     *server.Server
	hs     *http.Server
	served chan struct{}
	c      *client.Client
	tp     *http.Transport
}

func startServer(sv *server.Server) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{sv: sv, hs: &http.Server{Handler: sv.Handler()}, served: make(chan struct{})}
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	l.tp = &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	l.c = client.New("http://"+ln.Addr().String(), &http.Client{Transport: l.tp, Timeout: 30 * time.Second})
	return l, nil
}

// stop closes the listener and every connection and waits for the
// serving goroutine to exit.
func (l *live) stop() {
	l.hs.Close()
	<-l.served
	l.tp.CloseIdleConnections()
}

const sessionID = "serve"

// lowSteps is how many of the lowest ladder steps give query_p50_us and
// query_p95_us.
const lowSteps = 2

func runServe(spec *serveSpec, cfg runConfig) (*result, error) {
	r := newResult()
	rule, err := rulespec.Parse(spec.rule)
	if err != nil {
		return nil, err
	}
	warm := spec.warm
	if cfg.toy {
		warm = 1500
	}
	// The mix lasts as long as the ladder, whose steps are sized to fill
	// mixShare of the run; the ingest schedule covers it.
	perStep := int(math.Ceil(mixShare * float64(cfg.seconds) / sumInv(spec.ladder)))
	mix := time.Duration(float64(perStep) * sumInv(spec.ladder) * float64(time.Second))
	refresh := time.Duration(cfg.seconds)*time.Second - mix
	batches := int(math.Ceil(mix.Seconds() * spec.ingestRate / float64(spec.ingestBatch)))
	all, err := serveRecords(warm, batches*spec.ingestBatch, cfg.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(0)
	}
	dir := filepath.Join(cfg.workDir, "sessions")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, sessionID+".snap")

	// Set-up: design the warm stream's plan live and pin its cost
	// model, start the stream from that plan with re-planning disabled
	// (core.RestoreStream of a state with a cold cache), run its first
	// TopK, snapshot it, warm-boot a server from the snapshot, and run
	// the first TopK over HTTP so point queries have an index.
	var (
		srv                    *live
		boot                   server.TopKResponse
		snaps, restores, plans []float64
		snapBytes              int64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	setups, err := repeatSetup(func() (time.Duration, error) {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		start := time.Now()
		ds := all.Subset(sessionID, seq(warm))
		plan, d, err := pinPlan(ds, rule, spec.pin)
		if err != nil {
			return 0, err
		}
		plans = append(plans, millis(d))
		st, err := core.RestoreStream(&core.StreamState{
			Rule: rule, Config: core.SequenceConfig{Seed: contentSeed}, Dataset: ds,
			Plan: plan, PlannedAt: warm, ReplanGrowth: math.Inf(1),
		})
		if err != nil {
			return 0, err
		}
		if _, err := st.TopK(spec.k); err != nil {
			return 0, err
		}
		state := st.State()
		t0 := time.Now()
		if err := snapio.WriteFileAtomic(snapPath, func(w io.Writer) error { return snapio.WriteState(w, state) }); err != nil {
			return 0, err
		}
		snaps = append(snaps, millis(time.Since(t0)))
		fi, err := os.Stat(snapPath)
		if err != nil {
			return 0, err
		}
		snapBytes = fi.Size()
		sv := server.New(server.Options{CheckpointDir: dir, CheckpointEvery: spec.checkpointEvery})
		t0 = time.Now()
		if _, err := sv.LoadDir(dir); err != nil {
			return 0, err
		}
		restores = append(restores, millis(time.Since(t0)))
		if srv, err = startServer(sv); err != nil {
			return 0, err
		}
		if boot, err = srv.c.TopK(sessionID, spec.k, 0); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.putN("setup_s", median(setups), len(setups))
	r.putN("design.plan_ms", median(plans), len(plans))
	r.putN("snapio.snapshot_ms", median(snaps), len(snaps))
	r.putN("snapio.restore_ms", median(restores), len(restores))
	r.put("snapio.bytes_per_record", float64(snapBytes)/float64(warm))
	r.idle("dsio.", "shard.")

	// Probes: records of the largest boot clusters, the same in every
	// run. A query for one must return a cluster holding it, also after
	// later TopKs have grown the clusters.
	var probes []int32
	for _, c := range boot.Clusters {
		probes = append(probes, c.Records...)
	}
	probes = probes[:min(spec.probes, len(probes))]
	queries := make([]server.QueryRequest, len(probes))
	for i, rec := range probes {
		wr, err := client.EncodeRecord(-1, all.Records[rec].Fields...)
		if err != nil {
			return nil, err
		}
		queries[i] = server.QueryRequest{Fields: wr.Fields, M: 3}
	}
	sends := perStep * len(spec.ladder)
	order := newSendOrder(len(probes), cfg.seed).first(sends)
	stream := make([]server.WireRecord, all.Len()-warm)
	for i := range stream {
		if stream[i], err = client.EncodeRecord(all.Truth[warm+i], all.Records[warm+i].Fields...); err != nil {
			return nil, err
		}
	}

	gcw := startGC()
	var (
		wg     sync.WaitGroup
		writes = &writeStats{ckptMod: modTime(snapPath)}
		steps  []loopStats
		// ro and missed are written by the query goroutine only and read
		// after wg.Wait.
		ro, missed int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		writes.mixLoop(spec, srv.c, tr, stream, mix, snapPath)
	}()
	go func() {
		defer wg.Done()
		for s, rate := range spec.ladder {
			base := s * perStep
			steps = append(steps, openLoop(perStep, rate, 1, func(_, i int) bool {
				p := order[base+i]
				end := tr.span(laneLookup, "query")
				resp, err := srv.c.Query(sessionID, queries[p])
				end()
				if err != nil {
					return false
				}
				found := false
				for _, m := range resp.Matches {
					k := sort.Search(len(m.Records), func(j int) bool { return m.Records[j] >= probes[p] })
					found = found || (k < len(m.Records) && m.Records[k] == probes[p])
				}
				if resp.ReadOnly {
					ro++
				}
				if !found {
					missed++
				}
				return found
			}))
		}
	}()
	wg.Wait()
	writes.refreshLoop(spec, srv.c, tr, refresh, snapPath)
	gcw.record(r)

	// Non-2xx responses (429s included), transport errors and failed
	// checks all count as failed operations.
	r.attempted += sends + writes.ingests + len(writes.topk) + writes.topkFailed
	var qfailed int
	var lat []float64
	for _, st := range steps {
		qfailed += st.failed
		lat = append(lat, st.lat...)
	}
	if qfailed > 0 {
		r.failOps(qfailed, "%d of %d queries failed (%d did not return the probe's cluster)", qfailed, sends, missed)
	}
	if writes.failed > 0 {
		r.failOps(writes.failed, "%d write requests failed: %v", writes.failed, writes.firstErr)
	}
	// TopKs of the refresh phase alternate untraced and traced in a
	// traced run; the one that also wrote a checkpoint is left out.
	var mixed, refreshed, traced []float64
	for _, t := range writes.topk {
		switch {
		case !t.refresh:
			mixed = append(mixed, millis(t.wait))
		case t.checkpoint:
		case t.traced:
			traced = append(traced, seconds(t.wait))
		default:
			refreshed = append(refreshed, seconds(t.wait))
		}
	}
	if len(refreshed) == 0 {
		return nil, fmt.Errorf("no untraced TopK without a checkpoint completed in the refresh phase")
	}

	// The end-to-end query latency comes from the two lowest ladder
	// steps, where one goroutine keeps up with the schedule: above them
	// its own backlog, not the server, sets the latency.
	low := lowSteps * perStep
	typical := perProbeMedian(lat[:low], order[:low], len(probes))
	r.putN("query_p50_us", quantile(typical, 0.50), len(typical))
	r.putN("query_p95_us", quantile(typical, 0.95), len(typical))
	r.putN("gen.lateness_p99_ms", quantile(steps[0].late, 0.99), len(steps[0].late))
	r.counters["lookups"] = int64(sends)
	r.putN("filter_s", median(refreshed), len(refreshed))
	r.series["filter_s"] = refreshed
	r.series["setup_s"] = setups
	r.putN("server.topk_p50_ms", median(mixed), len(mixed))
	r.putN("server.ingest_p50_ms", quantile(writes.ingestMS, 0.50), len(writes.ingestMS))
	r.putN("server.ingest_p95_ms", quantile(writes.ingestMS, 0.95), len(writes.ingestMS))
	maxQPS := 0.0
	for s, st := range steps {
		p99 := quantile(st.lat, 0.99)
		r.putN(fmt.Sprintf("server.query_p99_us.r%d", int(spec.ladder[s])), p99, len(st.lat))
		// A backlog that grows shows as the step finishing more than
		// 10% after its last request was due.
		kept := seconds(st.wall) <= 1.1*float64(perStep)/spec.ladder[s]
		ok := p99 <= micros(spec.latencyLimit) && kept && st.failed == 0
		if ok && (s == 0 || maxQPS == spec.ladder[s-1]) {
			maxQPS = spec.ladder[s]
		}
	}
	r.put("server.max_qps", maxQPS)
	r.put("server.read_only_ratio", float64(ro)/float64(sends))
	r.put("server.refused_429", float64(writes.refused))
	r.put("snapio.checkpoints", float64(writes.checkpoints))

	final := writes.last
	data := &record.Dataset{Records: all.Records[:final.Records], Truth: all.Truth[:final.Records]}
	var out []int32
	for _, c := range final.Clusters {
		out = append(out, c.Records...)
	}
	f1 := metrics.Gold(data, out, spec.k).F1
	r.put("topk_f1", f1)
	if !cfg.toy && f1 < spec.f1Floor {
		r.fail("topk_f1 %.4f below the workload floor %.4f", f1, spec.f1Floor)
	}
	r.put("heap_live_mb", heapLiveMB())
	runtime.KeepAlive(srv)

	if tr == nil {
		return r, nil
	}
	r.put("trace.overhead_ratio", ratio(median(traced), median(refreshed)))
	if err := replayServe(r, tr, srv, snapPath, spec.k, probes); err != nil {
		return nil, err
	}
	return r, tr.write(cfg.tracePath, cfg.env())
}

// replayServe reports the layers the server runs out of reach of its
// HTTP API: the session is checkpointed and restored, then one warm
// TopK and one lookup of every probe are replayed on the restored
// stream with the tracer attached.
func replayServe(r *result, tr *tracer, srv *live, snapPath string, k int, probes []int32) error {
	if err := srv.sv.Checkpoint(); err != nil {
		return err
	}
	f, err := os.Open(snapPath)
	if err != nil {
		return err
	}
	state, err := snapio.ReadState(f)
	f.Close()
	if err != nil {
		return err
	}
	cache, err := core.NewCacheFromState(state.Dataset, state.Cache)
	if err != nil {
		return err
	}
	r.put("cache.mb", float64(cache.MemBytes())/(1<<20))
	st, err := core.RestoreStream(state)
	if err != nil {
		return err
	}
	ds := st.Dataset()
	// Stream has no memory-sampling switch, so hash.alloc_mb reads 0.
	st.SetObs(tr.sink(lanePasses))
	end := tr.span(lanePasses, "topk")
	res, err := st.TopKClusters(k, 0)
	end()
	if err != nil {
		return err
	}
	passLayers(r, tr, 1, ds, st.Plan(), res)

	idx := st.QueryIndex()
	lk := newLookupLoop(tr, idx, ds, probes, replayRate, 1)
	lk.burst(idx, len(probes))
	if lk.failed > 0 {
		r.failOps(lk.failed, "%d of %d replayed lookups missed the probe record or its cluster", lk.failed, lk.sent)
	}
	lk.recordTraced(r, tr)
	return nil
}

// replayRate paces the replayed lookups of a traced serve-mixed run.
const replayRate = 1000

// topkSample is one TopK request.
type topkSample struct {
	// wait is the time from when the request was due (mix) or sent
	// (refresh phase) to its response.
	wait                        time.Duration
	refresh, traced, checkpoint bool
}

// writeStats is what the write side measured.
type writeStats struct {
	ingests     int
	ingestMS    []float64
	topk        []topkSample
	topkFailed  int
	last        server.TopKResponse
	ckptMod     time.Time // the checkpoint file's last modification
	checkpoints int
	refused     int
	failed      int
	firstErr    error
}

func (ws *writeStats) fail(err error) {
	ws.failed++
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
		ws.refused++
	}
	if ws.firstErr == nil {
		ws.firstErr = err
	}
}

// mixLoop is the write side of the mix, an open loop on one goroutine:
// the stream records in batches at spec.ingestRate and a TopK every
// spec.topkEvery, each timed from when it was due.
func (ws *writeStats) mixLoop(spec *serveSpec, c *client.Client, tr *tracer, stream []server.WireRecord, dur time.Duration, snapPath string) {
	ingestEvery := time.Duration(float64(spec.ingestBatch) / spec.ingestRate * float64(time.Second))
	start := time.Now()
	next := 0
	nextIngest, nextTopK := time.Duration(0), spec.topkEvery/2
	for {
		isTopK := nextTopK < nextIngest
		at := nextIngest
		if isTopK {
			at = nextTopK
		}
		if at >= dur {
			return
		}
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if isTopK {
			nextTopK += spec.topkEvery
			ws.topkAt(spec, c, tr, due, false, snapPath)
			continue
		}
		nextIngest += ingestEvery
		if next >= len(stream) {
			continue // the records are spent; keep the TopK schedule
		}
		batch := stream[next:min(next+spec.ingestBatch, len(stream))]
		end := tr.span(laneWrites, "ingest")
		_, err := c.Ingest(sessionID, batch...)
		end()
		ws.ingests++
		if err != nil {
			ws.fail(err)
			continue
		}
		next += len(batch)
		ws.ingestMS = append(ws.ingestMS, millis(time.Since(due)))
	}
}

// refreshLoop is the refresh phase, a closed loop: TopK requests back
// to back for dur, at least minRefreshes of them. In a traced run every
// second one is traced.
func (ws *writeStats) refreshLoop(spec *serveSpec, c *client.Client, tr *tracer, dur time.Duration, snapPath string) {
	start := time.Now()
	for n := 0; n < minRefreshes || time.Since(start) < dur; n++ {
		ws.topkAt(spec, c, tr, time.Now(), true, snapPath)
	}
}

// topkAt sends one TopK request that was due at due. The mix's TopKs
// are traced in every traced run, the refresh phase's every second one.
func (ws *writeStats) topkAt(spec *serveSpec, c *client.Client, tr *tracer, due time.Time, refresh bool, snapPath string) {
	traced := tr != nil && (!refresh || len(ws.topk)%2 == 1)
	end := func() {}
	if traced {
		end = tr.span(laneWrites, "topk")
	}
	resp, err := c.TopK(sessionID, spec.k, 0)
	end()
	t := topkSample{wait: time.Since(due), refresh: refresh, traced: traced}
	if err != nil {
		ws.topkFailed++
		ws.fail(err)
		return
	}
	if m := modTime(snapPath); !m.Equal(ws.ckptMod) {
		ws.checkpoints++
		ws.ckptMod = m
		t.checkpoint = true
	}
	ws.topk = append(ws.topk, t)
	ws.last = resp
}

func modTime(path string) time.Time {
	fi, err := os.Stat(path)
	if err != nil {
		return time.Time{}
	}
	return fi.ModTime()
}

func sumInv(rates []float64) float64 {
	s := 0.0
	for _, x := range rates {
		s += 1 / x
	}
	return s
}
