package experiments

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/snapio"
)

// snapPhase captures everything observable about one TopK boundary of
// a streaming session: the query answer, the deterministic work stats,
// the cumulative per-hasher evaluation counts and the per-phase deltas
// of the cache hit/miss counters.
type snapPhase struct {
	clusters   []core.Cluster
	output     []int32
	modelCost  float64
	hashEvals  []int64
	pairs      int64
	cacheEvals []int64
	hitDelta   int64
	missDelta  int64
}

// snapConfig is one cell of the parallelism matrix.
type snapConfig struct {
	name    string
	workers int
}

// apply re-installs the runtime knobs on a stream. Workers and the
// parallel floor are process-local tuning and must be re-set after a
// restore — which the suite does deliberately, mimicking a warm
// restart on the same host.
func (c snapConfig) apply(s *core.Stream) {
	s.SetWorkers(c.workers, 0)
	s.SetHashMinParallel(1)
	// One plan for the whole session: replans re-run the wall-clock
	// cost calibration, which is legitimately nondeterministic, so a
	// replanning baseline could not be compared bit-for-bit against
	// anything — including a second uninterrupted run of itself.
	s.SetReplanGrowth(math.Inf(1))
}

// runPhase adds one batch of records, runs TopK and captures the
// phase observables.
func runPhase(t *testing.T, s *core.Stream, ds *datasets.Benchmark, col *obs.Collector, from, to int) snapPhase {
	t.Helper()
	for i := from; i < to; i++ {
		rec := ds.Dataset.Records[i]
		s.AddWithTruth(ds.Dataset.Truth[i], rec.Fields...)
	}
	hits0, miss0 := col.Counter(obs.CtrCacheHits), col.Counter(obs.CtrCacheMisses)
	res, err := s.TopKClusters(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return snapPhase{
		clusters:   res.Clusters,
		output:     res.Output,
		modelCost:  res.Stats.ModelCost,
		hashEvals:  res.Stats.HashEvals,
		pairs:      res.Stats.PairsComputed,
		cacheEvals: s.CachedHashEvals(),
		hitDelta:   col.Counter(obs.CtrCacheHits) - hits0,
		missDelta:  col.Counter(obs.CtrCacheMisses) - miss0,
	}
}

func comparePhase(t *testing.T, label string, got, want snapPhase) {
	t.Helper()
	if !reflect.DeepEqual(got.clusters, want.clusters) {
		t.Errorf("%s: clusters differ from the uninterrupted run", label)
	}
	if !reflect.DeepEqual(got.output, want.output) {
		t.Errorf("%s: output differs from the uninterrupted run", label)
	}
	if got.modelCost != want.modelCost {
		t.Errorf("%s: ModelCost %v, uninterrupted %v", label, got.modelCost, want.modelCost)
	}
	if !reflect.DeepEqual(got.hashEvals, want.hashEvals) {
		t.Errorf("%s: HashEvals %v, uninterrupted %v", label, got.hashEvals, want.hashEvals)
	}
	if got.pairs != want.pairs {
		t.Errorf("%s: PairsComputed %d, uninterrupted %d", label, got.pairs, want.pairs)
	}
	if !reflect.DeepEqual(got.cacheEvals, want.cacheEvals) {
		t.Errorf("%s: cumulative cache evals %v, uninterrupted %v", label, got.cacheEvals, want.cacheEvals)
	}
	if got.hitDelta != want.hitDelta || got.missDelta != want.missDelta {
		t.Errorf("%s: cache hit/miss deltas %d/%d, uninterrupted %d/%d",
			label, got.hitDelta, got.missDelta, want.hitDelta, want.missDelta)
	}
}

// TestSnapshotRestoreEquivalenceOnBuilders is the differential
// round-trip suite for warm restarts: on a slice of each paper dataset
// builder it streams records in three batches with a TopK at every
// boundary, snapshots the live session at each boundary, then — for
// every boundary — restores the snapshot into a fresh stream and
// replays the remaining batches. Every observable of every continued
// phase must be byte-identical to the uninterrupted session: clusters,
// output, ModelCost, HashEvals, PairsComputed, cumulative cached
// evaluation counts and the per-phase cache hit/miss deltas. The
// matrix covers serial and 4-worker runs.
func TestSnapshotRestoreEquivalenceOnBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter sweeps")
	}
	p := NewProvider(42)
	benches := map[string]*datasets.Benchmark{
		"cora":     p.Cora(1),
		"spotsigs": p.SpotSigs(1, 0.4),
		"images":   p.Images("1.05", 15),
	}
	const (
		batch   = 120
		batches = 3
	)
	configs := []snapConfig{
		{name: "serial", workers: 1},
		{name: "parallel", workers: 4},
	}
	for name, b := range benches {
		if b.Dataset.Len() < batch*batches {
			t.Fatalf("%s: dataset too small for the suite (%d records)", name, b.Dataset.Len())
		}
		for _, cfg := range configs {
			label := fmt.Sprintf("%s/%s", name, cfg.name)

			// Uninterrupted baseline, snapshotting at every boundary.
			col := obs.NewCollector()
			s := core.NewStream(b.Rule, defaultSeq())
			cfg.apply(s)
			s.SetObs(col)
			baseline := make([]snapPhase, batches)
			snaps := make([][]byte, batches)
			for ph := 0; ph < batches; ph++ {
				baseline[ph] = runPhase(t, s, b, col, ph*batch, (ph+1)*batch)
				var buf bytes.Buffer
				if err := snapio.Snapshot(&buf, s); err != nil {
					t.Fatalf("%s: snapshot at boundary %d: %v", label, ph, err)
				}
				snaps[ph] = buf.Bytes()
			}

			// Interrupt at every boundary: restore, continue, compare.
			for cut := 0; cut < batches-1; cut++ {
				rcol := obs.NewCollector()
				r, err := snapio.RestoreWithObs(bytes.NewReader(snaps[cut]), rcol)
				if err != nil {
					t.Fatalf("%s: restore at boundary %d: %v", label, cut, err)
				}
				cfg.apply(r)
				if r.Len() != (cut+1)*batch {
					t.Fatalf("%s: restored stream has %d records, want %d", label, r.Len(), (cut+1)*batch)
				}
				for ph := cut + 1; ph < batches; ph++ {
					got := runPhase(t, r, b, rcol, ph*batch, (ph+1)*batch)
					comparePhase(t, fmt.Sprintf("%s cut=%d phase=%d", label, cut, ph), got, baseline[ph])
				}
			}
		}
	}
}
