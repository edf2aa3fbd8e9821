package shard

import (
	"fmt"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/record"
)

// Attach binds a sharded engine to a core.Stream: every subsequent
// TopK/TopKClusters call on the stream runs through the engine — P
// concurrent shards plus the reconcile pass — instead of the built-in
// single engine, with byte-identical results. The engine persists
// across calls, so the per-shard signature caches amortize hashing
// over the growing stream exactly as the built-in cache does.
//
// The stream's runtime knobs keep working: SetWorkers bounds the
// number of concurrently hashing shards and reconcile probe workers,
// SetObs feeds the engine's spans and counters. Point queries
// (Stream.Query) are unavailable while an engine is attached — the
// sharded engine retains no bucket capture — and return
// core.ErrNoQueryIndex; serving layers surface that as "no index"
// exactly as for a stream before its first TopK.
//
// Attach(st, 1) is valid (one shard, still reconciled) but pointless
// outside tests; shards < 1 is an error.
func Attach(st *core.Stream, shards int) (*Engine, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: attach with %d shards, want >= 1", shards)
	}
	e, err := New(st.Dataset(), Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	st.SetEngine(func(ds *record.Dataset, plan *core.Plan, o core.Options) (*core.Result, error) {
		e.opts = Options{
			Shards:           shards,
			K:                o.K,
			ReturnClusters:   o.ReturnClusters,
			Workers:          o.Workers,
			PairwiseMinPairs: o.PairwiseMinPairs,
			MemSample:        o.MemSample,
			Obs:              o.Obs,
			OnRound:          o.OnRound,
		}
		return e.Filter(plan)
	})
	return e, nil
}
