package shard

import "github.com/topk-er/adalsh/internal/core"

// Attach binds a sharded engine to a core.Stream as its hashing rounds
// (core.Stream.SetRounder): every subsequent TopK/TopKClusters call on
// the stream runs core's loop with the engine's rounds — P concurrent
// shards plus the reconcile pass — instead of the single engine's, with
// byte-identical results. The engine persists across calls, so the
// per-shard signature caches amortize hashing over the growing stream
// exactly as the built-in cache does, and the stream's
// CachedHashEvals sums them.
//
// The stream's options reach the loop unchanged: SetWorkers bounds the
// number of concurrently hashing shards and reconcile probe workers as
// well as the pairwise pool, SetObs feeds the loop's and the engine's
// spans and counters. Point queries (Stream.Query) are unavailable while
// an engine is attached — the sharded rounds retain no bucket capture —
// and return core.ErrNoQueryIndex; serving layers surface that as "no
// index" exactly as for a stream before its first TopK.
//
// Attach(st, 1) is valid (one shard, still reconciled) but pointless
// outside tests; shards < 1 is an error.
func Attach(st *core.Stream, shards int) (*Engine, error) {
	e, err := New(st.Dataset(), Options{Shards: shards})
	if err != nil {
		return nil, err
	}
	st.SetRounder(e)
	return e, nil
}
