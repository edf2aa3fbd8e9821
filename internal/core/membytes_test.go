package core

import (
	"fmt"
	"testing"

	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/record"
)

// spotSigsPlan designs a plan over the SpotSigs builder's 2.2k records,
// whose H_1 tables hold a few hundred distinct bucket keys each.
func spotSigsPlan(t *testing.T) (*record.Dataset, *Plan, []int32) {
	t.Helper()
	b := datasets.SpotSigs(1, 0.4, 1)
	plan, err := DesignPlan(b.Dataset, b.Rule, SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]int32, b.Dataset.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	return b.Dataset, plan, recs
}

// TestRoundTablesSizedToKeys pins the bucket tables' sizing rule: a
// table holds one slot per distinct bucket key, so the tables a round
// keeps — a capture's and an export's — are sized by the keys the
// round's tables hold, not by its record count. Every kept table may
// have at most 4x the slots the round's fullest table needs at the
// maximum load (its keys over the load, unrounded); a table sized for
// every record of the round needs more once the records outnumber the
// keys 4 to 1. The later rounds of a sharded run, which take their
// tables from a pool holding round one's, are held to 4x the table
// size their fullest table needs past the first wave; reusing round
// one's tables as they are fails that.
func TestRoundTablesSizedToKeys(t *testing.T) {
	ds, plan, recs := spotSigsPlan(t)
	hf := plan.Funcs[0]
	check := func(what string, tabs []*oaTable) {
		t.Helper()
		if len(tabs) != len(hf.Tables) {
			t.Fatalf("%s: kept %d tables, want %d", what, len(tabs), len(hf.Tables))
		}
		fullest := 0
		for _, tab := range tabs {
			fullest = max(fullest, tab.used)
		}
		if 4*fullest > len(recs) {
			t.Fatalf("%s: the fullest table holds %d keys for %d records; the test needs far fewer keys than records", what, fullest, len(recs))
		}
		need := fullest * oaLoadDen / oaLoadNum
		for i, tab := range tabs {
			if len(tab.keys) > 4*need {
				t.Errorf("%s: table %d has %d slots for %d keys, want at most %d (4x the %d slots %d keys need)",
					what, i, len(tab.keys), tab.used, 4*need, need, fullest)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		bc := &BucketCapture{}
		ApplyHashOpt(ds, plan, hf, nil, recs, HashOptions{Workers: workers, MinParallel: 1, Capture: bc}, nil)
		check(fmt.Sprintf("capture, workers=%d", workers), bc.tables)
	}
	_, _, kept := ApplyHashExport(ds, plan, hf, nil, recs, nil, nil, nil)
	check("export", kept.tables)

	// A sharded run's later rounds hash each cluster of the previous
	// level under the next function, recycling round one's tables
	// through the shard's pool. Past the first wave, whose table is
	// taken with hint 0 at any size, a kept table may have at most 4x
	// the slots the round's fullest table is sized for (oaSizeFor,
	// minimum included).
	pool := NewHashPool()
	cache := NewCache(ds, len(plan.Hashers))
	frontier := [][]int32{recs}
	roundOne, small := 0, 0
	for level, f := range plan.Funcs[:min(5, len(plan.Funcs))] {
		var next [][]int32
		for _, cl := range frontier {
			if len(cl) < 2 {
				continue
			}
			subs, _, kept := ApplyHashExport(ds, plan, f, cache, cl, nil, pool, nil)
			fullest := 0
			for _, tab := range kept.tables {
				fullest = max(fullest, tab.used)
			}
			limit := 4 * oaSizeFor(fullest)
			switch {
			case level == 0:
				roundOne = len(kept.tables[0].keys)
			case limit < roundOne:
				small++ // round one's tables would be oversized here
			}
			for i, tab := range kept.tables[1:] {
				if level > 0 && len(tab.keys) > limit {
					t.Errorf("level %d, %d records: table %d has %d slots for %d keys, want at most %d (4x the %d slots %d keys need)",
						level+1, len(cl), i+1, len(tab.keys), tab.used, limit, oaSizeFor(fullest), fullest)
				}
			}
			kept.Release(pool)
			for _, sub := range subs {
				ids := make([]int32, len(sub))
				for i, li := range sub {
					ids[i] = cl[li]
				}
				next = append(next, ids)
			}
		}
		frontier = next
	}
	if small == 0 {
		t.Fatalf("no later round holds few enough keys for round one's %d-slot tables to be oversized", roundOne)
	}
}

// TestQueryIndexMemBytes pins QueryIndex.MemBytes to the lengths of
// the arrays the index retains, and HashPool.MemBytes to the pool's
// free tables and edge lists, before and after the index is released.
func TestQueryIndexMemBytes(t *testing.T) {
	ds, plan, recs := spotSigsPlan(t)
	pool := NewHashPool()
	ix := &QueryIndex{}
	if _, err := Filter(ds, plan, Options{K: 5, Workers: 2, HashPool: pool, Capture: ix}); err != nil {
		t.Fatal(err)
	}
	if !ix.Built() {
		t.Fatal("index not built")
	}
	var tables, runs int64
	for _, tab := range ix.buckets.tables {
		tables += int64(len(tab.keys)) * 16
	}
	for _, run := range ix.runs {
		runs += int64(cap(run)) * 4
	}
	// The SpotSigs rule is one Jaccard threshold: its kernel keeps one
	// set header per record.
	kernel := int64(len(recs)) * 24
	if got := ix.kernel.MemBytes(); got != kernel {
		t.Fatalf("kernel MemBytes = %d, want %d", got, kernel)
	}
	rest := int64(len(ix.recs)+cap(ix.clusterOf)) * 4
	if got, want := ix.MemBytes(), tables+runs+kernel+rest; got != want {
		t.Fatalf("MemBytes = %d, want tables %d + runs %d + kernel %d + recs and clusterOf %d = %d",
			got, tables, runs, kernel, rest, want)
	}
	if tables == 0 || runs == 0 {
		t.Fatalf("captured tables %d B, runs %d B: want both retained", tables, runs)
	}

	poolBytes := func() int64 {
		var total int64
		for _, tab := range pool.tables {
			total += int64(len(tab.keys)) * 16
		}
		for _, e := range pool.edges {
			total += int64(cap(e)) * 8
		}
		return total
	}
	if got, want := pool.MemBytes(), poolBytes(); got != want {
		t.Fatalf("pool MemBytes = %d, want %d", got, want)
	}
	before := pool.MemBytes()
	ix.Release(pool)
	if got, want := ix.MemBytes(), runs+rest; got != want {
		t.Fatalf("released MemBytes = %d, want runs %d + recs and clusterOf %d", got, runs, rest)
	}
	if got, want := pool.MemBytes(), before+tables; got != want {
		t.Fatalf("pool MemBytes after release = %d, want %d + the released tables' %d", got, before, tables)
	}
}
