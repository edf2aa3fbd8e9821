package core_test

import (
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
)

// ophSigElems mirrors the OPH block layout (16, 16, 32, 64, ... capped
// at maxFn): a prefix extension pays one element pass plus the bin
// count for every block intersecting [lo, hi), independent of how much
// of each block the window covers.
func ophSigElems(s, lo, hi, maxFn int) int64 {
	var n int64
	width := 16
	for i, blo := 0, 0; blo < maxFn; i++ {
		bhi := blo + width
		if bhi > maxFn {
			bhi = maxFn
		}
		if bhi > lo && blo < hi {
			n += int64(s) + int64(bhi-blo)
		}
		blo = bhi
		if i >= 1 {
			width *= 2
		}
	}
	return n
}

// TestSigElemsCounterIdentity pins the sig_elems_hashed accounting of
// both signature families through Cache.Ensure: a classic prefix
// extension from have to n over a set of s elements hashes s*(n-have)
// elements (n-have sentinel writes when the set is empty), while OPH
// pays one element pass plus the bin count for every signature block
// the extension touches. Repeat lookups at or under the cached prefix
// must not move the counter.
func TestSigElemsCounterIdentity(t *testing.T) {
	ds := clusteredSetDataset(t, []int{5, 3, 2}, 7)
	for _, oph := range []bool{false, true} {
		rule := jaccardRule()
		if oph {
			rule = distance.WithJaccardOPH(rule)
		}
		plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		cache := core.NewCache(ds, len(plan.Hashers))
		var want int64
		have := make(map[[2]int]int)
		ensure := func(h, rec, n int) {
			t.Helper()
			cache.Ensure(plan, h, rec, n)
			prev := have[[2]int{h, rec}]
			if n <= prev {
				return // cache hit: no hashing, no element work
			}
			s := ds.Records[rec].Fields[0].Len()
			switch {
			case oph:
				want += ophSigElems(s, prev, n, plan.Hashers[h].MaxFunctions())
			case s == 0:
				want += int64(n - prev)
			default:
				want += int64(s) * int64(n-prev)
			}
			have[[2]int{h, rec}] = n
		}
		for h := range plan.Hashers {
			maxFn := plan.Hashers[h].MaxFunctions()
			step := maxFn / 3
			if step < 1 {
				step = 1
			}
			ensure(h, 0, step)
			ensure(h, 0, step) // repeat: hit
			ensure(h, 0, maxFn)
			ensure(h, 0, step) // shorter prefix: hit
			ensure(h, 4, step)
			ensure(h, 7, maxFn)
		}
		if got := cache.SigElemsHashed(); got != want {
			t.Errorf("oph %v: SigElemsHashed = %d, want %d", oph, got, want)
		}
	}
}

// TestSigElemsCounterReported checks the end-to-end wiring: a filter
// run reports a positive sig_elems_hashed through the obs sink for
// both families, and the OPH family's count is below classic's on the
// same problem (the tentpole's whole point).
func TestSigElemsCounterReported(t *testing.T) {
	ds := clusteredSetDataset(t, []int{40, 30, 20, 12, 8, 5, 3, 2}, 83)
	count := func(rule distance.Rule) int64 {
		t.Helper()
		plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		col := obs.NewCollector()
		if _, err := core.Filter(ds, plan, core.Options{K: 3, Obs: col}); err != nil {
			t.Fatal(err)
		}
		return col.Counter(obs.CtrSigElemsHashed)
	}
	classic := count(jaccardRule())
	oph := count(distance.WithJaccardOPH(jaccardRule()))
	if classic <= 0 || oph <= 0 {
		t.Fatalf("sig_elems_hashed not reported: classic %d, oph %d", classic, oph)
	}
	if oph >= classic {
		t.Errorf("oph hashed %d set elements, classic %d: expected fewer", oph, classic)
	}
}
