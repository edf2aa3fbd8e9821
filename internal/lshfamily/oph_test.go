package lshfamily

import (
	"math"
	"os"
	"testing"
	"time"

	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// batchCollisionRate is collisionRate over the batched signatures —
// the only affordable form for large bin counts, since Hash
// recomputes the function's whole block per call.
func batchCollisionRate(h BatchHasher, a, b *record.Record, n int) float64 {
	sa := make([]uint64, n)
	sb := make([]uint64, n)
	h.HashBatch(0, n, a, sa)
	h.HashBatch(0, n, b, sb)
	match := 0
	for i := range sa {
		if sa[i] == sb[i] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// TestOPHCollisionProbability pins the collision law P(collide) = sim
// at high precision. Each permutation block carries at most ~|union|
// independent collision samples regardless of its bin count (densified
// bins echo occupied ones), so unlike the classic-MinHash test the
// sets must be large for a tight bound: union 9000 over 8192 bins
// keeps most bins of every block occupied, i.e. sigma ~ 0.006 on
// sim 1/3.
func TestOPHCollisionProbability(t *testing.T) {
	const bins = 8192
	h := NewOnePermMinHash(0, bins, 5)
	rng := xhash.NewRNG(3)
	union := make([]uint64, 9000)
	for i := range union {
		union[i] = rng.Uint64()
	}
	a := setRecord(union[:6000]...) // shares union[3000:6000] with b
	b := setRecord(union[3000:]...) // jaccard sim 3000/9000 = 1/3
	got := batchCollisionRate(h, a, b, bins)
	if math.Abs(got-1.0/3) > 0.03 {
		t.Errorf("collision rate %.3f, want 0.333 +- 0.03", got)
	}
	if batchCollisionRate(h, a, a, bins) != 1 {
		t.Error("identical sets must always collide")
	}
}

// TestOPHCollisionDifferential is the statistical differential suite:
// on fuzzed set pairs the per-bin collision frequency must match the
// exact Jaccard similarity within a confidence bound. Each permutation
// block contributes at most min(union, block bins) independent
// samples — the occupied bins carry the information and the densified
// bins re-sample them — so min(union, bins) lower-bounds the total
// and the bound is 4 binomial standard errors at that count plus
// slack.
func TestOPHCollisionDifferential(t *testing.T) {
	const bins = 4096
	h := NewOnePermMinHash(0, bins, 99)
	rng := xhash.NewRNG(1234)
	for pair := 0; pair < 40; pair++ {
		union := 2 + rng.Intn(200)
		overlap := rng.Intn(union + 1)
		elems := make([]uint64, union)
		for i := range elems {
			elems[i] = rng.Uint64()
		}
		// a takes a prefix, b a suffix, sharing `overlap` elements.
		na := overlap + rng.Intn(union-overlap+1)
		if na == 0 {
			na = 1
		}
		a := setRecord(elems[:na]...)
		b := setRecord(elems[na-overlap:]...)
		sa, sb := a.Fields[0].(record.Set), b.Fields[0].(record.Set)
		inter := 0
		for _, e := range sa {
			for _, f := range sb {
				if e == f {
					inter++
				}
			}
		}
		u := len(sa) + len(sb) - inter
		sim := float64(inter) / float64(u)
		got := batchCollisionRate(h, a, b, bins)
		eff := float64(min(u, bins))
		bound := 4*math.Sqrt(sim*(1-sim)/eff) + 0.02
		if math.Abs(got-sim) > bound {
			t.Errorf("pair %d (|a|=%d |b|=%d sim %.3f): collision rate %.3f off by more than %.3f",
				pair, len(sa), len(sb), sim, got, bound)
		}
	}
}

func TestOPHDeterministic(t *testing.T) {
	a := NewOnePermMinHash(0, 64, 9)
	b := NewOnePermMinHash(0, 64, 9)
	r := setRecord(3, 1, 4, 1, 5, 9, 2, 6)
	for fn := 0; fn < 64; fn++ {
		if a.Hash(fn, r) != b.Hash(fn, r) {
			t.Fatalf("same-seed OPH hashers disagree at fn %d", fn)
		}
	}
	c := NewOnePermMinHash(0, 64, 10)
	same := 0
	for fn := 0; fn < 64; fn++ {
		if a.Hash(fn, r) == c.Hash(fn, r) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different seeds produced identical signatures")
	}
}

// TestOPHHashMatchesBatch pins the purity contract the signature cache
// depends on: Hash(fn, r) equals the batched signature at fn, for full
// and partial (suffix re-hash) ranges alike.
func TestOPHHashMatchesBatch(t *testing.T) {
	const bins = 48
	h := NewOnePermMinHash(0, bins, 21)
	recs := []*record.Record{
		setRecord(),
		setRecord(7),
		setRecord(1, 2, 3),
		setRecord(10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120),
	}
	for ri, r := range recs {
		full := make([]uint64, bins)
		h.HashBatch(0, bins, r, full)
		for fn := 0; fn < bins; fn++ {
			if got := h.Hash(fn, r); got != full[fn] {
				t.Fatalf("record %d fn %d: Hash %d != batch %d", ri, fn, got, full[fn])
			}
		}
		for _, rg := range [][2]int{{0, 1}, {5, 13}, {bins - 3, bins}, {17, 17}} {
			lo, hi := rg[0], rg[1]
			part := make([]uint64, hi-lo)
			h.HashBatch(lo, hi, r, part)
			for i, v := range part {
				if v != full[lo+i] {
					t.Fatalf("record %d range [%d,%d) pos %d: %d != full %d", ri, lo, hi, i, v, full[lo+i])
				}
			}
		}
	}
}

func TestOPHEmptySets(t *testing.T) {
	h := NewOnePermMinHash(0, 32, 3)
	empty := setRecord()
	other := setRecord(1, 2, 3)
	for fn := 0; fn < 32; fn++ {
		if h.Hash(fn, empty) != h.Hash(fn, empty) {
			t.Fatal("empty-set hash not deterministic")
		}
	}
	collide := 0
	for fn := 0; fn < 32; fn++ {
		if h.Hash(fn, empty) == h.Hash(fn, other) {
			collide++
		}
	}
	if collide != 0 {
		t.Errorf("empty set collided with non-empty %d/32 times", collide)
	}
	if collisionRate(h, empty, empty, 32) != 1 {
		t.Error("two empty sets must always collide")
	}
}

// TestOPHProbeAlts mirrors TestProbeAltsMinHash per bin: the
// alternative is the bin's second minimum — where a neighbor missing
// exactly the minimizing element would land — and densified or
// single-element bins have no alternative. Penalties must order
// exactly like the min1..min2 gaps (probe monotonicity).
func TestOPHProbeAlts(t *testing.T) {
	const bins = 32
	o := NewOnePermMinHash(0, bins, 5)
	elems := make([]uint64, 96)
	rng := xhash.NewRNG(7)
	for i := range elems {
		elems[i] = rng.Uint64()
	}
	full := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
	set := full.Fields[0].(record.Set)
	base := make([]uint64, bins)
	alts := make([]ProbeAlt, bins)
	HashRange(o, 0, bins, full, base)
	ProbeRange(o, 0, bins, full, alts)
	type gapPen struct {
		gap uint64
		pen float64
	}
	var finite []gapPen
	for fn := 0; fn < bins; fn++ {
		if math.IsInf(alts[fn].Penalty, 1) {
			continue
		}
		if alts[fn].Alt <= base[fn] {
			t.Fatalf("fn %d: second minimum %d not greater than minimum %d", fn, alts[fn].Alt, base[fn])
		}
		if alts[fn].Penalty < 0 || alts[fn].Penalty >= 1 {
			t.Fatalf("fn %d: penalty %v outside [0,1)", fn, alts[fn].Penalty)
		}
		// Removing the minimizing element must shift the bin to Alt.
		var reduced []uint64
		for _, e := range set {
			if o.Hash(fn, setRecord(e)) != base[fn] {
				reduced = append(reduced, e)
			}
		}
		if got := o.Hash(fn, setRecord(reduced...)); got != alts[fn].Alt {
			t.Fatalf("fn %d: hash without minimizer %d, want alt %d", fn, got, alts[fn].Alt)
		}
		finite = append(finite, gapPen{alts[fn].Alt - base[fn], alts[fn].Penalty})
	}
	if len(finite) < bins/2 {
		t.Fatalf("only %d/%d bins have alternatives; workload too sparse for the test", len(finite), bins)
	}
	for i := range finite {
		for j := range finite {
			if finite[i].gap < finite[j].gap && finite[i].pen >= finite[j].pen {
				t.Fatalf("penalty not monotone in the min-gap: gap %d pen %v vs gap %d pen %v",
					finite[i].gap, finite[i].pen, finite[j].gap, finite[j].pen)
			}
		}
	}
	for _, small := range []*record.Record{setRecord(), setRecord(42)} {
		ProbeRange(o, 0, bins, small, alts)
		for fn := 0; fn < bins; fn++ {
			if !math.IsInf(alts[fn].Penalty, 1) {
				t.Fatalf("set of %d elements: fn %d penalty %v, want +Inf", small.Fields[0].Len(), fn, alts[fn].Penalty)
			}
		}
	}
}

func TestOPHSigElems(t *testing.T) {
	o := NewOnePermMinHash(0, 16, 1)
	r := setRecord(1, 2, 3, 4, 5)
	if got := SigElems(o, 0, 16, r); got != 5+16 {
		t.Errorf("oph SigElems = %d, want %d", got, 5+16)
	}
	if got := SigElems(o, 3, 7, r); got != 5+16 {
		t.Errorf("oph partial-range SigElems = %d, want %d (whole-block pass per extension)", got, 5+16)
	}
	if got := SigElems(o, 7, 7, r); got != 0 {
		t.Errorf("empty-range SigElems = %d, want 0", got)
	}
	// 64 bins split into blocks 16, 16, 32: a full range pays one
	// element pass per block; a window inside the first two blocks
	// pays for exactly those two.
	o64 := NewOnePermMinHash(0, 64, 1)
	if got := SigElems(o64, 0, 64, r); got != 3*5+64 {
		t.Errorf("oph 64-bin SigElems = %d, want %d", got, 3*5+64)
	}
	if got := SigElems(o64, 10, 20, r); got != 2*5+32 {
		t.Errorf("oph block-spanning SigElems = %d, want %d", got, 2*5+32)
	}
	m := NewMinHash(0, 16, 1)
	if got := SigElems(m, 2, 10, r); got != 5*8 {
		t.Errorf("classic SigElems = %d, want %d", got, 5*8)
	}
	if got := SigElems(m, 2, 10, setRecord()); got != 8 {
		t.Errorf("classic empty-set SigElems = %d, want 8", got)
	}
	// A hasher without the interface counts zero.
	if got := SigElems(plainHasher{m}, 0, 16, r); got != 0 {
		t.Errorf("plain hasher SigElems = %d, want 0", got)
	}
	// WeightedMix sums its sub-hashers' counts over choice runs.
	subs := []Hasher{NewMinHash(0, 16, 1), NewMinHash(1, 16, 2)}
	mix := NewWeightedMix(subs, []float64{0.5, 0.5}, 16, 3)
	two := &record.Record{Fields: []record.Field{
		record.NewSet([]uint64{1, 2, 3}),
		record.NewSet([]uint64{10, 11, 12, 13}),
	}}
	want := int64(0)
	for fn := 0; fn < 16; fn++ {
		want += SigElems(subs[mix.choice[fn]], fn, fn+1, two)
	}
	if got := SigElems(mix, 0, 16, two); got != want {
		t.Errorf("mix SigElems = %d, want %d", got, want)
	}
}

func TestOPHCalibrationWindow(t *testing.T) {
	if got := NewOnePermMinHash(0, 64, 1).CalibrationWindow(); got != 8 {
		t.Errorf("CalibrationWindow(64 bins) = %d, want 8", got)
	}
	if got := NewOnePermMinHash(0, 4, 1).CalibrationWindow(); got != 1 {
		t.Errorf("CalibrationWindow(4 bins) = %d, want 1", got)
	}
}

func TestOPHPanicsOnZeroBins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on 0 bins")
		}
	}()
	NewOnePermMinHash(0, 0, 1)
}

func TestOPHName(t *testing.T) {
	if NewOnePermMinHash(2, 4, 0).Name() == "" {
		t.Fatal("empty hasher name")
	}
	if NewOnePermMinHash(0, 4, 0).MaxFunctions() != 4 {
		t.Fatal("bad MaxFunctions")
	}
}

// FuzzOPHDensify drives the signature and densification paths through
// arbitrary element sets and bin counts: no panic, pure (two calls
// agree), and Hash consistent with the batch on every bin — including
// the empty-set, single-element, everything-in-one-bin and one-bin
// edges seeded below.
func FuzzOPHDensify(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{})
	f.Add(uint64(2), uint8(0), []byte{1})
	f.Add(uint64(3), uint8(63), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(4), uint8(1), []byte{9, 9, 9, 9, 9, 9, 9, 9, 1})
	f.Add(uint64(5), uint8(127), []byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, binsRaw uint8, data []byte) {
		bins := int(binsRaw)%128 + 1
		elems := make([]uint64, 0, len(data)/8+1)
		for len(data) >= 8 {
			var e uint64
			for i := 0; i < 8; i++ {
				e = e<<8 | uint64(data[i])
			}
			elems = append(elems, e)
			data = data[8:]
		}
		r := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
		o := NewOnePermMinHash(0, bins, seed)
		out1 := make([]uint64, bins)
		out2 := make([]uint64, bins)
		o.HashBatch(0, bins, r, out1)
		o.HashBatch(0, bins, r, out2)
		for i := range out1 {
			if out1[i] != out2[i] {
				t.Fatalf("bin %d: repeated signatures disagree (%d vs %d)", i, out1[i], out2[i])
			}
			if o.Hash(i, r) != out1[i] {
				t.Fatalf("bin %d: Hash != batch", i)
			}
		}
	})
}

// TestOPHSpeedGate asserts the tentpole speedup on hardware: at K=64
// bins and 32-element sets the blocked OPH signature must be at least
// 5x cheaper per record than the classic per-function family (the
// work-unit gap is |S|*K over one element pass per block plus the
// bins, 2048/160 ~ 13x here). Timing-based, so gated behind
// RUN_OPH_SPEED_GATE=1 like the alloc budget.
func TestOPHSpeedGate(t *testing.T) {
	if os.Getenv("RUN_OPH_SPEED_GATE") == "" {
		t.Skip("set RUN_OPH_SPEED_GATE=1 to run the timing gate")
	}
	const bins, setLen, rounds = 64, 32, 20000
	elems := make([]uint64, setLen)
	rng := xhash.NewRNG(11)
	for i := range elems {
		elems[i] = rng.Uint64()
	}
	r := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
	classic := NewMinHash(0, bins, 1)
	oph := NewOnePermMinHash(0, bins, 1)
	out := make([]uint64, bins)
	time.Sleep(0) // yield once before timing
	measure := func(h BatchHasher) time.Duration {
		h.HashBatch(0, bins, r, out) // warm up
		start := time.Now()
		for i := 0; i < rounds; i++ {
			h.HashBatch(0, bins, r, out)
		}
		return time.Since(start)
	}
	tc := measure(classic)
	to := measure(oph)
	t.Logf("classic %.0f ns/record, oph %.0f ns/record (%.1fx)",
		float64(tc.Nanoseconds())/rounds, float64(to.Nanoseconds())/rounds,
		float64(tc)/float64(to))
	if float64(tc) < 5*float64(to) {
		t.Errorf("OPH speedup %.2fx below the 5x gate (classic %v, oph %v)",
			float64(tc)/float64(to), tc, to)
	}
}

// BenchmarkOPH vs BenchmarkClassicMinHashBatch: the tentpole A/B at
// K=64 functions over 32-element sets. ns/op here is ns/record for a
// full-signature pass.
func BenchmarkOPH(b *testing.B) {
	const bins, setLen = 64, 32
	elems := make([]uint64, setLen)
	rng := xhash.NewRNG(11)
	for i := range elems {
		elems[i] = rng.Uint64()
	}
	r := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
	h := NewOnePermMinHash(0, bins, 1)
	out := make([]uint64, bins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashBatch(0, bins, r, out)
	}
}

func BenchmarkClassicMinHashBatch(b *testing.B) {
	const bins, setLen = 64, 32
	elems := make([]uint64, setLen)
	rng := xhash.NewRNG(11)
	for i := range elems {
		elems[i] = rng.Uint64()
	}
	r := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
	h := NewMinHash(0, bins, 1)
	out := make([]uint64, bins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.HashBatch(0, bins, r, out)
	}
}

// BenchmarkWeightedMixBatch exercises the run-grouped mixed batch: two
// set fields, 64 functions, sub-batches delegated per choice run.
func BenchmarkWeightedMixBatch(b *testing.B) {
	const n = 64
	subs := []Hasher{NewMinHash(0, n, 1), NewMinHash(1, n, 2)}
	mix := NewWeightedMix(subs, []float64{0.6, 0.4}, n, 3)
	rng := xhash.NewRNG(13)
	mkSet := func(sz int) record.Set {
		elems := make([]uint64, sz)
		for i := range elems {
			elems[i] = rng.Uint64()
		}
		return record.NewSet(elems)
	}
	r := &record.Record{Fields: []record.Field{mkSet(24), mkSet(16)}}
	out := make([]uint64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mix.HashBatch(0, n, r, out)
	}
}
