package snapio_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/snapio"
	"github.com/topk-er/adalsh/internal/xhash"
)

func jacRule() distance.Rule {
	return distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
}

// addEntities feeds the stream members records each for entities
// synthetic entities: per entity a random base set with one element
// perturbed per member, so members match under jacRule.
func addEntities(s *core.Stream, rng *xhash.RNG, entities, members, baseElems int) {
	for e := 0; e < entities; e++ {
		base := make([]uint64, baseElems)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for m := 0; m < members; m++ {
			elems := append([]uint64(nil), base...)
			elems[int(rng.Uint64()%uint64(len(elems)))] = rng.Uint64()
			s.AddWithTruth(e, record.NewSet(elems))
		}
	}
}

// testStream builds a stream over a small synthetic dataset and runs
// one TopK so a plan and warm cache exist.
func testStream(t *testing.T, seed uint64) *core.Stream {
	t.Helper()
	s := core.NewStream(jacRule(), core.SequenceConfig{Seed: seed, Levels: 4})
	addEntities(s, xhash.NewRNG(seed), 20, 4, 12)
	if _, err := s.TopK(3); err != nil {
		t.Fatal(err)
	}
	return s
}

func snapshotBytes(t *testing.T, s *core.Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := snapio.Snapshot(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenState is a fully hand-built stream state: no wall-clock cost
// calibration anywhere, so its encoding is canonical and the golden
// fixture pins the v1 format bytes.
func goldenState(t testing.TB) *core.StreamState {
	desc := lshfamily.Desc{Kind: lshfamily.KindMinHash, Field: 0, MaxFuncs: 40, Seed: 7}
	h, err := desc.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan := &core.Plan{
		Rule:        jacRule(),
		Hashers:     []lshfamily.Hasher{h},
		HasherDescs: []lshfamily.Desc{desc},
		Funcs: []*core.HashFunc{
			{Seq: 1, Budget: 20, Label: "(w=10,z=2)", FuncsPerHasher: []int{20}, Tables: []core.Table{
				{Parts: []core.TablePart{{Hasher: 0, Start: 0, Count: 10}}},
				{Parts: []core.TablePart{{Hasher: 0, Start: 10, Count: 10}}},
			}},
			{Seq: 2, Budget: 40, Label: "(w=10,z=4)", FuncsPerHasher: []int{40}, Tables: []core.Table{
				{Parts: []core.TablePart{{Hasher: 0, Start: 0, Count: 10}}},
				{Parts: []core.TablePart{{Hasher: 0, Start: 10, Count: 10}}},
				{Parts: []core.TablePart{{Hasher: 0, Start: 20, Count: 10}}},
				{Parts: []core.TablePart{{Hasher: 0, Start: 30, Count: 10}}},
			}},
		},
		Cost: core.CostModel{CostP: 2.5, CostFunc: []float64{0.25}},
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ds := &record.Dataset{Name: "golden"}
	ds.Add(0, record.Set{2, 3, 5})
	ds.Add(0, record.Set{2, 3, 7})
	ds.Add(1, record.Set{11, 13, 17, 19})
	vals := make([]uint64, 45)
	for i := range vals {
		vals[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	return &core.StreamState{
		Rule:    plan.Rule,
		Config:  core.SequenceConfig{Seed: 7, Levels: 2},
		Dataset: ds,
		Plan:    plan,
		Cache: &core.CacheState{
			Lens:   [][]int32{{20, 20, 5}},
			Vals:   [][]uint64{vals},
			Evals:  []int64{45},
			Hits:   7,
			Misses: 5,
		},
		PlannedAt: 3, Replans: 1, ReplanGrowth: 2.5,
		QueryK: 2, QueryKhat: 3, QueryProbes: 2, QueryRefresh: -1,
	}
}

// TestSnapshotRoundTrip snapshots a live stream, restores it, and
// checks every piece of persisted state survives exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	s := testStream(t, 41)
	blob := snapshotBytes(t, s)
	r, err := snapio.Restore(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored %d records, want %d", r.Len(), s.Len())
	}
	if !reflect.DeepEqual(r.CachedHashEvals(), s.CachedHashEvals()) {
		t.Fatalf("restored HashEvals %v, want %v", r.CachedHashEvals(), s.CachedHashEvals())
	}
	if r.Plan() == nil {
		t.Fatal("restored stream has no plan")
	}
	if !reflect.DeepEqual(r.Plan().HasherDescs, s.Plan().HasherDescs) {
		t.Fatalf("restored hasher descs differ")
	}
	if got, want := r.Plan().Cost.CostP, s.Plan().Cost.CostP; got != want {
		t.Fatalf("restored CostP %v, want %v (calibration must not rerun)", got, want)
	}
	if r.Replans() != s.Replans() {
		t.Fatalf("restored replans %d, want %d", r.Replans(), s.Replans())
	}
	// The restored stream answers the same query identically.
	want, err := s.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatalf("restored clusters differ from original")
	}
	if got.Stats.ModelCost != want.Stats.ModelCost {
		t.Fatalf("restored ModelCost %v, want %v", got.Stats.ModelCost, want.Stats.ModelCost)
	}
	if !reflect.DeepEqual(got.Stats.HashEvals, want.Stats.HashEvals) {
		t.Fatalf("restored run HashEvals %v, want %v", got.Stats.HashEvals, want.Stats.HashEvals)
	}
}

// TestSnapshotRoundTripFreshStream covers the no-plan state: a stream
// snapshotted before its first TopK restores cold and designs lazily.
func TestSnapshotRoundTripFreshStream(t *testing.T) {
	s := core.NewStream(jacRule(), core.SequenceConfig{Seed: 5, Levels: 3})
	addEntities(s, xhash.NewRNG(5), 6, 3, 10)
	blob := snapshotBytes(t, s)
	r, err := snapio.Restore(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan() != nil {
		t.Fatal("fresh stream restored with a plan")
	}
	if r.Len() != s.Len() {
		t.Fatalf("restored %d records, want %d", r.Len(), s.Len())
	}
	if _, err := r.TopK(2); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCanonical: encoding is deterministic, and a restored
// stream re-snapshots to byte-identical output (save/restore/save is a
// fixed point).
func TestSnapshotCanonical(t *testing.T) {
	s := testStream(t, 43)
	first := snapshotBytes(t, s)
	second := snapshotBytes(t, s)
	if !bytes.Equal(first, second) {
		t.Fatal("two snapshots of the same stream differ")
	}
	r, err := snapio.Restore(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	again := snapshotBytes(t, r)
	if !bytes.Equal(first, again) {
		t.Fatal("snapshot of a restored stream differs from the original snapshot")
	}
}

// TestSnapshotLayoutMatrix round-trips snapshots as written under
// either memory layout — arena+oa (layout bytes 0) and the retired
// legacy slice-cache/map-table layout (layout bytes 1, as sessions on
// it wrote them) — at serial and parallel worker counts, and checks
// the continued runs stay byte-identical to the originals.
func TestSnapshotLayoutMatrix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		legacy  bool
		workers int
	}{
		{"arena+oa/serial", false, 1},
		{"legacy/serial", true, 1},
		{"arena+oa/parallel", false, 4},
		{"legacy/parallel", true, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := core.NewStream(jacRule(), core.SequenceConfig{Seed: 11, Levels: 4})
			s.SetWorkers(tc.workers, 0)
			s.SetHashMinParallel(1)
			addEntities(s, xhash.NewRNG(11), 16, 4, 12)
			if _, err := s.TopK(3); err != nil {
				t.Fatal(err)
			}
			blob := snapshotBytes(t, s)
			if tc.legacy {
				blob = withLayoutBytes(t, blob, 1)
			}
			r, err := snapio.Restore(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			r.SetWorkers(tc.workers, 0)
			r.SetHashMinParallel(1)
			want, err := s.TopK(3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.TopK(3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Clusters, want.Clusters) {
				t.Fatal("restored clusters differ")
			}
			if !reflect.DeepEqual(r.CachedHashEvals(), s.CachedHashEvals()) {
				t.Fatalf("cumulative HashEvals diverged: %v vs %v", r.CachedHashEvals(), s.CachedHashEvals())
			}
		})
	}
}

// TestVersionMismatchMessage pins the error: both the found and the
// supported version must be present (the planio counterpart message is
// pinned in that package's tests).
func TestVersionMismatchMessage(t *testing.T) {
	blob := snapshotBytes(t, testStream(t, 47))
	blob[8] = 99 // the version u32 follows the 8-byte magic
	_, err := snapio.ReadState(bytes.NewReader(blob))
	if err == nil {
		t.Fatal("ReadState accepted a bumped format version")
	}
	want := "snapio: snapshot format version 99, this build reads 1"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("version mismatch error %q, want it to contain %q", err, want)
	}
}

func TestBadMagic(t *testing.T) {
	_, err := snapio.ReadState(strings.NewReader("NOTASNAPxxxxxxxxxxxx"))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic error = %v", err)
	}
}

// TestTruncatedRejected: every proper prefix of a valid snapshot must
// fail to load (the footer's body count and checksum catch clean cuts
// that land on section boundaries).
func TestTruncatedRejected(t *testing.T) {
	blob := snapshotBytes(t, testStream(t, 53))
	step := len(blob)/97 + 1
	for cut := 0; cut < len(blob); cut += step {
		if _, err := snapio.ReadState(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("ReadState accepted a %d/%d-byte truncation", cut, len(blob))
		}
	}
	// The last few bytes individually: cutting inside the footer.
	for cut := len(blob) - 21; cut < len(blob); cut++ {
		if _, err := snapio.ReadState(bytes.NewReader(blob[:cut])); err == nil {
			t.Fatalf("ReadState accepted a %d/%d-byte truncation", cut, len(blob))
		}
	}
}

// TestBitFlipRejected: the footer checksum rejects corruption anywhere
// in the body, and corrupting the footer itself breaks its comparison
// values.
func TestBitFlipRejected(t *testing.T) {
	blob := snapshotBytes(t, testStream(t, 59))
	step := len(blob)/211 + 1
	for off := 0; off < len(blob); off += step {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x40
		if _, err := snapio.ReadState(bytes.NewReader(mut)); err == nil {
			t.Fatalf("ReadState accepted a bit flip at offset %d/%d", off, len(blob))
		}
	}
}

// failAfter errors once n bytes were written — the "process died
// mid-snapshot" writer.
type failAfter struct {
	n    int
	boom error
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.boom
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.boom
	}
	w.n -= len(p)
	return len(p), nil
}

// TestSnapshotFailingWriter: a snapshot cut short by a failing writer
// reports the error, and the partial output is rejected on load.
func TestSnapshotFailingWriter(t *testing.T) {
	s := testStream(t, 61)
	full := snapshotBytes(t, s)
	boom := errors.New("disk full")
	for _, cut := range []int{0, 1, 7, 16, 100, len(full) / 2, len(full) - 1} {
		var buf bytes.Buffer
		w := io_MultiWriterLimit(&buf, cut, boom)
		if err := snapio.Snapshot(w, s); !errors.Is(err, boom) {
			t.Fatalf("cut at %d: Snapshot error = %v, want %v", cut, err, boom)
		}
		if _, err := snapio.ReadState(bytes.NewReader(buf.Bytes())); err == nil {
			t.Fatalf("cut at %d: partial snapshot accepted on load", cut)
		}
	}
}

// io_MultiWriterLimit tees writes into buf while failing after n bytes.
func io_MultiWriterLimit(buf *bytes.Buffer, n int, boom error) *teeFail {
	return &teeFail{buf: buf, fail: failAfter{n: n, boom: boom}}
}

type teeFail struct {
	buf  *bytes.Buffer
	fail failAfter
}

func (w *teeFail) Write(p []byte) (int, error) {
	n, err := w.fail.Write(p)
	w.buf.Write(p[:n])
	return n, err
}

func TestWriteErrorMentionsCause(t *testing.T) {
	boom := fmt.Errorf("no space left on device")
	err := snapio.Snapshot(&failAfter{n: 3, boom: boom}, testStream(t, 67))
	if err == nil || !strings.Contains(err.Error(), "no space left on device") {
		t.Fatalf("Snapshot error %v does not surface the writer failure", err)
	}
}
