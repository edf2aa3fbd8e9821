package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// TestBenchReportDeterministicCounters runs the paperbench
// serial-vs-parallel benchmark on the smallest dataset and checks the
// BENCH contract: the parallel run's counters equal the serial run's
// exactly, and the report round-trips through its JSON form.
func TestBenchReportDeterministicCounters(t *testing.T) {
	p := NewProvider(42)
	rep, err := Bench(p, "cora", p.Cora(1), 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bad := rep.CounterMismatch(); len(bad) > 0 {
		t.Fatalf("serial and parallel counters diverge: %v\nserial: %v\nparallel: %v",
			bad, rep.Serial.Counters, rep.Parallel.Counters)
	}
	if rep.Serial.HashEvals == 0 || rep.Serial.PairsComputed == 0 {
		t.Fatalf("empty serial work accounting: %+v", rep.Serial)
	}
	if rep.Serial.Workers != 1 || rep.Parallel.Workers != 4 {
		t.Fatalf("workers: serial %d, parallel %d", rep.Serial.Workers, rep.Parallel.Workers)
	}
	if len(rep.Serial.Stages) == 0 {
		t.Fatal("serial run recorded no stage spans")
	}
	if rep.Restore.SnapshotBytes == 0 || rep.Restore.ColdMS == 0 || rep.Restore.WarmMS == 0 {
		t.Fatalf("empty restore accounting: %+v", rep.Restore)
	}
	if rep.Restore.WarmHashEvals != 0 {
		t.Fatalf("warm re-query evaluated %d base hashes, want 0", rep.Restore.WarmHashEvals)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Dataset != "cora" || back.Serial.HashEvals != rep.Serial.HashEvals {
		t.Fatalf("JSON round-trip mangled the report: %+v", back)
	}
	checkHardwareContext(t, buf.Bytes(), "speedup_is_overlap", 4)
}

// checkHardwareContext pins a report's hardware context: gomaxprocs and
// num_cpu as the runtime reports them, and the overlap flag set exactly
// when either is below the parallel run's concurrency.
func checkHardwareContext(t *testing.T, report []byte, flag string, parallel int) {
	t.Helper()
	var fields map[string]any
	if err := json.Unmarshal(report, &fields); err != nil {
		t.Fatal(err)
	}
	procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU()
	want := map[string]any{
		"gomaxprocs": float64(procs),
		"num_cpu":    float64(cpus),
		flag:         min(procs, cpus) < parallel,
	}
	for name, v := range want {
		if fields[name] != v {
			t.Errorf("report field %s = %v, want %v", name, fields[name], v)
		}
	}
}

// TestScaleReportHardwareContext runs the scale benchmark at toy size
// with more shards than the machine has CPUs, where the hash ratio must
// read as overlap, and with one shard, where it never does.
func TestScaleReportHardwareContext(t *testing.T) {
	for _, shards := range []int{runtime.NumCPU() + 1, 1} {
		rep, err := RunScale(ScaleOptions{Records: 2000, Shards: shards, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		checkHardwareContext(t, buf.Bytes(), "hash_parallelism_is_overlap", shards)
		if wantOverlap := shards > 1; rep.HashParallelismIsOverlap != wantOverlap || (rep.HashRatioName() == "overlap") != wantOverlap {
			t.Errorf("%d shards: overlap %v (%s), want %v", shards, rep.HashParallelismIsOverlap, rep.HashRatioName(), wantOverlap)
		}
	}
}

// TestBenchCounterMismatchDetects checks the mismatch detector itself.
func TestBenchCounterMismatchDetects(t *testing.T) {
	rep := &BenchReport{
		Serial:   RunBench{Counters: map[string]int64{"hash_evals": 10, "merges": 3}},
		Parallel: RunBench{Counters: map[string]int64{"hash_evals": 11, "replans": 1}},
	}
	got := rep.CounterMismatch()
	want := []string{"hash_evals", "merges", "replans"}
	if len(got) != len(want) {
		t.Fatalf("mismatch = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mismatch = %v, want %v", got, want)
		}
	}
}
