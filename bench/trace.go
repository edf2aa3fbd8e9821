package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/topk-er/adalsh/internal/obs"
)

// tracer is the benchmark-side observability sink of a traced run. It
// forwards every event to an obs.Collector (the per-layer metrics are
// computed from it) and keeps a Chrome trace-event log viewable in
// Perfetto. The program reports a span only when the span ends, with
// its duration, so the tracer stamps the end on receipt and derives the
// start as end − Wall. The benchmark opens its own span around each
// call into the program on a lane (one lane per issuing goroutine);
// program spans reported through that lane's sink land on the same
// trace thread and nest inside it by time.
//
// A nil *tracer is the untraced run: sink returns a nil obs.Sink and
// span returns a no-op, so untraced code paths pay nothing.
type tracer struct {
	t0  time.Time
	col *obs.Collector

	mu     sync.Mutex
	events []traceEvent
	// last is the stage of the latest span each lane reported; the
	// program reports a stage's counters right after (or, for sharded
	// hashing, right before) its span, which is how merges split into
	// hashing merges and pairwise merges.
	last       map[int]obs.Stage
	hashMerges int64
	// shardSeq round-robins sharded-hashing spans over per-shard lanes:
	// a round reports its shards in shard order.
	shardSeq int
	shards   int
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Trace lanes. Lanes 0..9 belong to benchmark goroutines; sharded
// hashing spans go to shardLane+shard.
const (
	lanePasses = 0
	laneLookup = 1 // lookup goroutine g uses laneLookup+g
	laneWrites = 3
	shardLane  = 10
)

func newTracer(shards int) *tracer {
	return &tracer{t0: time.Now(), col: obs.NewCollector(), last: map[int]obs.Stage{}, shards: shards}
}

// laneSink is the obs.Sink handed to the program for calls made on one
// lane.
type laneSink struct {
	tr   *tracer
	lane int
}

// sink returns the obs.Sink for calls issued on lane (nil untraced).
func (tr *tracer) sink(lane int) obs.Sink {
	if tr == nil {
		return nil
	}
	return laneSink{tr, lane}
}

func (s laneSink) Count(c obs.Counter, d int64) {
	s.tr.col.Count(c, d)
	if c == obs.CtrMerges {
		s.tr.mu.Lock()
		if s.tr.last[s.lane] != obs.StagePairwise {
			s.tr.hashMerges += d
		}
		s.tr.mu.Unlock()
	}
}

func (s laneSink) Span(sp obs.Span) {
	end := time.Now()
	s.tr.col.Span(sp)
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.last[s.lane] = sp.Stage
	lane := s.lane
	if sp.Stage == obs.StageShard && s.tr.shards > 0 {
		lane = shardLane + s.tr.shardSeq%s.tr.shards
		s.tr.shardSeq++
	}
	s.tr.events = append(s.tr.events, traceEvent{
		Name: sp.Stage.String(), Cat: "program", Ph: "X",
		TS: micros(end.Sub(s.tr.t0) - sp.Wall), Dur: micros(sp.Wall),
		PID: 1, TID: lane,
		Args: map[string]any{"items": sp.Items, "workers": sp.Workers, "work_ms": millis(sp.Work)},
	})
}

// span opens a benchmark span on lane and returns the function that
// closes it.
func (tr *tracer) span(lane int, name string) func() {
	if tr == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		tr.mu.Lock()
		tr.events = append(tr.events, traceEvent{
			Name: name, Cat: "bench", Ph: "X",
			TS: micros(start.Sub(tr.t0)), Dur: micros(end.Sub(start)), PID: 1, TID: lane,
		})
		tr.mu.Unlock()
	}
}

// programSpans returns the recorded program spans of one stage.
func (tr *tracer) programSpans(stage obs.Stage) []obs.Span {
	var out []obs.Span
	for _, sp := range tr.col.Spans() {
		if sp.Stage == stage {
			out = append(out, sp)
		}
	}
	return out
}

// write stores the trace as Chrome trace-event JSON.
func (tr *tracer) write(path string, meta map[string]any) error {
	names := map[int]string{lanePasses: "passes", laneLookup: "lookups-0", laneLookup + 1: "lookups-1", laneWrites: "writes"}
	for s := 0; s < tr.shards; s++ {
		names[shardLane+s] = fmt.Sprintf("shard-%d", s)
	}
	tr.mu.Lock()
	evs := append([]traceEvent(nil), tr.events...)
	tr.mu.Unlock()
	for tid, name := range names {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": name}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{
		"traceEvents": evs, "displayTimeUnit": "ms", "metadata": meta,
	}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
