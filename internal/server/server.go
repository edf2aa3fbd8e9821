package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/rulespec"
	"github.com/topk-er/adalsh/internal/shard"
	"github.com/topk-er/adalsh/internal/snapio"
)

// Options configures a Server.
type Options struct {
	// CheckpointDir is where session checkpoints live (<id>.snap).
	// Empty disables checkpoints; sessions then reject a positive
	// CheckpointEvery.
	CheckpointDir string
	// CheckpointEvery is the default checkpoint cadence (records) for
	// sessions that do not specify one; 0 means no default cadence.
	CheckpointEvery int
	// QueueDepth bounds each session's pending-ingest queue (default
	// 64). Ingests beyond it are rejected with 429.
	QueueDepth int
	// DefaultK is the top-k default for sessions that do not set K
	// (default 10).
	DefaultK int
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

// Server is the session registry plus its HTTP handlers.
type Server struct {
	opts Options

	mu       sync.RWMutex
	sessions map[string]*Session
	nextID   int
}

// New creates an empty server.
func New(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.DefaultK <= 0 {
		opts.DefaultK = 10
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Server{opts: opts, sessions: make(map[string]*Session)}
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// newSession wires one stream into a session (shared by the create
// handler and the warm-boot path). ruleStr is the canonical rule
// formatting echoed in session metadata.
func (sv *Server) newSession(id, ruleStr string, st *core.Stream, req CreateSessionRequest, restored bool) (*Session, error) {
	s := &Session{
		id: id, rule: ruleStr, st: st,
		k: req.K, khat: req.ReturnClusters,
		probes:   req.QueryProbes,
		restored: restored,
		slots:    make(chan struct{}, sv.opts.QueueDepth),
		col:      obs.NewCollector(),
	}
	if s.k <= 0 {
		s.k = sv.opts.DefaultK
	}
	st.SetObs(s.col)
	st.SetWorkers(req.Workers, req.HashShards)
	if req.Shards > 1 {
		if _, err := shard.Attach(st, req.Shards); err != nil {
			return nil, err
		}
		s.shards = req.Shards
	} else if req.Shards < 0 {
		return nil, fmt.Errorf("server: shards %d: want >= 0", req.Shards)
	}
	if req.QueryProbes != 0 {
		st.SetQueryProbes(req.QueryProbes)
	}
	if req.QueryRefresh != 0 {
		st.SetQueryRefresh(req.QueryRefresh)
	}
	if req.ReplanGrowth != 0 {
		st.SetReplanGrowth(req.ReplanGrowth)
	}
	every := req.CheckpointEvery
	if every == 0 {
		every = sv.opts.CheckpointEvery
	}
	if every > 0 {
		if sv.opts.CheckpointDir == "" {
			return nil, fmt.Errorf("server: checkpoint_every set but the server has no checkpoint directory")
		}
		s.ckptPath = filepath.Join(sv.opts.CheckpointDir, id+".snap")
		s.ckptEvry = every
		path := s.ckptPath
		st.SetCheckpointEvery(every, func(st *core.Stream) error {
			return snapio.SaveFile(path, st)
		})
	}
	return s, nil
}

// Create registers a new session. An empty request ID gets a generated
// one; an existing ID is a conflict.
func (sv *Server) Create(req CreateSessionRequest) (*Session, error) {
	rule, err := rulespec.Parse(req.Rule)
	if err != nil {
		return nil, fmt.Errorf("server: parsing rule: %w", err)
	}
	switch req.Family {
	case "", "classic":
	case "oph":
		rule = distance.WithJaccardOPH(rule)
	default:
		return nil, fmt.Errorf("server: unknown signature family %q (want classic or oph)", req.Family)
	}
	ruleStr := req.Rule
	if canon, err := rulespec.Format(rule); err == nil {
		ruleStr = canon
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	id := req.ID
	if id == "" {
		sv.nextID++
		id = "s" + strconv.Itoa(sv.nextID)
	} else if !idPattern.MatchString(id) {
		return nil, fmt.Errorf("server: session id %q: want [A-Za-z0-9][A-Za-z0-9._-]*, at most 64 chars", id)
	}
	if _, dup := sv.sessions[id]; dup {
		return nil, fmt.Errorf("server: session %q already exists", id)
	}
	st := core.NewStream(rule, core.SequenceConfig{Seed: req.Seed})
	st.Dataset().Name = id
	s, err := sv.newSession(id, ruleStr, st, req, false)
	if err != nil {
		return nil, err
	}
	sv.sessions[id] = s
	sv.opts.Logf("session %s created (rule %s, k=%d)", id, ruleStr, s.k)
	return s, nil
}

// session looks a session up by ID.
func (sv *Server) session(id string) *Session {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.sessions[id]
}

// Sessions lists the live sessions, ID-sorted.
func (sv *Server) Sessions() []SessionInfo {
	sv.mu.RLock()
	all := make([]*Session, 0, len(sv.sessions))
	for _, s := range sv.sessions {
		all = append(all, s)
	}
	sv.mu.RUnlock()
	infos := make([]SessionInfo, len(all))
	for i, s := range all {
		infos[i] = s.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	return infos
}

// Delete closes a session, flushing a final checkpoint first.
func (sv *Server) Delete(id string) error {
	sv.mu.Lock()
	s := sv.sessions[id]
	delete(sv.sessions, id)
	sv.mu.Unlock()
	if s == nil {
		return fmt.Errorf("server: no session %q", id)
	}
	return s.Checkpoint()
}

// LoadDir warm-boots: every *.snap in dir is restored as a session
// named after its file stem, with checkpoints re-wired to the same
// path (hook state is not persisted, so this is where the restored
// session re-registers — and thanks to the registration-time
// accounting it will not immediately re-checkpoint itself). Returns
// the restored IDs.
func (sv *Server) LoadDir(dir string) ([]string, error) {
	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		return nil, err
	}
	sort.Strings(snaps)
	var ids []string
	for _, path := range snaps {
		id := strings.TrimSuffix(filepath.Base(path), ".snap")
		if !idPattern.MatchString(id) {
			sv.opts.Logf("warm boot: skipping %s (bad session id)", path)
			continue
		}
		st, err := snapio.LoadFile(path)
		if err != nil {
			return ids, fmt.Errorf("server: warm boot %s: %w", path, err)
		}
		ruleStr, _ := rulespec.Format(st.Rule())
		req := CreateSessionRequest{CheckpointEvery: sv.opts.CheckpointEvery}
		s, err := sv.newSession(id, ruleStr, st, req, true)
		if err != nil {
			return ids, fmt.Errorf("server: warm boot %s: %w", path, err)
		}
		sv.mu.Lock()
		if _, dup := sv.sessions[id]; dup {
			sv.mu.Unlock()
			return ids, fmt.Errorf("server: warm boot %s: session %q already exists", path, id)
		}
		sv.sessions[id] = s
		sv.mu.Unlock()
		ids = append(ids, id)
		sv.opts.Logf("session %s restored from %s (%d records)", id, path, st.Len())
	}
	return ids, nil
}

// Checkpoint flushes every session with checkpoint wiring. The
// graceful shutdown path calls it after the HTTP listener drains.
func (sv *Server) Checkpoint() error {
	var firstErr error
	for _, info := range sv.Sessions() {
		s := sv.session(info.ID)
		if s == nil {
			continue
		}
		if err := s.Checkpoint(); err != nil {
			sv.opts.Logf("checkpoint %s: %v", info.ID, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Handler returns the HTTP API handler.
func (sv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealth)
	mux.HandleFunc("POST /v1/sessions", sv.handleCreate)
	mux.HandleFunc("GET /v1/sessions", sv.handleList)
	mux.HandleFunc("DELETE /v1/sessions/{id}", sv.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/records", sv.handleIngest)
	mux.HandleFunc("GET /v1/sessions/{id}/topk", sv.handleTopK)
	mux.HandleFunc("POST /v1/sessions/{id}/query", sv.handleQuery)
	mux.HandleFunc("GET /v1/sessions/{id}/stats", sv.handleStats)
	return mux
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the error body every non-2xx response carries.
func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes caps every request body: one oversized client must not
// balloon the daemon's memory. Ingest batches of a few thousand
// records stay far below it. A var only so tests can lower it (see
// export_test.go); production code treats it as a constant.
var maxBodyBytes int64 = 32 << 20

// readJSON decodes a request body of at most maxBodyBytes into v,
// rejecting trailing garbage. It answers the request itself on
// failure — 413 past the cap, 400 for malformed input — and reports
// whether v holds the decoded body.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	err := dec.Decode(v)
	if err == nil && dec.More() {
		err = fmt.Errorf("trailing data after JSON body")
	}
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	} else {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}

func (sv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sv.mu.RLock()
	n := len(sv.sessions)
	sv.mu.RUnlock()
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Sessions: n})
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if !readJSON(w, r, &req) {
		return
	}
	s, err := sv.Create(req)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already exists") {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.Info())
}

func (sv *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionList{Sessions: sv.Sessions()})
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sv.session(id) == nil {
		writeErr(w, http.StatusNotFound, "no session %q", id)
		return
	}
	if err := sv.Delete(id); err != nil {
		writeErr(w, http.StatusInternalServerError, "closing session: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// decodeWireRecord turns a wire record into fields + truth label.
func decodeWireRecord(wr *WireRecord) (int, []record.Field, error) {
	fields, err := dsio.DecodeFields(wr.Fields)
	if err != nil {
		return 0, nil, err
	}
	if len(fields) == 0 {
		return 0, nil, fmt.Errorf("record has no fields")
	}
	entity := -1
	if wr.Entity != nil {
		entity = *wr.Entity
	}
	return entity, fields, nil
}

func (sv *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s := sv.session(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req IngestRequest
	if !readJSON(w, r, &req) {
		return
	}
	wire := req.Records
	if req.Record != nil {
		if len(wire) > 0 {
			writeErr(w, http.StatusBadRequest, "set either record or records, not both")
			return
		}
		wire = []WireRecord{*req.Record}
	}
	if len(wire) == 0 {
		writeErr(w, http.StatusBadRequest, "no records to ingest")
		return
	}
	entities := make([]int, len(wire))
	fields := make([][]record.Field, len(wire))
	for i := range wire {
		var err error
		if entities[i], fields[i], err = decodeWireRecord(&wire[i]); err != nil {
			writeErr(w, http.StatusBadRequest, "record %d: %v", i, err)
			return
		}
	}
	ids, total, err := s.Ingest(entities, fields)
	if errors.Is(err, ErrBusy) {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{IDs: ids, Records: total})
}

func (sv *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s := sv.session(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	k, err := queryInt(r, "k")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	khat, err := queryInt(r, "khat")
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	start := time.Now()
	res, ckptFailed, err := s.TopK(k, khat)
	if err != nil {
		code := http.StatusInternalServerError
		if strings.Contains(err.Error(), "no records") || strings.Contains(err.Error(), "want >=") {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	resp := TopKResponse{
		K: k, ReturnClusters: khat, Records: s.Records(),
		Kept:             len(res.Output),
		ElapsedMS:        time.Since(start).Seconds() * 1000,
		CheckpointFailed: ckptFailed,
	}
	if resp.K == 0 {
		resp.K = s.k
	}
	if resp.ReturnClusters == 0 {
		resp.ReturnClusters = resp.K
	}
	for i := range res.Clusters {
		c := &res.Clusters[i]
		resp.Clusters = append(resp.Clusters, ClusterInfo{Size: c.Size(), Records: c.Records})
	}
	writeJSON(w, http.StatusOK, resp)
}

// queryInt parses an optional non-negative integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s=%q: want a non-negative integer", name, v)
	}
	return n, nil
}

func (sv *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s := sv.session(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	var req QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	fields, err := dsio.DecodeFields(req.Fields)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, readOnly, err := s.Query(fields, req.M, req.Probes)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, core.ErrNoQueryIndex) {
			code = http.StatusConflict
		}
		writeErr(w, code, "%v", err)
		return
	}
	resp := QueryResponse{
		Probes: res.Probes, Candidates: len(res.Candidates), ReadOnly: readOnly,
	}
	for i := range res.Matches {
		m := &res.Matches[i]
		resp.Matches = append(resp.Matches, QueryMatchInfo{
			Cluster: m.Cluster, Matched: m.Matched, Candidates: m.Candidates, Records: m.Records,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s := sv.session(r.PathValue("id"))
	if s == nil {
		writeErr(w, http.StatusNotFound, "no session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
