// Package server hosts named per-dataset ER sessions behind an HTTP
// JSON API — the long-lived serving layer over core.Stream (the
// "ER-as-a-service" setting of ROADMAP item 1). Each session owns one
// stream: records ingest into it, top-k queries re-cluster it, and
// point queries probe its captured index. Stream is not safe for
// concurrent use, so the session serializes mutations behind a
// per-session RWMutex while admitting concurrent point queries against
// a fresh index (the documented-safe case; see Session).
//
// Endpoints:
//
//	POST   /v1/sessions                  create a session
//	GET    /v1/sessions                  list sessions
//	DELETE /v1/sessions/{id}             close a session (final checkpoint)
//	POST   /v1/sessions/{id}/records     ingest one record or a batch
//	GET    /v1/sessions/{id}/topk        current top-k clusters
//	POST   /v1/sessions/{id}/query       online point lookup
//	GET    /v1/sessions/{id}/stats       obs counters + plan/replan state
//	GET    /healthz                      liveness + session count
//
// Request bodies are capped at 32 MiB; a larger body is refused with
// 413 before anything is decoded.
//
// This file defines the wire types, shared by the handlers and the Go
// client (internal/server/client). Field payloads reuse the dsio
// per-field JSON form: {"set":[...]}, {"vector":[...]} or
// {"bits":[...],"width":n}.
package server

import "encoding/json"

// CreateSessionRequest creates a named session. Only Rule is required;
// zero knobs take the server defaults.
type CreateSessionRequest struct {
	// ID names the session ([A-Za-z0-9._-], also the checkpoint file
	// stem); empty lets the server assign one.
	ID string `json:"id,omitempty"`
	// Rule is the matching rule in rulespec syntax, e.g.
	// "jaccard@0 <= 0.6".
	Rule string `json:"rule"`
	// Family selects the signature family for the rule's Jaccard
	// leaves: "oph" switches them to one-permutation MinHash
	// (O(|S|+K) signatures; equivalent to writing jaccard-oph in the
	// rule), "classic" or empty keeps the rule as written.
	Family string `json:"family,omitempty"`
	// K / ReturnClusters are the session's default top-k arguments
	// (K defaults to the server's -k; khat to K).
	K              int `json:"k,omitempty"`
	ReturnClusters int `json:"khat,omitempty"`
	// Seed seeds the hashing plan design.
	Seed uint64 `json:"seed,omitempty"`
	// Workers / HashShards tune the parallel stages (Config.Workers
	// semantics).
	Workers    int `json:"workers,omitempty"`
	HashShards int `json:"hash_shards,omitempty"`
	// Shards > 1 runs the session's top-k queries through the sharded
	// scale-out engine (records partitioned across that many engine
	// shards with a cross-shard reconcile; byte-identical output).
	// Sharded sessions do not serve point queries — POST .../query
	// returns 409 exactly as before a first top-k run.
	Shards int `json:"shards,omitempty"`
	// QueryProbes / QueryRefresh tune point lookups
	// (Stream.SetQueryProbes / SetQueryRefresh semantics).
	QueryProbes  int `json:"query_probes,omitempty"`
	QueryRefresh int `json:"query_refresh,omitempty"`
	// ReplanGrowth is the plan re-design growth factor
	// (Stream.SetReplanGrowth semantics; 0 keeps the default).
	ReplanGrowth float64 `json:"replan_growth,omitempty"`
	// CheckpointEvery checkpoints the session to the server's
	// checkpoint directory after top-k runs, once this many records
	// arrived since the last checkpoint. 0 takes the server default;
	// < 0 disables checkpoints for this session.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID             string `json:"id"`
	Rule           string `json:"rule"`
	K              int    `json:"k"`
	ReturnClusters int    `json:"khat"`
	Records        int    `json:"records"`
	// Shards echoes the sharded-engine width (0: single engine).
	Shards int `json:"shards,omitempty"`
	// Restored marks sessions warm-booted from a snapshot (-load-dir).
	Restored bool `json:"restored,omitempty"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// WireRecord is one record on the wire: optional ground-truth entity
// plus dsio-form fields.
type WireRecord struct {
	Entity *int              `json:"entity,omitempty"`
	Fields []json.RawMessage `json:"fields"`
}

// IngestRequest appends records to a session. Exactly one of Record
// (single) or Records (batch) must be set.
type IngestRequest struct {
	Record  *WireRecord  `json:"record,omitempty"`
	Records []WireRecord `json:"records,omitempty"`
}

// IngestResponse reports the assigned record IDs and the session's new
// record count.
type IngestResponse struct {
	IDs     []int `json:"ids"`
	Records int   `json:"records"`
}

// ClusterInfo is one output cluster.
type ClusterInfo struct {
	Size    int     `json:"size"`
	Records []int32 `json:"records"`
}

// TopKResponse is the GET .../topk response.
type TopKResponse struct {
	K              int           `json:"k"`
	ReturnClusters int           `json:"khat"`
	Records        int           `json:"records"`
	Clusters       []ClusterInfo `json:"clusters"`
	Kept           int           `json:"kept_records"`
	ElapsedMS      float64       `json:"elapsed_ms"`
	// CheckpointFailed marks a run whose result is valid but whose
	// periodic checkpoint could not be persisted (core.CheckpointError;
	// also counted under the checkpoint_failures stat).
	CheckpointFailed bool `json:"checkpoint_failed,omitempty"`
}

// QueryRequest is one online point lookup: which entity does this
// record belong to?
type QueryRequest struct {
	Fields []json.RawMessage `json:"fields"`
	// M caps the candidate clusters returned (default 3).
	M int `json:"m,omitempty"`
	// Probes overrides the session's multi-probe key count for this
	// lookup (0 keeps the session setting).
	Probes int `json:"probes,omitempty"`
}

// QueryMatchInfo is one candidate cluster of a point lookup.
type QueryMatchInfo struct {
	Cluster    int     `json:"cluster"`
	Matched    int     `json:"matched"`
	Candidates int     `json:"candidates"`
	Records    []int32 `json:"records"`
}

// QueryResponse is the POST .../query response.
type QueryResponse struct {
	Matches    []QueryMatchInfo `json:"matches"`
	Probes     int              `json:"probes"`
	Candidates int              `json:"candidates"`
	// ReadOnly marks lookups served concurrently under the session's
	// read lock (fresh index); false means the lookup took the write
	// lock and may have transparently rebuilt the index.
	ReadOnly bool `json:"read_only"`
}

// StatsResponse is the GET .../stats response.
type StatsResponse struct {
	ID      string `json:"id"`
	Records int    `json:"records"`
	// PlanDesigned / Replans describe the hashing plan lifecycle.
	PlanDesigned bool `json:"plan_designed"`
	Replans      int  `json:"replans"`
	// QueryIndexFresh reports whether the next point lookup can be
	// served read-only (index built and not stale).
	QueryIndexFresh bool `json:"query_index_fresh"`
	// CheckpointEvery / CheckpointPath describe the checkpoint wiring
	// (zero / empty when disabled).
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`
	CheckpointPath  string `json:"checkpoint_path,omitempty"`
	// Counters snapshots the session's non-zero obs counters by stable
	// name (hash_evals, pair_comparisons, query_probes,
	// checkpoint_failures, ...).
	Counters map[string]int64 `json:"counters"`
}

// HealthResponse is the GET /healthz response.
type HealthResponse struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
