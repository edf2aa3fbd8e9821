package core

import (
	"fmt"
	"math"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/record"
)

// CacheState is the serializable content of a Cache: per-(hasher,
// record) signature prefixes flattened into one value run per hasher,
// plus the eval / hit / miss counters.
type CacheState struct {
	// Lens[h][rec] is the cached prefix length of hasher h on record
	// rec. Rows may cover fewer records than the dataset holds (records
	// added after the last query have no prefixes yet).
	Lens [][]int32
	// Vals[h] concatenates hasher h's prefixes in record order; its
	// length is the sum of Lens[h].
	Vals [][]uint64
	// Evals, Hits and Misses are the cache's cumulative counters
	// (HashEvals / Lookups), preserved exactly across a round trip.
	Evals        []int64
	Hits, Misses int64
}

// State captures the cache's content for serialization. The returned
// state copies the signature values, so later Ensure/Grow calls on the
// cache do not mutate it.
func (c *Cache) State() *CacheState {
	h := len(c.evals)
	st := &CacheState{
		Lens:  make([][]int32, h),
		Vals:  make([][]uint64, h),
		Evals: c.HashEvals(),
	}
	st.Hits, st.Misses = c.Lookups()
	for i := 0; i < h; i++ {
		rows := len(c.refs[i])
		lens := make([]int32, rows)
		total := 0
		for rec := 0; rec < rows; rec++ {
			n := c.Prefix(i, rec)
			lens[rec] = int32(n)
			total += n
		}
		flat := make([]uint64, 0, total)
		for rec := 0; rec < rows; rec++ {
			if n := int(lens[rec]); n > 0 {
				flat = append(flat, c.prefixValues(i, rec, n)...)
			}
		}
		st.Lens[i] = lens
		st.Vals[i] = flat
	}
	return st
}

// prefixValues returns the cached n-value prefix of hasher h on rec
// without touching the hit/miss counters (Ensure would count a hit).
func (c *Cache) prefixValues(h, rec, n int) []uint64 {
	ref := &c.refs[h][rec]
	return c.arenas[h].view(ref.page, ref.off, n)
}

// NewCacheFromState rebuilds a cache from a captured state, preserving
// every prefix and counter exactly: a restored cache serves the same
// Ensure hits, reports the same HashEvals/Lookups, and extends prefixes
// from the same positions as the original.
func NewCacheFromState(ds *record.Dataset, st *CacheState) (*Cache, error) {
	h := len(st.Evals)
	if len(st.Lens) != h || len(st.Vals) != h {
		return nil, fmt.Errorf("core: cache state has %d len rows / %d value runs for %d hashers",
			len(st.Lens), len(st.Vals), h)
	}
	c := NewCache(ds, h)
	for i := 0; i < h; i++ {
		if len(st.Lens[i]) > ds.Len() {
			return nil, fmt.Errorf("core: cache state covers %d records of hasher %d, dataset has %d",
				len(st.Lens[i]), i, ds.Len())
		}
		total := 0
		for rec, n := range st.Lens[i] {
			if n < 0 {
				return nil, fmt.Errorf("core: cache state has negative prefix length %d (hasher %d, record %d)", n, i, rec)
			}
			total += int(n)
		}
		if total != len(st.Vals[i]) {
			return nil, fmt.Errorf("core: cache state hasher %d: prefix lengths sum to %d values, state holds %d",
				i, total, len(st.Vals[i]))
		}
		off := 0
		for rec, n32 := range st.Lens[i] {
			n := int(n32)
			if n == 0 {
				continue
			}
			vals := st.Vals[i][off : off+n]
			off += n
			page, o := c.arenas[i].alloc(n, 0)
			copy(c.arenas[i].view(page, o, n), vals)
			c.refs[i][rec] = sigRef{page: page, off: o, n: int32(n), cap: int32(n)}
		}
		c.evals[i] = st.Evals[i]
	}
	c.hits, c.misses = st.Hits, st.Misses
	return c, nil
}

// StreamState is the serializable content of a Stream — everything a
// warm restart needs to continue a session exactly where it stopped:
// the rule and sequence config, the accumulated dataset, the designed
// plan with its calibrated cost model, the full signature cache, and
// the stream's position/replan/query bookkeeping. Runtime-only knobs
// (workers, the obs sink, the scratch pool) are not state: they
// describe the machine, not the computation, and are re-set on the
// restored stream.
//
// The point-query index is deliberately absent: it is a derived
// structure the next TopKClusters (or a lazy Query, via the persisted
// QueryK/QueryKhat) rebuilds from the warm cache at zero hashing cost.
// Likewise the ppt forest and log-bins are per-run transients that the
// next filtering pass reconstructs.
type StreamState struct {
	// Rule and Config recreate the stream constructor arguments.
	Rule   distance.Rule
	Config SequenceConfig
	// Dataset is the stream's accumulated dataset. State() shares it
	// with the live stream (it is append-only); serialize or copy it
	// before mutating the original stream again.
	Dataset *record.Dataset
	// Plan is the designed plan, nil before the first TopK. Persisting
	// it — rather than re-designing on restore — is what makes restored
	// runs identical to uninterrupted ones: cost calibration is
	// wall-clock based and would not reproduce.
	Plan *Plan
	// Cache is the signature cache content, nil iff Plan is nil.
	Cache *CacheState
	// PlannedAt / Replans / ReplanGrowth mirror the stream's re-planning
	// bookkeeping (ReplanGrowth 0 means the default factor).
	PlannedAt    int
	Replans      int
	ReplanGrowth float64
	// QueryK / QueryKhat replay the latest TopKClusters arguments when a
	// restored stream's Query must lazily rebuild the point-query index.
	QueryK, QueryKhat int
	// QueryProbes / QueryRefresh are the point-query tuning knobs.
	QueryProbes, QueryRefresh int
}

// State captures the stream's serializable content (see StreamState
// for what is and is not included). The dataset is shared, not copied;
// the cache content is copied. Use internal/snapio (or the adalsh.Save
// facade) to turn the state into bytes.
func (s *Stream) State() *StreamState {
	st := &StreamState{
		Rule:         s.rule,
		Config:       s.cfg,
		Dataset:      s.ds,
		Plan:         s.plan,
		PlannedAt:    s.plannedAt,
		Replans:      s.replans,
		ReplanGrowth: s.replanGrowth,
		QueryK:       s.qLastK,
		QueryKhat:    s.qLastKhat,
		QueryProbes:  s.queryProbes,
		QueryRefresh: s.queryRefresh,
	}
	if s.cache != nil {
		st.Cache = s.cache.State()
	}
	return st
}

// RestoreStream rebuilds a stream from a captured state. The restored
// stream continues exactly where the original stopped: same plan and
// cost model (no re-design, no re-calibration), same cached signature
// prefixes (no re-hashing), same replan/query bookkeeping — so its
// future queries produce byte-identical clusters and work counters to
// the uninterrupted original. Runtime knobs (SetWorkers, SetObs,
// SetHashMinParallel) default to zero values; re-set them after
// restoring.
//
// A state is refused when it could not run: no rule or dataset, a
// dataset of mixed layouts, a sequence config that fails
// SequenceConfig.Validate (a later re-plan would design from it), or a
// plan or cache that does not fit the dataset.
func RestoreStream(st *StreamState) (*Stream, error) {
	if st == nil {
		return nil, fmt.Errorf("core: restore from nil stream state")
	}
	if st.Rule == nil {
		return nil, fmt.Errorf("core: stream state has no rule")
	}
	if st.Dataset == nil {
		return nil, fmt.Errorf("core: stream state has no dataset")
	}
	if err := st.Dataset.Validate(); err != nil {
		return nil, fmt.Errorf("core: stream state dataset: %w", err)
	}
	if st.QueryK < 0 || st.QueryKhat < 0 {
		return nil, fmt.Errorf("core: stream state query k/k-hat %d/%d negative", st.QueryK, st.QueryKhat)
	}
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("core: stream state config: %w", err)
	}
	s := &Stream{
		rule: st.Rule, cfg: st.Config, ds: st.Dataset, pool: NewHashPool(),
		replans:     st.Replans,
		qLastK:      st.QueryK,
		qLastKhat:   st.QueryKhat,
		queryProbes: st.QueryProbes, queryRefresh: st.QueryRefresh,
	}
	// Same normalization as SetReplanGrowth: a state carrying garbage
	// must not silently disable re-planning.
	if g := st.ReplanGrowth; g != 0 && !math.IsNaN(g) && g > 1 {
		s.replanGrowth = g
	}
	if st.Plan == nil {
		if st.Cache != nil {
			return nil, fmt.Errorf("core: stream state has a cache but no plan")
		}
		if st.PlannedAt != 0 {
			return nil, fmt.Errorf("core: stream state planned at %d records but has no plan", st.PlannedAt)
		}
		return s, nil
	}
	if err := st.Plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: stream state plan: %w", err)
	}
	if st.Dataset.Len() > 0 {
		if err := st.Plan.CompatibleWith(st.Dataset); err != nil {
			return nil, fmt.Errorf("core: stream state plan: %w", err)
		}
	}
	if st.PlannedAt < 0 || st.PlannedAt > st.Dataset.Len() {
		return nil, fmt.Errorf("core: stream state planned at %d records, dataset has %d",
			st.PlannedAt, st.Dataset.Len())
	}
	cst := st.Cache
	if cst == nil {
		// Tolerated for hand-built states: an empty cache is behaviorally
		// a cold one.
		cst = &CacheState{Evals: make([]int64, len(st.Plan.Hashers)),
			Lens: make([][]int32, len(st.Plan.Hashers)), Vals: make([][]uint64, len(st.Plan.Hashers))}
	}
	if len(cst.Evals) != len(st.Plan.Hashers) {
		return nil, fmt.Errorf("core: stream state cache covers %d hashers, plan has %d",
			len(cst.Evals), len(st.Plan.Hashers))
	}
	for h, lens := range cst.Lens {
		limit := int32(st.Plan.Hashers[h].MaxFunctions())
		for rec, n := range lens {
			if n > limit {
				return nil, fmt.Errorf("core: stream state caches %d functions of hasher %d on record %d, hasher has %d",
					n, h, rec, limit)
			}
		}
	}
	cache, err := NewCacheFromState(st.Dataset, cst)
	if err != nil {
		return nil, err
	}
	cache.Grow(st.Dataset.Len())
	cache.descs = st.Plan.HasherDescs
	s.plan, s.plannedAt, s.cache = st.Plan, st.PlannedAt, cache
	return s, nil
}
