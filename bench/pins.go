package main

import "github.com/topk-er/adalsh/internal/core"

// Committed cost models, one per workload.
//
// core.DesignPlan calibrates the cost model by timing rule.Match and
// the hashers on the live machine, and Algorithm 1's hash-or-verify
// decision compares those timings. Two runs therefore took different
// routes: live calibration moved spotsigs between 118 and 134 re-hash
// rounds and 253k–286k pair comparisons from process to process, which
// no timing comparison survives. Every run still designs its plan live
// (that time is part of setup_s), then replaces the cost model with the
// pin below, so the route is a function of the records alone and the
// route counters repeat exactly.
//
// Each pin is the per-parameter median of 7 live calibrations on the
// workload's records, printed by
//
//	bash bench/run.sh -calibrate -workload <name>
//
// The absolute values are this machine's timings; only the ratio of
// CostP to CostFunc steers the route. Re-pin only in a change that
// redefines the benchmark.
var (
	pinCorpus   = core.CostModel{CostP: 1.061e-07, CostFunc: []float64{7.87e-08}}
	pinSpotSigs = core.CostModel{CostP: 1.245e-06, CostFunc: []float64{2.388e-07}}
	pinImages   = core.CostModel{CostP: 2.227e-07, CostFunc: []float64{1.302e-07}}
	pinServe    = core.CostModel{CostP: 1.322e-06, CostFunc: []float64{2.849e-07}}
)
