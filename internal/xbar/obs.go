package xbar

import (
	"errors"
	"time"

	"geniex/internal/obs"
)

// Metric handles for the circuit solver, registered once in the
// process-wide obs registry. The full catalog is documented in
// DESIGN.md §7.
var (
	mSolves         = obs.NewCounter("xbar.solver.solves")
	mSolveFailures  = obs.NewCounter("xbar.solver.failures")
	mSolveCancelled = obs.NewCounter("xbar.solver.cancelled")
	mSolveLatency   = obs.NewHistogram("xbar.solver.latency_seconds", obs.LatencyBuckets)
	mNewtonIters    = obs.NewHistogram("xbar.solver.newton_iters", obs.IterBuckets)
	mCGIters        = obs.NewHistogram("xbar.solver.cg_iters", obs.IterBuckets)
	mDampedSteps    = obs.NewCounter("xbar.solver.damped_steps")
	mCGBreakdowns   = obs.NewCounter("xbar.solver.cg_breakdowns")
	mLUFallbacks    = obs.NewCounter("xbar.solver.lu_fallbacks")
	mUnconverged    = obs.NewCounter("xbar.solver.unconverged")

	// Rescue-rung counters: a categorical histogram over which ladder
	// rung produced each accepted solution.
	mRungNewton     = obs.NewCounter("xbar.solver.rung.newton")
	mRungDamped     = obs.NewCounter("xbar.solver.rung.damped")
	mRungSourceStep = obs.NewCounter("xbar.solver.rung.source_step")
	mRungBestEffort = obs.NewCounter("xbar.solver.rung.best_effort")

	// Factorization-cache counters: builds/invalidations follow the
	// Program lifecycle, reuses counts solves that consumed a cached
	// factor (as seed, warm-start precondition, or both), newton_saved
	// counts Newton updates replaced by direct factorized solves (one
	// per seeded start — the first cold update computes the same linear
	// solve iteratively), warm_starts counts StartWarm solves that
	// reused the previous converged state, and reseeds counts warm
	// starts that failed rung 0 and fell back to the factorization
	// seed before any recovery rung ran.
	mFactorBuilds        = obs.NewCounter("xbar.solver.factor.builds")
	mFactorInvalidations = obs.NewCounter("xbar.solver.factor.invalidations")
	mFactorBuildFailures = obs.NewCounter("xbar.solver.factor.build_failures")
	mFactorReuses        = obs.NewCounter("xbar.solver.factor.reuses")
	mFactorNewtonSaved   = obs.NewCounter("xbar.solver.factor.newton_saved")
	mFactorWarmStarts    = obs.NewCounter("xbar.solver.factor.warm_starts")
	mFactorReseeds       = obs.NewCounter("xbar.solver.factor.reseeds")

	mBatchCalls   = obs.NewCounter("xbar.batch.calls")
	mBatchItems   = obs.NewCounter("xbar.batch.items")
	mBatchDedup   = obs.NewCounter("xbar.batch.dedup_items")
	mBatchRetried = obs.NewCounter("xbar.batch.retried")
	mBatchFailed  = obs.NewCounter("xbar.batch.failed")
	mBatchLatency = obs.NewHistogram("xbar.batch.latency_seconds", obs.LatencyBuckets)
)

// recordSolve folds one completed (or failed) circuit solve into the
// registry. The caller gates on obs.Enabled so a disabled registry
// costs one branch per solve.
func recordSolve(sol *Solution, err error, start time.Time) {
	mSolves.Inc()
	mSolveLatency.ObserveSince(start)
	if err != nil {
		mSolveFailures.Inc()
		var nde *NewtonDivergedError
		if errors.As(err, &nde) {
			mNewtonIters.Observe(float64(nde.Iters))
		}
		return
	}
	if sol.Seeded || sol.WarmStarted {
		mFactorReuses.Inc()
	}
	if sol.Seeded {
		mFactorNewtonSaved.Inc()
	}
	if sol.WarmStarted {
		mFactorWarmStarts.Inc()
	}
	mNewtonIters.Observe(float64(sol.NewtonIters))
	mCGIters.Observe(float64(sol.CGIters))
	mDampedSteps.Add(int64(sol.DampedSteps))
	mCGBreakdowns.Add(int64(sol.CGBreakdowns))
	mLUFallbacks.Add(int64(sol.LUFallbacks))
	if !sol.Converged {
		mUnconverged.Inc()
	}
	switch sol.Recovery {
	case "":
		mRungNewton.Inc()
	case "damped":
		mRungDamped.Inc()
	case "source-step":
		mRungSourceStep.Inc()
	case "best-effort":
		mRungBestEffort.Inc()
	}
}

// recordBatch folds one BatchSolver call into the registry; dedup is
// the number of items answered from an identical item's solve.
func recordBatch(rep *BatchReport, dedup int, start time.Time) {
	mBatchCalls.Inc()
	mBatchItems.Add(int64(len(rep.Outcomes)))
	mBatchDedup.Add(int64(dedup))
	mBatchRetried.Add(int64(rep.Retried))
	mBatchFailed.Add(int64(rep.Failed))
	mBatchLatency.ObserveSince(start)
}
