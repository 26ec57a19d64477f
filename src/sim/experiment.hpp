/**
 * @file
 * Trace-driven experiments. One replay loop — ReplayStep — runs
 * any GradedPredictor built by hand or through the registry
 * (sim/registry.hpp) over any TraceSource, in stream order, through
 * the predictor's fused predictMany() step. runTrace() is that step run
 * to the end of the trace; the serving engine runs it one scheduling
 * turn at a time. Both produce the per-class statistics every table
 * and figure of the paper is built from plus the binary (high/low)
 * confidence confusion the comparison benches score with.
 */

#ifndef TAGECON_SIM_EXPERIMENT_HPP
#define TAGECON_SIM_EXPERIMENT_HPP

#include <string>
#include <vector>

#include "analysis/analysis_config.hpp"
#include "analysis/run_analysis.hpp"
#include "analysis/run_observer.hpp"
#include "core/binary_metrics.hpp"
#include "core/class_stats.hpp"
#include "core/graded_predictor.hpp"
#include "trace/profiles.hpp"
#include "trace/trace_source.hpp"
#include "util/errors.hpp"

namespace tagecon {

/** Outcome of simulating one trace. */
struct RunResult {
    std::string traceName;

    /** Predictor display name (the registry spec for spec-built runs). */
    std::string configName;

    /** Per-class and total statistics. */
    ClassStats stats;

    /**
     * 2x2 confusion between (high confidence / not) and (correct /
     * mispredicted) — the SENS/PVP/SPEC/PVN inputs.
     */
    BinaryConfidenceMetrics confusion;

    /** Final log2(1/p) (only interesting for adaptive runs). */
    unsigned finalLog2Prob = 0;

    /** Tagged entry allocations performed by the predictor. */
    uint64_t allocations = 0;

    /** Predictor storage in bits, including any attached estimator. */
    uint64_t storageBits = 0;

    /**
     * Results of the run-analysis observers attached to the run
     * (empty for plain runs).
     */
    RunAnalysis analysis;

    /**
     * Why the trace ended early (a truncated or malformed file), or
     * ok() when it was replayed to its clean end. The statistics then
     * cover only the records read before the failure.
     */
    Err traceError;
};

/** What one ReplayStep::run() call did. */
struct ReplayOutcome {
    /** Records replayed: predicted, trained and recorded. */
    uint64_t served = 0;

    /** The trace's lastError() after the call; ok() when clean. */
    Err error;
};

/**
 * The one in-order replay loop. Owns reusable chunk buffers, so a
 * caller replaying many turns (the serving engine, one step per shard)
 * allocates them once.
 */
class ReplayStep
{
  public:
    ReplayStep();

    /**
     * Replay up to @p limit records of @p trace through @p predictor:
     * fill a chunk of at most 512 records, run it through
     * predictMany() (bit-identical to the scalar predict/update loop),
     * then record every element into @p stats and @p confusion and
     * feed it to @p observers (when non-null), in element order, with
     * its index counted from the start of this call. Stops early at
     * the end of the trace or when the trace fails.
     */
    ReplayOutcome run(TraceSource& trace, GradedPredictor& predictor,
                      uint64_t limit, ClassStats& stats,
                      BinaryConfidenceMetrics& confusion,
                      ObserverList* observers = nullptr);

  private:
    std::vector<uint64_t> pcs_;
    std::vector<uint8_t> taken_;
    std::vector<uint64_t> insns_;
    std::vector<Prediction> preds_;
};

/**
 * Simulate @p trace (from its current position) to its end on
 * @p predictor, with the observer pipeline described by @p analysis
 * built fresh for this run; each observer's results land in
 * RunResult::analysis. A trace that fails mid-stream is reported in
 * RunResult::traceError.
 */
RunResult runTrace(TraceSource& trace, GradedPredictor& predictor,
                   const AnalysisConfig& analysis = {});

} // namespace tagecon

#endif // TAGECON_SIM_EXPERIMENT_HPP
