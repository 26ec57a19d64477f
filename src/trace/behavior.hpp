/**
 * @file
 * Per-static-branch outcome models for the synthetic workloads.
 *
 * The paper's evaluation rests on traces mixing branches that are
 *  (a) trivially predictable (always taken / loop exits / short
 *      patterns),
 *  (b) predictable only with global history correlation (possibly very
 *      long correlation distances),
 *  (c) intrinsically unpredictable (data-dependent, i.e. biased coin
 *      flips or Markov processes).
 * Each model here produces one of these behaviours; profiles.cpp mixes
 * them in per-trace proportions.
 */

#ifndef TAGECON_TRACE_BEHAVIOR_HPP
#define TAGECON_TRACE_BEHAVIOR_HPP

#include <cstdint>
#include <variant>
#include <vector>

#include "util/global_history.hpp"
#include "util/random.hpp"

namespace tagecon {

/** Inputs a behaviour may consult when producing an outcome. */
struct BehaviorContext {
    /** Workload-level RNG modelling data-dependent outcomes. */
    XorShift128Plus& rng;

    /** Global outcome history of the synthetic program (0 = newest). */
    const GlobalHistory& history;
};

/** Discriminator for the behaviour models. */
enum class BehaviorKind {
    Always,     ///< fixed direction
    Loop,       ///< taken (period-1) times, then not-taken once
    Pattern,    ///< repeating fixed outcome sequence
    Biased,     ///< independent Bernoulli draw (unpredictable)
    Markov,     ///< 2-state Markov chain (partially predictable)
    Correlated, ///< parity of global-history taps (history-predictable)
};

/**
 * A static branch's outcome generator. Construct through the factory
 * functions; call nextOutcome() once per dynamic execution.
 */
class BranchBehavior
{
  public:
    /** Branch with a fixed direction. */
    static BranchBehavior always(bool taken);

    /**
     * Loop-closing branch with trip count @p period: taken period-1
     * consecutive times, then not-taken once. period == 1 degenerates to
     * always-not-taken. With probability @p trip_jitter a run uses
     * period +/- 1 instead (data-dependent trip counts), which makes
     * the loop exit only statistically predictable.
     */
    static BranchBehavior loop(uint32_t period, double trip_jitter = 0.0);

    /** Branch repeating @p pattern forever; pattern must be non-empty. */
    static BranchBehavior pattern(std::vector<bool> pattern);

    /**
     * Data-dependent branch: independent Bernoulli with P(taken) =
     * @p p_taken. No predictor can beat max(p, 1-p) on it.
     */
    static BranchBehavior biased(double p_taken);

    /**
     * Two-state Markov chain: P(taken | last was taken) =
     * @p p_stay_taken, P(not-taken | last was not-taken) =
     * @p p_stay_not_taken.
     */
    static BranchBehavior markov(double p_stay_taken,
                                 double p_stay_not_taken);

    /**
     * History-correlated branch: outcome is the XOR parity of the global
     * outcomes at distances @p taps (each >= 1), inverted when
     * @p invert, and flipped with probability @p noise. A predictor can
     * capture it only if its history window spans max(taps).
     */
    static BranchBehavior correlated(std::vector<uint16_t> taps,
                                     bool invert, double noise);

    /** Produce the outcome for the next dynamic execution. */
    bool nextOutcome(BehaviorContext& ctx);

    /** Which model this is. */
    BehaviorKind kind() const;

    /**
     * Reset mutable state (loop position, pattern position, Markov
     * state) without changing parameters.
     */
    void reset();

  private:
    struct AlwaysModel {
        bool taken;
    };
    struct LoopModel {
        uint32_t period;
        double tripJitter;
        uint32_t pos;
        uint32_t curPeriod;
    };
    struct PatternModel {
        std::vector<bool> outcomes;
        size_t pos;
    };
    struct BiasedModel {
        double pTaken;
    };
    struct MarkovModel {
        double pStayTaken;
        double pStayNotTaken;
        bool state;
    };
    struct CorrelatedModel {
        std::vector<uint16_t> taps;
        bool invert;
        double noise;
    };

    using Model = std::variant<AlwaysModel, LoopModel, PatternModel,
                               BiasedModel, MarkovModel, CorrelatedModel>;

    explicit BranchBehavior(Model m)
        : model_(std::move(m))
    {
    }

    Model model_;
};

} // namespace tagecon

#endif // TAGECON_TRACE_BEHAVIOR_HPP
