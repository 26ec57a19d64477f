/**
 * @file
 * The JRS confidence estimator (Jacobsen, Rotenberg & Smith, MICRO
 * 1996) and Grunwald et al.'s prediction-indexed refinement (ISCA
 * 1998) — the storage-based estimators the paper's storage-free scheme
 * is contrasted with (Sec. 2.2).
 *
 * A gshare-indexed table of resetting counters: incremented on a
 * correct prediction, reset to zero on a misprediction. A prediction
 * is high confidence when its counter is at or above a threshold
 * (4-bit counters with threshold 15 in the classic configuration).
 */

#ifndef TAGECON_BASELINE_JRS_ESTIMATOR_HPP
#define TAGECON_BASELINE_JRS_ESTIMATOR_HPP

#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Storage-based confidence estimator attachable to any host predictor
 * through EstimatedPredictor ("jrs", and "jrsg" for the
 * prediction-indexed variant). It keeps its own global-history
 * register, so it is host-agnostic.
 */
class JrsEstimator : public ConfidenceEstimator
{
  public:
    struct Config {
        /** log2 of the counter table size. */
        int logEntries = 12;

        /** Counter width; 4 bits in the classic configuration. */
        int ctrBits = 4;

        /** High confidence iff counter >= threshold (15 classically). */
        unsigned threshold = 15;

        /** Global history bits XORed into the index. */
        int historyBits = 12;

        /**
         * Grunwald et al. refinement: include the predicted direction
         * in the table index, so taken/not-taken predictions of the
         * same (PC, history) get separate confidence.
         */
        bool indexWithPrediction = false;
    };

    /** Build with the classic 4-bit / threshold-15 configuration. */
    JrsEstimator();

    explicit JrsEstimator(Config cfg);

    /**
     * High confidence iff the counter for (@p pc, current history,
     * and p.taken when prediction-indexed) is at or above the threshold.
     */
    ConfidenceLevel grade(uint64_t pc, const Prediction& p) override;

    /**
     * Increment the counter on a correct prediction, reset it on a
     * misprediction, then advance the history.
     */
    void onResolve(uint64_t pc, const Prediction& p, bool taken) override;

    std::string
    name() const override
    {
        return cfg_.indexWithPrediction ? "jrsg" : "jrs";
    }

    uint64_t storageBits() const override;

    void reset() override;

  private:
    uint32_t indexFor(uint64_t pc, bool predicted_taken) const;

    Config cfg_;

    /** Packed resetting counters (width in cfg_.ctrBits, up to 16). */
    std::vector<uint16_t> table_;
    uint64_t history_ = 0;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_JRS_ESTIMATOR_HPP
