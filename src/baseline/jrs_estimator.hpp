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
 *
 * JrsEstimator is the one decorator of the GradedPredictor API: it
 * owns a host predictor, passes the host's direction through and
 * replaces the host's grade with its table's. Registry specs
 * "base+jrs" and "base+jrsg" build it; every other spec builds one
 * graded object.
 */

#ifndef TAGECON_BASELINE_JRS_ESTIMATOR_HPP
#define TAGECON_BASELINE_JRS_ESTIMATOR_HPP

#include <memory>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * A host predictor graded by a JRS counter table ("jrs", and "jrsg"
 * for the prediction-indexed variant). The table keeps its own
 * global-history register, so any host will do.
 */
class JrsEstimator : public GradedPredictor
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

    JrsEstimator(std::unique_ptr<GradedPredictor> host, Config cfg);

    /**
     * The host's direction, graded High iff the counter for (@p pc,
     * current history, and the direction when prediction-indexed) is
     * at or above the threshold. The class is the level's
     * representative: the host's own classes say nothing about this
     * grade.
     */
    Prediction predict(uint64_t pc) override;

    /**
     * Increment the counter on a correct prediction, reset it on a
     * misprediction, advance the history, then train the host.
     */
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    /** The host's bits plus tableBits(). */
    uint64_t storageBits() const override;

    void reset() override;

    /** The counter table fully determines the grade. */
    bool hasIntrinsicConfidence() const override { return true; }

    uint64_t allocations() const override { return host_->allocations(); }

    unsigned satLog2Prob() const override { return host_->satLog2Prob(); }

    /** The counter table has no state I/O: always refused. */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /** Storage the counter table costs on top of the host, in bits. */
    uint64_t tableBits() const;

  protected:
    std::string defaultName() const override;

  private:
    /** The spec token: "jrsg" when prediction-indexed, else "jrs". */
    std::string token() const;

    /** Why snapshot()/restore() refuse. */
    std::string stateIoError() const;

    uint32_t indexFor(uint64_t pc, bool predicted_taken) const;

    std::unique_ptr<GradedPredictor> host_;
    Config cfg_;

    /** Packed resetting counters (width in cfg_.ctrBits, up to 16). */
    std::vector<uint16_t> table_;
    uint64_t history_ = 0;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_JRS_ESTIMATOR_HPP
