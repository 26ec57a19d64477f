/**
 * @file
 * L-TAGE: the TAGE predictor augmented with the loop predictor, as in
 * Seznec's CBP-2 winner (reference [12] of the paper). The loop
 * predictor overrides TAGE only when it is confident and a WITHLOOP
 * hysteresis counter has learned that trusting it pays off.
 */

#ifndef TAGECON_TAGE_LTAGE_PREDICTOR_HPP
#define TAGECON_TAGE_LTAGE_PREDICTOR_HPP

#include "tage/loop_predictor.hpp"
#include "tage/tage_predictor.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

/** Output of an L-TAGE lookup. */
struct LTagePrediction {
    /** Final direction after loop-predictor arbitration. */
    bool taken = false;

    /** True when the loop predictor provided the final prediction. */
    bool fromLoopPredictor = false;

    /** The underlying TAGE prediction (for confidence grading). */
    TagePrediction tage;

    /** The loop predictor's answer. */
    LoopPredictor::Result loop;
};

/**
 * TAGE + loop predictor. The ConfidenceObserver of core/ still applies
 * to the embedded TagePrediction; loop-provided predictions are
 * practically always correct (the entry is only trusted at full
 * confidence), so consumers may grade them as high confidence.
 */
class LTagePredictor
{
  public:
    /**
     * @param tage_config TAGE configuration (the paper's sizes).
     * @param loop_config Loop predictor geometry.
     */
    explicit LTagePredictor(TageConfig tage_config,
                            LoopPredictor::Config loop_config = {})
        : tage_(std::move(tage_config)), loop_(loop_config)
    {
    }

    /** Predict the branch at @p pc. */
    LTagePrediction
    predict(uint64_t pc) const
    {
        LTagePrediction p;
        p.tage = tage_.predict(pc);
        p.loop = loop_.lookup(pc);
        if (p.loop.valid && withLoop_ >= 0) {
            p.taken = p.loop.taken;
            p.fromLoopPredictor = true;
        } else {
            p.taken = p.tage.taken;
        }
        return p;
    }

    /** Train with the resolved outcome. */
    void
    update(uint64_t pc, const LTagePrediction& p, bool taken)
    {
        // WITHLOOP learns whether the loop predictor beats TAGE when
        // they disagree.
        if (p.loop.valid && p.loop.taken != p.tage.taken)
            withLoop_ = packed::signedUpdate(withLoop_, kWithLoopBits,
                                             p.loop.taken == taken);

        loop_.update(pc, taken, p.tage.taken != taken);
        tage_.update(pc, p.tage, taken);
    }

    /** The embedded TAGE predictor. */
    const TagePredictor& tage() const { return tage_; }

    /** The embedded loop predictor. */
    const LoopPredictor& loopPredictor() const { return loop_; }

    /** WITHLOOP hysteresis value (introspection / tests). */
    int withLoop() const { return withLoop_; }

    /** Total storage in bits (TAGE tables + loop table). */
    uint64_t
    storageBits() const
    {
        return tage_.storageBits() + loop_.storageBits();
    }

  private:
    TagePredictor tage_;
    LoopPredictor loop_;
    /** WITHLOOP: a 7-bit hysteresis counter, starting distrustful. */
    static constexpr int kWithLoopBits = 7;
    int withLoop_ = -1;
};

} // namespace tagecon

#endif // TAGECON_TAGE_LTAGE_PREDICTOR_HPP
