/**
 * @file
 * The TAGE family behind the GradedPredictor API: TAGE with the
 * paper's storage-free confidence classes, and L-TAGE (TAGE + loop
 * predictor, Seznec's CBP-2 winner — reference [12] of the paper) with
 * the same grading on its TAGE component.
 *
 * predict() already returns the 7-class / 3-level grade read off the
 * predictor's own state, so the "+sfc" spec label costs nothing.
 */

#ifndef TAGECON_TAGE_GRADED_TAGE_HPP
#define TAGECON_TAGE_GRADED_TAGE_HPP

#include <optional>
#include <vector>

#include "core/adaptive_probability.hpp"
#include "core/confidence_observer.hpp"
#include "core/graded_predictor.hpp"
#include "tage/loop_predictor.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {

/** Knobs shared by the TAGE-family adapters. */
struct GradedTageOptions {
    /** medium-conf-bim burst window (Sec. 5.1.2); the paper uses 8. */
    int bimWindow = 8;

    /**
     * Drive the saturation probability with the Sec. 6.2 adaptive
     * controller. Requires the config to enable
     * probabilisticSaturation; the constructor fatal()s otherwise.
     */
    bool adaptive = false;

    /** Controller parameters when adaptive is set. */
    AdaptiveProbabilityController::Config adaptiveConfig{};
};

/**
 * TAGE + storage-free confidence observer (+ optional adaptive
 * saturation-probability controller) behind the GradedPredictor
 * interface. This is the paper's whole pipeline as one registry-
 * constructible object.
 */
class GradedTage : public GradedPredictor
{
  public:
    explicit GradedTage(TageConfig config, GradedTageOptions opt = {});

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    /**
     * Fused batched step through TagePredictor::predictMany(), with
     * the storage-free grading applied per element in scalar order.
     * With the adaptive controller attached it is the scalar loop: the
     * controller retunes the saturation probability between elements,
     * which the fused TAGE batch cannot replay.
     */
    void predictMany(std::span<const uint64_t> pcs,
                     std::span<const uint8_t> taken,
                     std::span<Prediction> out) override;

    uint64_t storageBits() const override;
    void reset() override;

    bool hasIntrinsicConfidence() const override { return true; }
    uint64_t allocations() const override;
    unsigned satLog2Prob() const override;

    /**
     * Full-pipeline checkpoint: the TAGE tables/histories plus the
     * burst-window observer, the predict/update pairing sequence and
     * (when attached) the adaptive controller.
     */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /** The underlying predictor (read-only). */
    const TagePredictor& tage() const { return predictor_; }

    /** The burst-window observer (read-only). */
    const ConfidenceObserver& observer() const { return observer_; }

    /** The adaptive controller, when attached. */
    const std::optional<AdaptiveProbabilityController>&
    controller() const
    {
        return controller_;
    }

  protected:
    std::string defaultName() const override;

  private:
    TagePredictor predictor_;
    ConfidenceObserver observer_;
    std::optional<AdaptiveProbabilityController> controller_;

    /** Lookup state routed from predict() to the paired update(). */
    TagePrediction raw_;
    ConfidenceLevel lastIntrinsicLevel_ = ConfidenceLevel::High;
    uint64_t seq_ = 0;

    /** predictMany() scratch; not architectural state. */
    std::vector<TagePrediction> rawBatch_;
};

/**
 * L-TAGE behind the GradedPredictor interface. The loop predictor
 * overrides TAGE only when it is confident and a WITHLOOP hysteresis
 * counter has learned that trusting it pays off. TAGE-provided
 * predictions are graded with the storage-free observer; loop-provided
 * ones are graded high confidence (the loop entry is only trusted at
 * full confidence, Sec. 2 of the L-TAGE description).
 */
class GradedLTage : public GradedPredictor
{
  public:
    explicit GradedLTage(TageConfig tage_config,
                         GradedTageOptions opt = {});

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;

    /** TAGE tables plus the loop table. */
    uint64_t storageBits() const override;
    void reset() override;

    bool hasIntrinsicConfidence() const override { return true; }
    uint64_t allocations() const override;
    unsigned satLog2Prob() const override;

    /** The TAGE component (read-only). */
    const TagePredictor& tage() const { return tage_; }

    /** The loop predictor (read-only). */
    const LoopPredictor& loopPredictor() const { return loop_; }

    /** WITHLOOP hysteresis value; >= 0 trusts the loop predictor. */
    int withLoop() const { return withLoop_; }

    /** The burst-window observer (read-only). */
    const ConfidenceObserver& observer() const { return observer_; }

  protected:
    std::string defaultName() const override;

  private:
    /** WITHLOOP: a 7-bit hysteresis counter, starting distrustful. */
    static constexpr int kWithLoopBits = 7;

    TagePredictor tage_;
    LoopPredictor loop_;
    int withLoop_ = -1;
    ConfidenceObserver observer_;

    /** Lookup state routed from predict() to the paired update(). */
    TagePrediction rawTage_;
    LoopPredictor::Result rawLoop_;
    uint64_t seq_ = 0;
};

} // namespace tagecon

#endif // TAGECON_TAGE_GRADED_TAGE_HPP
