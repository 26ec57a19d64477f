/**
 * @file
 * The unified graded-prediction API every predictor family in this
 * repository implements.
 *
 * The paper's thesis is that confidence can be read off a predictor's
 * existing state for free; this interface makes that a first-class
 * property of *any* predictor: predict() returns a Prediction carrying
 * both the architectural answer (taken) and a confidence grade. Every
 * family grades its own predictions — the storage-free classes on
 * TAGE, self-confidence on the neural and counter baselines — so a
 * registry spec builds exactly one graded object. The one exception
 * is the storage-based JRS estimator, a decorator that owns its host
 * and replaces the host's grade with its own.
 *
 * Concrete predictors live next to their families:
 *  - tage/graded_tage.hpp        TAGE and L-TAGE (storage-free classes)
 *  - baseline/<family>_predictor.hpp  gshare, bimodal, perceptron,
 *                                O-GEHL (self-confidence grades)
 *  - baseline/jrs_estimator.hpp  the JRS decorator
 * and are usually constructed through the string-spec registry
 * (sim/registry.hpp): makePredictor("tage64k+prob7+sfc").
 */

#ifndef TAGECON_CORE_GRADED_PREDICTOR_HPP
#define TAGECON_CORE_GRADED_PREDICTOR_HPP

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "core/prediction_class.hpp"
#include "util/state_io.hpp"

namespace tagecon {

/**
 * One graded prediction: the architectural direction plus the
 * confidence grade attached to it, and an opaque payload slot the
 * producing predictor may use to route lookup state to the paired
 * update() call.
 */
struct Prediction {
    /** Predicted direction, delivered to the front end. */
    bool taken = false;

    /** The 3-level confidence grade (Sec. 6.1 split for TAGE). */
    ConfidenceLevel confidence = ConfidenceLevel::High;

    /**
     * The 7-class storage-free grade when the predictor can produce it
     * (TAGE family); representativeClass(confidence) otherwise, so the
     * class is always consistent with the level.
     */
    PredictionClass cls = PredictionClass::HighConfBim;

    /**
     * Opaque, predictor-owned slot. Consumers must pass it back
     * unchanged in update(); they must not interpret it.
     */
    uint64_t payload = 0;
};

/**
 * A prediction with a two-way grade: High or Low, with the matching
 * representative class. The grade of every self-confident baseline.
 */
inline Prediction
binaryGraded(bool taken, bool high)
{
    Prediction p;
    p.taken = taken;
    p.confidence = high ? ConfidenceLevel::High : ConfidenceLevel::Low;
    p.cls = representativeClass(p.confidence);
    return p;
}

/**
 * A conditional branch predictor whose predictions are graded with
 * confidence. Drive it in strictly alternating predict/update pairs
 * per branch:
 *
 *   Prediction p = predictor.predict(pc);
 *   ... consume p.taken, speculate according to p.confidence ...
 *   predictor.update(pc, p, actual_taken);
 *
 * All six predictor families (TAGE, L-TAGE, gshare, bimodal,
 * perceptron, O-GEHL) implement this interface, which is what lets
 * sim/experiment.hpp drive arbitrary predictor x estimator x workload
 * combinations through one generic loop.
 */
class GradedPredictor
{
  public:
    virtual ~GradedPredictor() = default;

    /** Predict and grade the branch at @p pc. */
    virtual Prediction predict(uint64_t pc) = 0;

    /**
     * Train with the resolved outcome. @p p must be the Prediction
     * returned by the immediately preceding predict(pc).
     */
    virtual void update(uint64_t pc, const Prediction& p, bool taken) = 0;

    /**
     * Fused batched step over a batch of resolved branches: for each
     * element k, out[k] receives the Prediction the scalar
     * predict(pcs[k]) would have produced at that point, and the
     * predictor trains with taken[k] (nonzero = taken). The contract
     * is bit-identity with the scalar predict/update loop — including
     * predictions inside the batch observing earlier elements'
     * training. Trace replay and the serving engine drive this;
     * batched implementations (the TAGE family) precompute and
     * prefetch the whole batch's table accesses first.
     */
    virtual void
    predictMany(std::span<const uint64_t> pcs,
                std::span<const uint8_t> taken, std::span<Prediction> out)
    {
        for (size_t k = 0; k < pcs.size(); ++k) {
            out[k] = predict(pcs[k]);
            update(pcs[k], out[k], taken[k] != 0);
        }
    }

    /** Total storage in bits, including a JRS decorator's table. */
    virtual uint64_t storageBits() const = 0;

    /** Reset all state to post-construction values. */
    virtual void reset() = 0;

    /**
     * True when predict() fills the confidence grade from the
     * predictor's own state (storage-free / self confidence) rather
     * than defaulting it. The "+sfc" spec label requires this.
     */
    virtual bool hasIntrinsicConfidence() const { return false; }

    /**
     * Tagged-entry allocations performed so far; 0 for predictors
     * without an allocation mechanism. Surfaced in RunResult.
     */
    virtual uint64_t allocations() const { return 0; }

    /**
     * Current log2(1/p) of the probabilistic-saturation automaton;
     * 0 when the predictor has none. Surfaced in RunResult.
     */
    virtual unsigned satLog2Prob() const { return 0; }

    /**
     * Serialize the complete architectural state into @p out so a
     * restore()d predictor continues bit-identically to one that never
     * stopped. Families without serialization support (the default)
     * return false with a clear reason in @p error; supporting
     * families embed a geometry fingerprint so restore() can reject a
     * blob from a differently-configured predictor. Checkpoint framing
     * (magic/version/digest) is layered on top by serve/checkpoint.hpp.
     */
    virtual bool
    snapshot(StateWriter& out, std::string& error) const
    {
        (void)out;
        error = name() + ": checkpoint/restore is not supported for "
                         "this predictor family";
        return false;
    }

    /**
     * Replace the predictor's state with one written by snapshot() on
     * an identically-configured instance. On failure (geometry
     * mismatch, truncated or corrupt payload, unsupported family) the
     * predictor is left reset() and false is returned with the reason
     * in @p error.
     */
    virtual bool
    restore(StateReader& in, std::string& error)
    {
        (void)in;
        error = name() + ": checkpoint/restore is not supported for "
                         "this predictor family";
        return false;
    }

    /**
     * Display name: the registry spec when built via makePredictor(),
     * the family default otherwise.
     */
    std::string
    name() const
    {
        return displayName_.empty() ? defaultName() : displayName_;
    }

    /** Override the display name (the registry stamps the spec here). */
    void setName(std::string name) { displayName_ = std::move(name); }

  protected:
    /** Family name used when no display name was stamped. */
    virtual std::string defaultName() const = 0;

  private:
    std::string displayName_;
};

} // namespace tagecon

#endif // TAGECON_CORE_GRADED_PREDICTOR_HPP
