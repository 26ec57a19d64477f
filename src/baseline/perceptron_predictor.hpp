/**
 * @file
 * The perceptron branch predictor (Jimenez & Lin, HPCA 2001) with its
 * natural self-confidence estimate: a prediction is high confidence
 * when |output sum| is at or above the training threshold (Sec. 2.2 cites
 * this as the storage-free confidence scheme for neural predictors;
 * the same idea was used for O-GEHL).
 */

#ifndef TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP
#define TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "core/graded_predictor.hpp"

namespace tagecon {

/**
 * Global-history perceptron predictor graded with its |sum| >= theta
 * self-confidence.
 */
class PerceptronPredictor : public GradedPredictor
{
  public:
    /**
     * @param log_perceptrons log2 of the number of perceptrons.
     * @param history_bits Global history length (weights per
     *        perceptron, excluding the bias weight).
     */
    PerceptronPredictor(int log_perceptrons, int history_bits);

    Prediction predict(uint64_t pc) override;
    void update(uint64_t pc, const Prediction& p, bool taken) override;
    uint64_t storageBits() const override;
    void reset() override;
    bool hasIntrinsicConfidence() const override { return true; }

    /** Geometry fingerprint + weight arena + history. */
    bool snapshot(StateWriter& out, std::string& error) const override;
    bool restore(StateReader& in, std::string& error) override;

    /** Training threshold theta = floor(1.93 * h + 14). */
    int theta() const { return theta_; }

  protected:
    std::string defaultName() const override { return "perceptron"; }

  private:
    uint32_t indexFor(uint64_t pc) const;
    int computeSum(uint64_t pc) const;

    /**
     * Flat weight arena: perceptron p owns the (historyBits_ + 1)
     * int8 weights starting at p * stride, bias first. One byte per
     * weight via the packed::signedUpdate transition at 8 bits —
     * identical saturation behavior to the classic clamp.
     */
    std::vector<int8_t> weights_;
    uint64_t history_ = 0;
    int logPerceptrons_;
    int historyBits_;
    int theta_;
};

} // namespace tagecon

#endif // TAGECON_BASELINE_PERCEPTRON_PREDICTOR_HPP
