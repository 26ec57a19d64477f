/**
 * @file
 * Tests for the related-work baseline predictors and the JRS
 * storage-based confidence estimator.
 */

#include <gtest/gtest.h>

#include "baseline/bimodal_predictor.hpp"
#include "baseline/gshare_predictor.hpp"
#include "baseline/jrs_estimator.hpp"
#include "baseline/perceptron_predictor.hpp"
#include "util/random.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {
namespace {

/** One predict/update pair resolved @p taken; returns the prediction. */
Prediction
step(GradedPredictor& p, uint64_t pc, bool taken)
{
    const Prediction pred = p.predict(pc);
    p.update(pc, pred, taken);
    return pred;
}

/** A host predicting whatever direction the test last set. */
class ScriptedHost : public GradedPredictor
{
  public:
    explicit ScriptedHost(const bool& direction) : direction_(direction) {}

    Prediction
    predict(uint64_t /*pc*/) override
    {
        return binaryGraded(direction_, /*high=*/true);
    }

    void update(uint64_t, const Prediction&, bool) override {}
    uint64_t storageBits() const override { return 0; }
    void reset() override {}

  protected:
    std::string defaultName() const override { return "scripted"; }

  private:
    const bool& direction_;
};

/** JRS over a ScriptedHost, so a test picks each predicted direction. */
struct JrsRig {
    explicit JrsRig(JrsEstimator::Config cfg)
        : jrs(std::make_unique<ScriptedHost>(direction), cfg)
    {
    }

    /** One branch at @p pc, predicted @p predicted_taken, resolved. */
    void
    resolve(uint64_t pc, bool predicted_taken, bool taken)
    {
        direction = predicted_taken;
        step(jrs, pc, taken);
    }

    /** JRS's grade for a prediction of @p predicted_taken at @p pc. */
    ConfidenceLevel
    grade(uint64_t pc, bool predicted_taken)
    {
        direction = predicted_taken;
        return jrs.predict(pc).confidence;
    }

    bool direction = true;
    JrsEstimator jrs;
};

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor p(10);
    for (int i = 0; i < 10; ++i)
        step(p, 0x40, true);
    EXPECT_TRUE(p.predict(0x40).taken);
    for (int i = 0; i < 10; ++i)
        step(p, 0x80, false);
    EXPECT_FALSE(p.predict(0x80).taken);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor p(10);
    int misses = 0;
    for (int i = 0; i < 1000; ++i) {
        const bool taken = i % 2 == 0;
        if (step(p, 0x40, taken).taken != taken && i > 100)
            ++misses;
    }
    // A 2-bit counter mispredicts alternation about half the time.
    EXPECT_GT(misses, 300);
}

TEST(Bimodal, SmithSelfConfidence)
{
    BimodalPredictor p(10);
    // Fresh counter is weak -> low confidence.
    EXPECT_EQ(p.predict(0x40).confidence, ConfidenceLevel::Low);
    for (int i = 0; i < 4; ++i)
        step(p, 0x40, true);
    EXPECT_EQ(p.predict(0x40).confidence, ConfidenceLevel::High);
    EXPECT_EQ(p.counterFor(0x40), packed::unsignedMax(2)); // saturated
}

TEST(Bimodal, StorageBits)
{
    EXPECT_EQ(BimodalPredictor(10, 2).storageBits(), 2048u);
    EXPECT_EQ(BimodalPredictor(12, 3).storageBits(), 12288u);
}

TEST(Bimodal, AliasingSharesCounters)
{
    BimodalPredictor p(4); // 16 entries: 0x10 aliases with 0x00... etc.
    for (int i = 0; i < 8; ++i)
        step(p, 0x0, true);
    EXPECT_TRUE(p.predict(0x10).taken); // same entry
}

TEST(Gshare, LearnsAlternationThroughHistory)
{
    GsharePredictor p(12, 8);
    int late_misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const bool taken = i % 2 == 0;
        if (step(p, 0x40, taken).taken != taken && i > 1000)
            ++late_misses;
    }
    EXPECT_EQ(late_misses, 0);
}

TEST(Gshare, HistoryChangesIndex)
{
    GsharePredictor p(12, 8);
    const uint32_t idx0 = p.indexFor(0x40);
    step(p, 0x40, true); // shifts a 1 into the history
    EXPECT_NE(p.indexFor(0x40), idx0);
}

TEST(Gshare, StorageBits)
{
    EXPECT_EQ(GsharePredictor(12, 12).storageBits(), 8192u);
}

TEST(Jrs, HighConfidenceRequiresThresholdStreak)
{
    JrsEstimator::Config cfg;
    cfg.logEntries = 10;
    cfg.ctrBits = 4;
    cfg.threshold = 15;
    cfg.historyBits = 4;
    JrsRig rig(cfg);

    // Resolving taken every time saturates the 4-bit history at 0b1111,
    // so (pc, history) repeats after the warm-up.
    for (int i = 0; i < 4; ++i)
        rig.resolve(0x40, true, true);
    // 14 correct predictions: still low confidence.
    for (int i = 0; i < 14; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::Low);
    rig.resolve(0x40, true, true); // 15th consecutive correct
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
}

TEST(Jrs, MispredictionResetsCounter)
{
    JrsEstimator::Config cfg;
    cfg.logEntries = 10;
    cfg.historyBits = 2;
    JrsRig rig(cfg);
    for (int i = 0; i < 30; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
    // A not-taken prediction resolved taken: the same (pc, history)
    // entry, a misprediction, and the history stays 0b11.
    rig.resolve(0x40, false, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::Low);
    // The counter restarted from 0: 14 more correct stay low, the 15th
    // reaches the threshold.
    for (int i = 0; i < 14; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::Low);
    rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
}

TEST(Jrs, PredictionIndexedVariantSeparatesDirections)
{
    JrsEstimator::Config cfg;
    cfg.logEntries = 12;
    cfg.historyBits = 2;
    cfg.indexWithPrediction = true;
    JrsRig rig(cfg);
    EXPECT_EQ(rig.jrs.name(), "scripted+jrsg");
    // Build confidence for predicted-taken only.
    for (int i = 0; i < 40; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
    EXPECT_EQ(rig.grade(0x40, false), ConfidenceLevel::Low);
}

TEST(Jrs, DefaultConfigIsClassic)
{
    // 4-bit counters over 2^12 entries, threshold 15: after the 12-bit
    // history saturates, the 15th correct prediction is the first high.
    JrsRig rig(JrsEstimator::Config{});
    EXPECT_EQ(rig.jrs.name(), "scripted+jrs");
    EXPECT_EQ(rig.jrs.storageBits(), 4096u * 4);
    for (int i = 0; i < 12 + 14; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::Low);
    rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
}

TEST(Jrs, ResetClearsCountersAndHistory)
{
    JrsRig rig(JrsEstimator::Config{});
    for (int i = 0; i < 40; ++i)
        rig.resolve(0x40, true, true);
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::High);
    rig.jrs.reset();
    EXPECT_EQ(rig.grade(0x40, true), ConfidenceLevel::Low);
}

TEST(Jrs, StorageBits)
{
    JrsEstimator::Config cfg;
    cfg.logEntries = 12;
    cfg.ctrBits = 4;
    EXPECT_EQ(JrsRig(cfg).jrs.storageBits(), 16384u);
}

TEST(Jrs, RejectsBadConfig)
{
    JrsEstimator::Config bad;
    bad.threshold = 99; // exceeds 4-bit range
    EXPECT_EXIT(JrsRig{bad}, ::testing::ExitedWithCode(1), "threshold");
}

TEST(Perceptron, LearnsBias)
{
    PerceptronPredictor p(8, 16);
    for (int i = 0; i < 200; ++i)
        step(p, 0x40, true);
    EXPECT_TRUE(p.predict(0x40).taken);
}

TEST(Perceptron, LearnsHistoryCorrelation)
{
    // Outcome equals the outcome two branches ago: linearly separable
    // in the history bits, so a perceptron must learn it.
    PerceptronPredictor p(8, 16);
    bool h1 = false;
    bool h2 = false;
    int late_misses = 0;
    XorShift128Plus rng(3);
    for (int i = 0; i < 4000; ++i) {
        const bool taken = h2;
        if (step(p, 0x40, taken).taken != taken && i > 2000)
            ++late_misses;
        h2 = h1;
        h1 = taken;
    }
    EXPECT_LT(late_misses, 50);
}

TEST(Perceptron, SelfConfidenceGrowsWithTraining)
{
    PerceptronPredictor p(8, 12);
    // Untrained: |sum| = 0.
    EXPECT_EQ(p.predict(0x40).confidence, ConfidenceLevel::Low);
    for (int i = 0; i < 500; ++i)
        step(p, 0x40, true);
    EXPECT_EQ(p.predict(0x40).confidence, ConfidenceLevel::High);
}

TEST(Perceptron, ThetaFormula)
{
    PerceptronPredictor p(8, 20);
    EXPECT_EQ(p.theta(), static_cast<int>(1.93 * 20 + 14));
}

TEST(Perceptron, StorageBits)
{
    // 2^8 perceptrons x (16+1) weights x 8 bits.
    EXPECT_EQ(PerceptronPredictor(8, 16).storageBits(), 256u * 17 * 8);
}

} // namespace
} // namespace tagecon
