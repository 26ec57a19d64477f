/**
 * @file
 * Tests for the O-GEHL predictor and its self-confidence estimate.
 */

#include <gtest/gtest.h>

#include "baseline/ogehl_predictor.hpp"
#include "util/random.hpp"

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

TEST(Ogehl, LearnsConstantBranch)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    for (int i = 0; i < 200; ++i)
        step(p, 0x40, true);
    EXPECT_TRUE(p.predict(0x40).taken);
    for (int i = 0; i < 400; ++i)
        step(p, 0x80, false);
    EXPECT_FALSE(p.predict(0x80).taken);
}

TEST(Ogehl, LearnsAlternation)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    int late_misses = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = i % 2 == 0;
        if (step(p, 0x40, taken).taken != taken && i > 2000)
            ++late_misses;
    }
    EXPECT_LT(late_misses, 20);
}

TEST(Ogehl, LearnsLongLoopViaGeometricHistory)
{
    // A period-60 loop needs a component with history >= 60; the
    // default config reaches 200.
    OgehlPredictor p(OgehlPredictor::Config{});
    int late_misses = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        const bool taken = i % 60 != 59;
        if (step(p, 0x40, taken).taken != taken && i > n / 2)
            ++late_misses;
    }
    EXPECT_LT(late_misses, n / 2 / 50);
}

TEST(Ogehl, SelfConfidenceLowWhenUntrained)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    EXPECT_EQ(p.predict(0x40).confidence, ConfidenceLevel::Low);
}

TEST(Ogehl, SelfConfidenceHighAfterTraining)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    for (int i = 0; i < 500; ++i)
        step(p, 0x40, true);
    // High and taken: the sum is at or above +theta.
    const Prediction pred = p.predict(0x40);
    EXPECT_EQ(pred.confidence, ConfidenceLevel::High);
    EXPECT_TRUE(pred.taken);
}

TEST(Ogehl, ThetaAdaptsUpwardUnderNoise)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    const int initial = p.theta();
    XorShift128Plus rng(3);
    // Pure noise: constant mispredictions drive theta up.
    for (int i = 0; i < 60000; ++i) {
        const uint64_t pc = 0x100 + (rng.next() % 16) * 4;
        step(p, pc, rng.nextBool(0.5));
    }
    EXPECT_GT(p.theta(), initial);
}

TEST(Ogehl, StorageBits)
{
    OgehlPredictor::Config cfg;
    cfg.numTables = 8;
    cfg.logEntries = 11;
    cfg.ctrBits = 4;
    EXPECT_EQ(OgehlPredictor(cfg).storageBits(), 8u * 2048 * 4);
}

TEST(Ogehl, RejectsBadConfig)
{
    OgehlPredictor::Config bad;
    bad.numTables = 1;
    EXPECT_EXIT(OgehlPredictor{bad}, ::testing::ExitedWithCode(1),
                "table count");
    OgehlPredictor::Config bad2;
    bad2.maxHistory = 1;
    bad2.minHistory = 5;
    EXPECT_EXIT(OgehlPredictor{bad2}, ::testing::ExitedWithCode(1),
                "history bounds");
}

TEST(Ogehl, BeatsCoinOnBiasedStream)
{
    OgehlPredictor p(OgehlPredictor::Config{});
    XorShift128Plus rng(9);
    int misses = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBool(0.8);
        if (step(p, 0x200, taken).taken != taken)
            ++misses;
    }
    // Must approach the 20% intrinsic floor.
    EXPECT_LT(misses, n * 30 / 100);
}

} // namespace
} // namespace tagecon
