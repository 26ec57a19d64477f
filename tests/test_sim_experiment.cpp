/**
 * @file
 * Tests for trace replay: runTrace() and the ReplayStep loop it and
 * the serving engine share.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "tage/graded_tage.hpp"

namespace tagecon {
namespace {

TEST(RunTrace, CountsMatchTraceLength)
{
    SyntheticTrace t = makeTrace("FP-1", 20000);
    GradedTage predictor(TageConfig::small16K());
    const RunResult r = runTrace(t, predictor);
    EXPECT_EQ(r.stats.totalPredictions(), 20000u);
    EXPECT_EQ(r.traceName, "FP-1");
    EXPECT_EQ(r.configName, predictor.name());
    EXPECT_GE(r.stats.instructions(), 20000u);
    EXPECT_TRUE(r.traceError.ok());
}

TEST(RunTrace, IsDeterministic)
{
    SyntheticTrace t1 = makeTrace("MM-1", 30000);
    SyntheticTrace t2 = makeTrace("MM-1", 30000);
    GradedTage p1(TageConfig::small16K());
    GradedTage p2(TageConfig::small16K());
    const RunResult a = runTrace(t1, p1);
    const RunResult b = runTrace(t2, p2);
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(a.stats.predictions(c), b.stats.predictions(c));
        EXPECT_EQ(a.stats.mispredictions(c), b.stats.mispredictions(c));
    }
}

TEST(RunTrace, AdaptiveRequiresProbabilisticSaturation)
{
    GradedTageOptions opt;
    opt.adaptive = true; // but the config lacks probabilisticSaturation
    EXPECT_EXIT(GradedTage(TageConfig::small16K(), opt),
                ::testing::ExitedWithCode(1), "probabilisticSaturation");
}

TEST(RunTrace, AdaptiveRunReportsFinalProbability)
{
    SyntheticTrace t = makeTrace("300.twolf", 200000);
    GradedTageOptions opt;
    opt.adaptive = true;
    opt.adaptiveConfig.epochLength = 16384;
    GradedTage predictor(
        TageConfig::small16K().withProbabilisticSaturation(7), opt);
    const RunResult r = runTrace(t, predictor);
    EXPECT_LE(r.finalLog2Prob, opt.adaptiveConfig.maxLog2);
    EXPECT_GE(r.finalLog2Prob, opt.adaptiveConfig.minLog2);
}

TEST(RunTrace, RecordsAllocations)
{
    SyntheticTrace t = makeTrace("INT-1", 20000);
    GradedTage predictor(TageConfig::small16K());
    const RunResult r = runTrace(t, predictor);
    EXPECT_GT(r.allocations, 0u);
}

TEST(ReplayStep, LimitedTurnsAddUpToOneRun)
{
    // A serving stream replays in turns of `limit` records through one
    // reused step; the turns must add up to the single unlimited run.
    SyntheticTrace whole = makeTrace("SERV-1", 15000);
    auto p1 = makePredictor("tage16k+sfc");
    const RunResult one = runTrace(whole, *p1);

    SyntheticTrace turns = makeTrace("SERV-1", 15000);
    auto p2 = makePredictor("tage16k+sfc");
    ReplayStep step;
    ClassStats stats;
    BinaryConfidenceMetrics confusion;
    uint64_t served = 0;
    for (;;) {
        const ReplayOutcome out =
            step.run(turns, *p2, 97, stats, confusion);
        EXPECT_TRUE(out.error.ok());
        EXPECT_LE(out.served, 97u);
        served += out.served;
        if (out.served < 97)
            break;
    }
    EXPECT_EQ(served, 15000u);
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(one.stats.predictions(c), stats.predictions(c));
        EXPECT_EQ(one.stats.mispredictions(c), stats.mispredictions(c));
    }
    EXPECT_EQ(one.stats.instructions(), stats.instructions());
    EXPECT_EQ(one.confusion.highCorrect(), confusion.highCorrect());
    EXPECT_EQ(one.confusion.lowWrong(), confusion.lowWrong());
    EXPECT_EQ(one.allocations, p2->allocations());
}

} // namespace
} // namespace tagecon
