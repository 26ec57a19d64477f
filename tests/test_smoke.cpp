/**
 * @file
 * End-to-end smoke test: the whole pipeline runs and produces sane
 * numbers on a small trace.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hpp"
#include "tage/graded_tage.hpp"

namespace tagecon {
namespace {

TEST(Smoke, PipelineRuns)
{
    SyntheticTrace trace = makeTrace("FP-1", 50000);
    GradedTage predictor(TageConfig::medium64K());
    RunResult rr = runTrace(trace, predictor);
    EXPECT_EQ(rr.stats.totalPredictions(), 50000u);
    EXPECT_GT(rr.stats.instructions(), 50000u);
    EXPECT_LT(rr.stats.totalMkp(), 500.0);
    EXPECT_EQ(rr.traceName, "FP-1");
    EXPECT_FALSE(rr.configName.empty());
}

} // namespace
} // namespace tagecon
