/**
 * @file
 * Tests for the in-place loop execution model: bodies re-execute while
 * the head is taken, body behaviours restart per loop entry, and the
 * resulting streams are learnable by history-based predictors (the
 * property the whole synthetic-trace substitution rests on).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "tage/tage_predictor.hpp"
#include "trace/workload.hpp"

namespace tagecon {
namespace {

/** A profile that is all loops with bodies. */
ProfileParams
loopBodyProfile()
{
    ProfileParams p;
    p.name = "loopbody";
    p.seed = 21;
    p.numFunctions = 6;
    p.minSitesPerFunction = 4;
    p.maxSitesPerFunction = 8;
    p.fracAlways = 0.2;
    p.fracLoop = 0.5;
    p.fracPattern = 0.3;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    p.loopBodyMax = 3;
    p.loopPeriodMin = 4;
    p.loopPeriodMax = 10;
    p.loopTripJitter = 0.0;
    return p;
}

TEST(LoopBodies, BodySitesExecuteBetweenHeadExecutions)
{
    SyntheticTrace t(loopBodyProfile(), 20000);
    BranchRecord rec;
    bool saw_body = false;
    while (t.next(rec)) {
        if (t.lastInBody())
            saw_body = true;
    }
    EXPECT_TRUE(saw_body);
}

TEST(LoopBodies, HeadRunsMatchPeriod)
{
    // With jitter 0, each loop head's taken-run length is constant.
    SyntheticTrace t(loopBodyProfile(), 40000);
    BranchRecord rec;
    std::map<uint64_t, int> current_run;
    std::map<uint64_t, std::set<int>> run_lengths;
    std::map<uint64_t, bool> is_head;

    while (t.next(rec)) {
        if (t.lastKind() != BehaviorKind::Loop)
            continue;
        if (rec.taken) {
            ++current_run[rec.pc];
        } else {
            // Ignore truncated runs (function abandoned mid-loop is
            // impossible; first run after build is complete).
            run_lengths[rec.pc].insert(current_run[rec.pc]);
            current_run[rec.pc] = 0;
        }
    }

    ASSERT_FALSE(run_lengths.empty());
    for (const auto& [pc, lengths] : run_lengths) {
        EXPECT_EQ(lengths.size(), 1u)
            << "loop at " << std::hex << pc
            << " has variable trip count without jitter";
    }
}

TEST(LoopBodies, WholeStreamIsHighlyLearnable)
{
    // Loops + per-entry-restarting body patterns + always sites form a
    // deterministic, low-entropy program: TAGE must reach near-zero
    // misprediction after warmup. This is the core property that makes
    // the synthetic traces a valid CBP substitute.
    SyntheticTrace t(loopBodyProfile(), 120000);
    TagePredictor pred(TageConfig::medium64K());
    BranchRecord rec;
    uint64_t n = 0;
    uint64_t late_misses = 0;
    while (t.next(rec)) {
        const TagePrediction p = pred.predict(rec.pc);
        if (n > 60000 && p.taken != rec.taken)
            ++late_misses;
        pred.update(rec.pc, p, rec.taken);
        ++n;
    }
    // Under 2% misprediction on the measured half.
    EXPECT_LT(late_misses, 1200u);
}

TEST(LoopBodies, JitterMakesExitsImperfect)
{
    ProfileParams p = loopBodyProfile();
    p.loopTripJitter = 0.3;
    SyntheticTrace t(p, 120000);
    TagePredictor pred(TageConfig::medium64K());
    BranchRecord rec;
    uint64_t n = 0;
    uint64_t late_misses = 0;
    while (t.next(rec)) {
        const TagePrediction pr = pred.predict(rec.pc);
        if (n > 60000 && pr.taken != rec.taken)
            ++late_misses;
        pred.update(rec.pc, pr, rec.taken);
        ++n;
    }
    // Jittered trip counts leave a real misprediction floor.
    EXPECT_GT(late_misses, 500u);
}

TEST(LoopBodies, SelfLoopWhenBodyMaxZero)
{
    ProfileParams p = loopBodyProfile();
    p.loopBodyMax = 0;
    SyntheticTrace t(p, 20000);
    BranchRecord rec;
    while (t.next(rec))
        EXPECT_FALSE(t.lastInBody());
}

TEST(LoopBodies, StreamStaysInsideFunctionSites)
{
    // Control flow never escapes a function's site list: every PC in
    // the stream belongs to the static footprint.
    const ProfileParams p = loopBodyProfile();
    SyntheticTrace t(p, 30000);
    std::set<uint64_t> pcs;
    BranchRecord rec;
    while (t.next(rec))
        pcs.insert(rec.pc);
    EXPECT_LE(pcs.size(), static_cast<size_t>(p.numFunctions) *
                              static_cast<size_t>(p.maxSitesPerFunction));
}

} // namespace
} // namespace tagecon
