/**
 * @file
 * Unit tests for the per-branch outcome models.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/behavior.hpp"
#include "util/global_history.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

struct Fixture {
    XorShift128Plus rng{99};
    GlobalHistory history{64};
    BehaviorContext ctx{rng, history};
};

TEST(Behavior, AlwaysIsConstant)
{
    Fixture f;
    BranchBehavior t = BranchBehavior::always(true);
    BranchBehavior n = BranchBehavior::always(false);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(t.nextOutcome(f.ctx));
        EXPECT_FALSE(n.nextOutcome(f.ctx));
    }
    EXPECT_EQ(t.kind(), BehaviorKind::Always);
}

TEST(Behavior, LoopTakenPeriodMinusOneTimes)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::loop(5);
    for (int run = 0; run < 4; ++run) {
        for (int i = 0; i < 4; ++i)
            EXPECT_TRUE(b.nextOutcome(f.ctx)) << "run " << run;
        EXPECT_FALSE(b.nextOutcome(f.ctx)) << "run " << run;
    }
}

TEST(Behavior, LoopPeriodOneNeverTaken)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::loop(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(b.nextOutcome(f.ctx));
}

TEST(Behavior, LoopJitterVariesTripCount)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::loop(10, 0.5);
    // Measure run lengths over many runs; with 50% jitter we must see
    // at least two distinct trip counts among {9, 10, 11}.
    std::set<int> lengths;
    int current = 0;
    for (int i = 0; i < 2000; ++i) {
        if (b.nextOutcome(f.ctx)) {
            ++current;
        } else {
            lengths.insert(current + 1);
            current = 0;
        }
    }
    EXPECT_GE(lengths.size(), 2u);
    for (const int len : lengths) {
        EXPECT_GE(len, 9);
        EXPECT_LE(len, 11);
    }
}

TEST(Behavior, LoopResetRestartsRun)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::loop(4);
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    b.reset();
    // A fresh run: 3 taken then 1 not-taken.
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    EXPECT_FALSE(b.nextOutcome(f.ctx));
}

TEST(Behavior, PatternRepeats)
{
    Fixture f;
    const std::vector<bool> pat = {true, true, false, true};
    BranchBehavior b = BranchBehavior::pattern(pat);
    for (int rep = 0; rep < 5; ++rep) {
        for (size_t i = 0; i < pat.size(); ++i)
            EXPECT_EQ(b.nextOutcome(f.ctx), pat[i]) << rep << ":" << i;
    }
}

TEST(Behavior, PatternResetRestartsAtZero)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::pattern({true, false});
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    b.reset();
    EXPECT_TRUE(b.nextOutcome(f.ctx));
    EXPECT_FALSE(b.nextOutcome(f.ctx));
}

TEST(Behavior, BiasedMatchesProbability)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::biased(0.8);
    int taken = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        taken += b.nextOutcome(f.ctx) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(taken) / n, 0.8, 0.02);
}

TEST(Behavior, BiasedClampsProbability)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::biased(7.0);
    for (int i = 0; i < 50; ++i)
        EXPECT_TRUE(b.nextOutcome(f.ctx));
}

TEST(Behavior, MarkovStayProbability)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::markov(0.9, 0.9);
    int stays = 0;
    int transitions = 0;
    bool last = b.nextOutcome(f.ctx);
    for (int i = 0; i < 50000; ++i) {
        const bool cur = b.nextOutcome(f.ctx);
        ++transitions;
        if (cur == last)
            ++stays;
        last = cur;
    }
    EXPECT_NEAR(static_cast<double>(stays) / transitions, 0.9, 0.02);
}

TEST(Behavior, CorrelatedFollowsHistoryParity)
{
    Fixture f;
    // Single tap at distance 2, no inversion, no noise: outcome equals
    // the global outcome two branches ago.
    BranchBehavior b =
        BranchBehavior::correlated({2}, /*invert=*/false, /*noise=*/0.0);
    XorShift128Plus stream(4);
    for (int i = 0; i < 500; ++i) {
        const bool expected = f.history[2] != 0;
        EXPECT_EQ(b.nextOutcome(f.ctx), expected) << "i=" << i;
        f.history.push(stream.nextBool(0.5));
    }
}

TEST(Behavior, CorrelatedMultiTapParityAndInvert)
{
    Fixture f;
    BranchBehavior b =
        BranchBehavior::correlated({1, 3}, /*invert=*/true, 0.0);
    XorShift128Plus stream(8);
    for (int i = 0; i < 500; ++i) {
        const bool parity = ((f.history[1] ^ f.history[3]) & 1) != 0;
        EXPECT_EQ(b.nextOutcome(f.ctx), !parity) << "i=" << i;
        f.history.push(stream.nextBool(0.5));
    }
}

TEST(Behavior, CorrelatedNoiseFlipsSometimes)
{
    Fixture f;
    BranchBehavior b = BranchBehavior::correlated({1}, false, 0.25);
    XorShift128Plus stream(12);
    int flips = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const bool clean = f.history[1] != 0;
        if (b.nextOutcome(f.ctx) != clean)
            ++flips;
        f.history.push(stream.nextBool(0.5));
    }
    EXPECT_NEAR(static_cast<double>(flips) / n, 0.25, 0.02);
}

TEST(Behavior, KindReportsModel)
{
    EXPECT_EQ(BranchBehavior::loop(3).kind(), BehaviorKind::Loop);
    EXPECT_EQ(BranchBehavior::pattern({true}).kind(),
              BehaviorKind::Pattern);
    EXPECT_EQ(BranchBehavior::biased(0.5).kind(), BehaviorKind::Biased);
    EXPECT_EQ(BranchBehavior::markov(0.5, 0.5).kind(),
              BehaviorKind::Markov);
    EXPECT_EQ(BranchBehavior::correlated({1}, false, 0.0).kind(),
              BehaviorKind::Correlated);
}

} // namespace
} // namespace tagecon
