/**
 * @file
 * Tests for the graceful useful-counter aging (Sec. 3.2: "the useful u
 * counter is also used as an age counter and is gracefully reset
 * periodically through a one-bit shift") and its interaction with
 * allocation.
 */

#include <gtest/gtest.h>

#include "tage/tage_predictor.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** Sum of all useful counters across the tagged tables. */
uint64_t
totalUseful(const TagePredictor& pred)
{
    uint64_t sum = 0;
    const auto& cfg = pred.config();
    for (int t = 1; t <= cfg.numTaggedTables(); ++t) {
        const auto entries =
            uint32_t{1} << cfg.tagged[static_cast<size_t>(t - 1)]
                               .logEntries;
        for (uint32_t i = 0; i < entries; ++i)
            sum += pred.taggedEntry(t, i).u;
    }
    return sum;
}

/** Drive a hard random stream so u counters accumulate. */
void
driveRandom(TagePredictor& pred, int n, uint64_t seed)
{
    XorShift128Plus rng(seed);
    for (int i = 0; i < n; ++i) {
        const uint64_t pc = 0x1000 + (rng.next() % 64) * 4;
        const TagePrediction p = pred.predict(pc);
        pred.update(pc, p, rng.nextBool(0.5));
    }
}

TEST(UsefulAging, CountersAccumulateWithoutReset)
{
    TageConfig cfg = TageConfig::small16K();
    cfg.uResetPeriod = 0; // aging disabled
    TagePredictor pred(cfg);
    driveRandom(pred, 30000, 11);
    EXPECT_GT(totalUseful(pred), 0u);
}

TEST(UsefulAging, PeriodicShiftHalvesCounters)
{
    // Two predictors on the same stream; the one with a short reset
    // period must end up with (far) less accumulated usefulness.
    TageConfig no_age = TageConfig::small16K();
    no_age.uResetPeriod = 0;
    TageConfig fast_age = TageConfig::small16K();
    fast_age.uResetPeriod = 2048;

    TagePredictor a(no_age);
    TagePredictor b(fast_age);
    driveRandom(a, 30000, 13);
    driveRandom(b, 30000, 13);
    EXPECT_LT(totalUseful(b), totalUseful(a));
}

TEST(UsefulAging, AgingUnblocksAllocation)
{
    // With aggressive aging, formerly-useful entries become
    // allocatable again, so a predictor with aging keeps allocating
    // on a conflict-heavy stream while one without stalls earlier.
    TageConfig no_age = TageConfig::small16K();
    no_age.uResetPeriod = 0;
    TageConfig age = TageConfig::small16K();
    age.uResetPeriod = 4096;

    TagePredictor a(no_age);
    TagePredictor b(age);
    driveRandom(a, 60000, 17);
    driveRandom(b, 60000, 17);
    EXPECT_GT(b.allocations(), a.allocations() * 9 / 10);
}

TEST(UsefulAging, UsefulEntriesResistAllocation)
{
    // An entry whose u is non-zero must not be victimized: after
    // setting up a useful entry, a burst of mispredictions from other
    // branches may only allocate over u == 0 entries.
    TageConfig cfg = TageConfig::small16K();
    cfg.uResetPeriod = 0;
    TagePredictor pred(cfg);

    // Build some useful entries with a predictable loop.
    for (int i = 0; i < 20000; ++i) {
        const TagePrediction p = pred.predict(0x2000);
        pred.update(0x2000, p, i % 7 != 6);
    }

    // Snapshot: which entries are useful now?
    uint64_t useful_before = totalUseful(pred);
    ASSERT_GT(useful_before, 0u);

    // Hammer with random branches (lots of allocations).
    driveRandom(pred, 20000, 19);

    // Useful totals can only shrink via legitimate u decrements
    // (wrong provider or failed-allocation decay), not below zero,
    // and the loop branch must still predict well.
    int misses = 0;
    for (int i = 0; i < 7000; ++i) {
        const TagePrediction p = pred.predict(0x2000);
        if (i > 700 && p.taken != (i % 7 != 6))
            ++misses;
        pred.update(0x2000, p, i % 7 != 6);
    }
    EXPECT_LT(misses, 700);
}

} // namespace
} // namespace tagecon
