/**
 * @file
 * Unit tests for the packed:: saturating counter ops, including the
 * strength/weak/saturated predicates the confidence classes are
 * defined on.
 */

#include <gtest/gtest.h>

#include "util/saturating_counter.hpp"

namespace tagecon {
namespace {

using namespace packed;

TEST(SignedCounter, RangeForThreeBits)
{
    EXPECT_EQ(signedMin(3), -4);
    EXPECT_EQ(signedMax(3), 3);
}

TEST(SignedCounter, SaturatesAtBothRails)
{
    int c = 0;
    for (int i = 0; i < 10; ++i)
        c = signedUpdate(c, 3, true);
    EXPECT_EQ(c, 3);
    EXPECT_TRUE(signedSaturated(c, 3));
    for (int i = 0; i < 20; ++i)
        c = signedUpdate(c, 3, false);
    EXPECT_EQ(c, -4);
    EXPECT_TRUE(signedSaturated(c, 3));
}

TEST(SignedCounter, SignGivesPrediction)
{
    EXPECT_TRUE(signedTaken(0)); // 0 counts as (weakly) taken
    EXPECT_FALSE(signedTaken(-1));
    EXPECT_TRUE(signedTaken(3));
    EXPECT_FALSE(signedTaken(-4));
}

TEST(SignedCounter, StrengthIsPaperFormula)
{
    // |2*ctr + 1| over the full 3-bit range: the paper's class
    // boundaries 1 / 3 / 5 / 7 (Sec. 5.2).
    const int expected[8][2] = {{-4, 7}, {-3, 5}, {-2, 3}, {-1, 1},
                                {0, 1},  {1, 3},  {2, 5},  {3, 7}};
    for (const auto& [v, s] : expected)
        EXPECT_EQ(signedStrength(v), s) << "ctr=" << v;
}

TEST(SignedCounter, WeakExactlyAtStrengthOne)
{
    for (int v = signedMin(3); v <= signedMax(3); ++v)
        EXPECT_EQ(signedWeak(v), signedStrength(v) == 1) << "ctr=" << v;
}

TEST(SignedCounter, UpdateWouldSaturateDetectsTransition)
{
    EXPECT_TRUE(signedUpdateWouldSaturate(2, 3, true));
    EXPECT_FALSE(signedUpdateWouldSaturate(2, 3, false));
    EXPECT_TRUE(signedUpdateWouldSaturate(-3, 3, false));
    EXPECT_FALSE(signedUpdateWouldSaturate(-3, 3, true));
    // Already saturated: the transition happened earlier.
    EXPECT_FALSE(signedUpdateWouldSaturate(3, 3, true));
    EXPECT_FALSE(signedUpdateWouldSaturate(-4, 3, false));
}

TEST(SignedCounter, ClampsToRange)
{
    EXPECT_EQ(signedClamp(100, 3), 3);
    EXPECT_EQ(signedClamp(-100, 3), -4);
    // The clamp happens in 64 bits, before any narrowing to int.
    EXPECT_EQ(signedClamp((int64_t{1} << 32) + 3, 3), 3);
    EXPECT_EQ(signedClamp(-(int64_t{1} << 32) + 2, 3), -4);
}

/** Width sweep: invariants hold for every supported width. */
class SignedCounterWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(SignedCounterWidths, InvariantsHold)
{
    const int bits = GetParam();
    EXPECT_EQ(signedMin(bits), -(1 << (bits - 1)));
    EXPECT_EQ(signedMax(bits), (1 << (bits - 1)) - 1);

    // Walk the full range upward and downward.
    int c = signedMin(bits);
    for (int i = 0; i < (1 << bits) + 3; ++i) {
        EXPECT_GE(c, signedMin(bits));
        EXPECT_LE(c, signedMax(bits));
        EXPECT_EQ(signedStrength(c) % 2, 1); // strength is always odd
        c = signedUpdate(c, bits, true);
    }
    EXPECT_EQ(c, signedMax(bits));
    EXPECT_EQ(signedStrength(c), (1 << bits) - 1);

    for (int i = 0; i < (1 << bits) + 3; ++i)
        c = signedUpdate(c, bits, false);
    EXPECT_EQ(c, signedMin(bits));
    EXPECT_EQ(signedStrength(c), (1 << bits) - 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, SignedCounterWidths,
                         ::testing::Values(2, 3, 4, 5, 6, 8));

TEST(UnsignedCounter, RangeAndDirection)
{
    EXPECT_EQ(unsignedMax(2), 3u);
    EXPECT_FALSE(unsignedTaken(1, 2));
    EXPECT_TRUE(unsignedTaken(2, 2));
}

TEST(UnsignedCounter, WeakAtMiddleValues)
{
    const bool expected_weak[4] = {false, true, true, false};
    for (unsigned v = 0; v <= 3; ++v)
        EXPECT_EQ(unsignedWeak(v, 2), expected_weak[v]) << "v=" << v;
}

TEST(UnsignedCounter, SaturatingArithmetic)
{
    EXPECT_EQ(unsignedInc(3, 2), 3u);
    EXPECT_EQ(unsignedDec(0), 0u);
}

TEST(UnsignedCounter, AgingShiftsTheUsefulField)
{
    // A 4-bit u field above a 3-bit ctr field: aging halves u and
    // leaves ctr untouched.
    uint8_t v = ctruPack(-2, 13, 3);
    v = ctruAgeU(v, 3);
    EXPECT_EQ(ctruU(v, 3), 6u);
    v = ctruAgeU(v, 3);
    EXPECT_EQ(ctruU(v, 3), 3u);
    EXPECT_EQ(ctruCtr(v, 3), -2);
    v = ctruWithU(v, 0, 3);
    EXPECT_EQ(ctruU(v, 3), 0u);
    EXPECT_EQ(ctruCtr(v, 3), -2);
}

TEST(UnsignedCounter, UpdateMovesTowardOutcome)
{
    unsigned c = 1;
    c = unsignedUpdate(c, 2, true);
    EXPECT_EQ(c, 2u);
    c = unsignedUpdate(c, 2, false);
    c = unsignedUpdate(c, 2, false);
    EXPECT_EQ(c, 0u);
}

class UnsignedCounterWidths : public ::testing::TestWithParam<int>
{
};

TEST_P(UnsignedCounterWidths, InvariantsHold)
{
    const int bits = GetParam();
    EXPECT_EQ(unsignedMax(bits), (1u << bits) - 1);
    unsigned c = 0; // saturated at the lower rail
    for (unsigned i = 0; i < (2u << bits); ++i) {
        c = unsignedInc(c, bits);
        EXPECT_LE(c, unsignedMax(bits));
    }
    EXPECT_EQ(c, unsignedMax(bits)); // saturated at the upper rail
    EXPECT_TRUE(unsignedTaken(c, bits));
    // The two middle values are weak; the rails are not.
    EXPECT_TRUE(unsignedWeak(1u << (bits - 1), bits));
    EXPECT_TRUE(unsignedWeak((1u << (bits - 1)) - 1, bits));
    EXPECT_FALSE(unsignedWeak(unsignedMax(bits), bits));
}

INSTANTIATE_TEST_SUITE_P(Widths, UnsignedCounterWidths,
                         ::testing::Values(2, 3, 4, 8, 16));

TEST(UnsignedCounter, OneBitCounterIsDegenerate)
{
    // A 1-bit counter has no hysteresis: both of its values are the
    // "middle" values, so it is always weak.
    unsigned c = 0;
    EXPECT_TRUE(unsignedWeak(c, 1));
    c = unsignedInc(c, 1);
    EXPECT_TRUE(unsignedWeak(c, 1));
    EXPECT_TRUE(unsignedTaken(c, 1));
    EXPECT_EQ(unsignedMax(1), 1u);
}

} // namespace
} // namespace tagecon
