/**
 * @file
 * Fault-injection framework tests: the spec grammar (accepted and
 * rejected forms), deterministic trigger schedules (nth / count /
 * rate / key are pure functions of per-key hit indices, independent of
 * re-arming order), scope-key plumbing, and the "unarmed means zero
 * effect" guarantee the production paths rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/errors.hpp"
#include "util/failpoint.hpp"

namespace tagecon {
namespace failpoints {
namespace {

/** Disarm around every test so armed rules can't leak between them. */
class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { disarm(); }
    void TearDown() override { disarm(); }
};

TEST_F(FailpointTest, GrammarAcceptsTheDocumentedForms)
{
    std::vector<FailRule> rules;
    std::string error;

    ASSERT_TRUE(parseFaultSpec("trace.read", rules, error)) << error;
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0].site, "trace.read");
    EXPECT_EQ(rules[0].key, kNoKey);
    EXPECT_EQ(rules[0].nth, 0u);
    EXPECT_EQ(rules[0].code, ErrCode::Io);

    ASSERT_TRUE(parseFaultSpec(
        "ckpt.read:nth=3;trace.read:rate=0.01,seed=7,err=corrupt",
        rules, error))
        << error;
    ASSERT_EQ(rules.size(), 2u);
    EXPECT_EQ(rules[0].site, "ckpt.read");
    EXPECT_EQ(rules[0].nth, 3u);
    EXPECT_EQ(rules[1].site, "trace.read");
    EXPECT_DOUBLE_EQ(rules[1].rate, 0.01);
    EXPECT_EQ(rules[1].seed, 7u);
    EXPECT_EQ(rules[1].code, ErrCode::Corrupt);

    ASSERT_TRUE(parseFaultSpec("ckpt.write:key=12,count=2", rules,
                               error))
        << error;
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0].key, 12u);
    EXPECT_EQ(rules[0].count, 2u);
}

TEST_F(FailpointTest, GrammarRejectsBadSpecs)
{
    std::vector<FailRule> rules;
    std::string error;

    // Unknown site (typo protection is the point of the closed set).
    EXPECT_FALSE(parseFaultSpec("ckpt.raed", rules, error));
    EXPECT_NE(error.find("ckpt.raed"), std::string::npos);

    // (An empty spec is not an error: arm("") disarms.)
    EXPECT_FALSE(parseFaultSpec("trace.read:", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:nth=0", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:count=0", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:rate=1.5", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:rate=-0.1", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:bogus=1", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:err=nope", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:err=none", rules, error));
    EXPECT_FALSE(parseFaultSpec("trace.read:nth", rules, error));
    // nth and rate are mutually exclusive trigger modes.
    EXPECT_FALSE(
        parseFaultSpec("trace.read:nth=2,rate=0.5", rules, error));

    // arm() leaves previous arming untouched on a bad spec.
    ASSERT_TRUE(arm("trace.read:key=1", &error)) << error;
    EXPECT_FALSE(arm("trace.raed", &error));
    EXPECT_TRUE(anyArmed());
}

TEST_F(FailpointTest, UnarmedChecksHaveZeroEffect)
{
    EXPECT_FALSE(anyArmed());
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(check("trace.read").has_value());
}

TEST_F(FailpointTest, NthTriggersOnExactlyTheNthHitPerKey)
{
    ASSERT_TRUE(arm("ckpt.read:nth=3"));
    KeyScope scope(42);
    EXPECT_FALSE(check("ckpt.read").has_value());
    EXPECT_FALSE(check("ckpt.read").has_value());
    auto fired = check("ckpt.read");
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(fired->code, ErrCode::Io);
    EXPECT_EQ(fired->site, "ckpt.read");
    EXPECT_NE(fired->detail.find("hit 3"), std::string::npos);
    // nth fires once, not "from the 3rd hit on".
    EXPECT_FALSE(check("ckpt.read").has_value());

    // A different site is unaffected.
    EXPECT_FALSE(check("ckpt.write").has_value());
}

TEST_F(FailpointTest, HitCountersAreIndependentPerKey)
{
    ASSERT_TRUE(arm("trace.read:nth=2"));
    {
        KeyScope a(1);
        EXPECT_FALSE(check("trace.read").has_value());
    }
    {
        // Key 2's first hit must not see key 1's count.
        KeyScope b(2);
        EXPECT_FALSE(check("trace.read").has_value());
        EXPECT_TRUE(check("trace.read").has_value());
    }
    {
        KeyScope a(1);
        EXPECT_TRUE(check("trace.read").has_value());
    }
}

TEST_F(FailpointTest, KeyParamTargetsOneScopeOnly)
{
    ASSERT_TRUE(arm("serve.worker.step:key=7,err=truncated"));
    {
        KeyScope other(3);
        EXPECT_FALSE(check("serve.worker.step").has_value());
    }
    // Outside any scope the key is kNoKey, which never equals 7.
    EXPECT_FALSE(check("serve.worker.step").has_value());
    {
        KeyScope target(7);
        auto fired = check("serve.worker.step");
        ASSERT_TRUE(fired.has_value());
        EXPECT_EQ(fired->code, ErrCode::Truncated);
        EXPECT_NE(fired->detail.find("key 7"), std::string::npos);
    }
}

TEST_F(FailpointTest, CountCapsFiresPerKey)
{
    ASSERT_TRUE(arm("ckpt.write:count=2"));
    KeyScope scope(5);
    EXPECT_TRUE(check("ckpt.write").has_value());
    EXPECT_TRUE(check("ckpt.write").has_value());
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(check("ckpt.write").has_value());
}

TEST_F(FailpointTest, RateScheduleIsSeededAndReproducible)
{
    auto schedule = [](uint64_t seed) {
        std::string spec =
            "trace.read:rate=0.25,seed=" + std::to_string(seed);
        EXPECT_TRUE(arm(spec));
        KeyScope scope(9);
        std::vector<bool> fires;
        for (int i = 0; i < 200; ++i)
            fires.push_back(check("trace.read").has_value());
        return fires;
    };

    const auto a = schedule(7);
    const auto b = schedule(7);
    EXPECT_EQ(a, b); // re-arming resets counters: same schedule

    const auto c = schedule(8);
    EXPECT_NE(a, c); // a different seed is a different schedule

    // rate=0.25 should fire sometimes and not always.
    const auto fired =
        static_cast<size_t>(std::count(a.begin(), a.end(), true));
    EXPECT_GT(fired, 0u);
    EXPECT_LT(fired, a.size());

    // Degenerate rates are exact, not approximate.
    EXPECT_TRUE(arm("trace.read:rate=1"));
    {
        KeyScope scope(9);
        for (int i = 0; i < 20; ++i)
            EXPECT_TRUE(check("trace.read").has_value());
    }
    EXPECT_TRUE(arm("trace.read:rate=0"));
    {
        KeyScope scope(9);
        for (int i = 0; i < 20; ++i)
            EXPECT_FALSE(check("trace.read").has_value());
    }
}

TEST_F(FailpointTest, RateScheduleIsPerKeyNotPerThreadOrder)
{
    // The fire decision for (key, hit-index) must not depend on how
    // hits of different keys interleave — serve determinism at any
    // --jobs hangs off this.
    ASSERT_TRUE(arm("trace.read:rate=0.5,seed=3"));
    std::vector<bool> interleaved_a, interleaved_b;
    for (int i = 0; i < 50; ++i) {
        {
            KeyScope sa(1);
            interleaved_a.push_back(check("trace.read").has_value());
        }
        {
            KeyScope sb(2);
            interleaved_b.push_back(check("trace.read").has_value());
        }
    }

    ASSERT_TRUE(arm("trace.read:rate=0.5,seed=3"));
    std::vector<bool> sequential_a, sequential_b;
    {
        KeyScope sa(1);
        for (int i = 0; i < 50; ++i)
            sequential_a.push_back(check("trace.read").has_value());
    }
    {
        KeyScope sb(2);
        for (int i = 0; i < 50; ++i)
            sequential_b.push_back(check("trace.read").has_value());
    }

    EXPECT_EQ(interleaved_a, sequential_a);
    EXPECT_EQ(interleaved_b, sequential_b);
}

TEST_F(FailpointTest, KeyScopesNestAndRestore)
{
    // An unkeyed rule fires on every hit, and its detail names the
    // scope key in force (none outside any scope).
    ASSERT_TRUE(arm("trace.read"));
    auto detail = [] {
        const auto fired = check("trace.read");
        return fired ? fired->detail : std::string();
    };
    EXPECT_EQ(detail().find("key"), std::string::npos);
    {
        KeyScope outer(10);
        EXPECT_NE(detail().find("key 10"), std::string::npos);
        {
            KeyScope inner(11);
            EXPECT_NE(detail().find("key 11"), std::string::npos);
        }
        EXPECT_NE(detail().find("key 10"), std::string::npos);
    }
    EXPECT_EQ(detail().find("key"), std::string::npos);
}

TEST_F(FailpointTest, ScopedFaultsDisarmOnDestruction)
{
    {
        ScopedFaults faults("trace.read");
        EXPECT_TRUE(faults.ok());
        EXPECT_TRUE(anyArmed());
    }
    EXPECT_FALSE(anyArmed());

    std::string error;
    ScopedFaults bad("no.such.site", &error);
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(error.empty());
}

TEST_F(FailpointTest, KnownSitesAreSortedAndIncludeTheWiredOnes)
{
    const auto& sites = knownSites();
    EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
    for (const char* site :
         {"trace.open", "trace.read", "ckpt.encode", "ckpt.decode",
          "ckpt.read", "ckpt.write", "serve.worker.step"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), site),
                  sites.end())
            << site;
    }
}

} // namespace
} // namespace failpoints
} // namespace tagecon
