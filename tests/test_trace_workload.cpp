/**
 * @file
 * Unit and property tests for the synthetic workload generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "trace/profiles.hpp"
#include "trace/workload.hpp"

namespace tagecon {
namespace {

ProfileParams
tinyProfile()
{
    ProfileParams p;
    p.name = "tiny";
    p.seed = 7;
    p.numFunctions = 8;
    p.minSitesPerFunction = 2;
    p.maxSitesPerFunction = 6;
    return p;
}

TEST(SyntheticTrace, ProducesExactlyRequestedRecords)
{
    SyntheticTrace t(tinyProfile(), 1234);
    BranchRecord rec;
    uint64_t n = 0;
    while (t.next(rec))
        ++n;
    EXPECT_EQ(n, 1234u);
    EXPECT_FALSE(t.next(rec));
}

TEST(SyntheticTrace, DeterministicForSeed)
{
    SyntheticTrace a(tinyProfile(), 5000);
    SyntheticTrace b(tinyProfile(), 5000);
    BranchRecord ra;
    BranchRecord rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.taken, rb.taken);
        ASSERT_EQ(ra.instructionsBefore, rb.instructionsBefore);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(SyntheticTrace, ResetReplaysIdentically)
{
    SyntheticTrace t(tinyProfile(), 3000);
    std::vector<BranchRecord> first;
    BranchRecord rec;
    while (t.next(rec))
        first.push_back(rec);

    t.reset();
    size_t i = 0;
    while (t.next(rec)) {
        ASSERT_LT(i, first.size());
        ASSERT_EQ(rec.pc, first[i].pc);
        ASSERT_EQ(rec.taken, first[i].taken);
        ASSERT_EQ(rec.instructionsBefore, first[i].instructionsBefore);
        ++i;
    }
    EXPECT_EQ(i, first.size());
}

TEST(SyntheticTrace, DifferentSeedsProduceDifferentStreams)
{
    ProfileParams pa = tinyProfile();
    ProfileParams pb = tinyProfile();
    pb.seed = 8;
    SyntheticTrace a(pa, 2000);
    SyntheticTrace b(pb, 2000);
    BranchRecord ra;
    BranchRecord rb;
    int diff = 0;
    while (a.next(ra) && b.next(rb)) {
        if (ra.pc != rb.pc || ra.taken != rb.taken)
            ++diff;
    }
    EXPECT_GT(diff, 100);
}

TEST(SyntheticTrace, InstructionsWithinConfiguredRange)
{
    ProfileParams p = tinyProfile();
    p.instrPerBranchMin = 3;
    p.instrPerBranchMax = 9;
    SyntheticTrace t(p, 5000);
    BranchRecord rec;
    while (t.next(rec)) {
        EXPECT_GE(rec.instructionsBefore, 3u);
        EXPECT_LE(rec.instructionsBefore, 9u);
    }
}

TEST(SyntheticTrace, FootprintMatchesFunctionCount)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 17;
    SyntheticTrace t(p, 200000);
    EXPECT_EQ(t.numFunctions(), 17u);
    // Each function holds 2..6 sites, and a long stream visits them
    // all.
    BranchRecord rec;
    std::set<uint64_t> pcs;
    while (t.next(rec))
        pcs.insert(rec.pc);
    EXPECT_GE(pcs.size(), 17u * 2);
    EXPECT_LE(pcs.size(), 17u * 6);
}

TEST(SyntheticTrace, SitePcsAreDistinct)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 32;
    SyntheticTrace t(p, 20000);
    BranchRecord rec;
    std::set<uint64_t> pcs;
    while (t.next(rec))
        pcs.insert(rec.pc);
    // The dynamic stream must exercise a reasonable fraction of the
    // static footprint, and PCs must look scattered (not clustered on
    // one stride).
    EXPECT_GT(pcs.size(), 32u);
    std::set<uint64_t> low_bits;
    for (const auto pc : pcs)
        low_bits.insert(pc & 0x3FF);
    EXPECT_GT(low_bits.size(), pcs.size() / 2);
}

TEST(SyntheticTrace, LoopsIterateInPlace)
{
    // With only loop behaviour, the stream must contain runs of the
    // same PC: taken (period-1) times then not-taken once.
    ProfileParams p = tinyProfile();
    p.fracAlways = 0.0;
    p.fracLoop = 1.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    p.loopBodyMax = 0; // pure self-loops
    p.loopPeriodMin = 4;
    p.loopPeriodMax = 4;
    p.loopTripJitter = 0.0;
    SyntheticTrace t(p, 2000);

    BranchRecord rec;
    std::map<uint64_t, int> run_length;
    while (t.next(rec)) {
        if (rec.taken) {
            ++run_length[rec.pc];
        } else {
            // Loop exits after exactly period-1 = 3 taken iterations
            // (modulo the truncated first/last run).
            const int run = run_length[rec.pc];
            EXPECT_LE(run, 3);
            run_length[rec.pc] = 0;
        }
    }
}

TEST(SyntheticTrace, SingleKindMixEmitsOnlyThatKind)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 64;
    p.fracAlways = 1.0;
    p.fracLoop = 0.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    SyntheticTrace t(p, 5000);
    BranchRecord rec;
    while (t.next(rec))
        ASSERT_EQ(t.lastKind(), BehaviorKind::Always);
}

TEST(SyntheticTrace, LastKindTracksEmittedSite)
{
    ProfileParams p = tinyProfile();
    p.fracAlways = 1.0;
    p.fracLoop = 0.0;
    p.fracPattern = 0.0;
    p.fracBiased = 0.0;
    p.fracMarkov = 0.0;
    p.fracCorrelated = 0.0;
    SyntheticTrace t(p, 100);
    BranchRecord rec;
    while (t.next(rec)) {
        EXPECT_EQ(t.lastKind(), BehaviorKind::Always);
        EXPECT_FALSE(t.lastInBody());
    }
}

TEST(SyntheticTrace, PhasesChangeWorkingSet)
{
    ProfileParams p = tinyProfile();
    p.numFunctions = 60;
    p.hotFraction = 0.1;
    p.numPhases = 3;
    p.phaseLength = 3000;
    p.zipfSkew = 0.3;
    p.callLocality = 0.0; // pure Zipf draws make the set visible
    SyntheticTrace t(p, 9000);

    BranchRecord rec;
    std::set<uint64_t> phase_pcs[3];
    for (int phase = 0; phase < 3; ++phase) {
        for (int i = 0; i < 3000; ++i) {
            ASSERT_TRUE(t.next(rec));
            phase_pcs[phase].insert(rec.pc);
        }
    }
    // Cold working sets rotate: each phase must touch PCs the other
    // phases never touch.
    for (int a = 0; a < 3; ++a) {
        const int b = (a + 1) % 3;
        size_t only_a = 0;
        for (const auto pc : phase_pcs[a]) {
            if (phase_pcs[b].count(pc) == 0)
                ++only_a;
        }
        EXPECT_GT(only_a, 0u) << "phase " << a << " vs " << b;
    }
}

TEST(SyntheticTrace, ValidationRejectsBadProfiles)
{
    ProfileParams bad = tinyProfile();
    bad.numFunctions = 0;
    EXPECT_EXIT(SyntheticTrace(bad, 10), ::testing::ExitedWithCode(1),
                "numFunctions");

    ProfileParams bad2 = tinyProfile();
    bad2.fracAlways = 0.0;
    bad2.fracLoop = 0.0;
    bad2.fracPattern = 0.0;
    bad2.fracBiased = 0.0;
    bad2.fracMarkov = 0.0;
    bad2.fracCorrelated = 0.0;
    EXPECT_EXIT(SyntheticTrace(bad2, 10), ::testing::ExitedWithCode(1),
                "mixture");

    ProfileParams bad3 = tinyProfile();
    bad3.loopPeriodMin = 10;
    bad3.loopPeriodMax = 5;
    EXPECT_EXIT(SyntheticTrace(bad3, 10), ::testing::ExitedWithCode(1),
                "loopPeriod");
}

/** FNV-1a-64 over every record's (pc, taken, instructionsBefore). */
uint64_t
streamDigest(SyntheticTrace& t)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ULL;
    };
    BranchRecord rec;
    while (t.next(rec)) {
        mix(rec.pc);
        mix(rec.taken ? 1 : 0);
        mix(rec.instructionsBefore);
    }
    return h;
}

// Pins every named profile's record stream at two seed salts, so a
// change to program construction or generation that alters a single
// record fails here rather than shifting every downstream figure. The
// phase-compressed digest walks every phase region of each profile
// (its working set and call-graph pools) within a short stream.
TEST(SyntheticTrace, NamedProfileStreamsArePinned)
{
    struct Pinned {
        const char* name;
        uint64_t salt0;
        uint64_t saltB;
        uint64_t phased;
    };
    static const Pinned kPinned[] = {
        {"FP-1", 0xf3351a50b597a715ULL, 0x829f546a653c8ec8ULL,
         0xf3351a50b597a715ULL},
        {"FP-2", 0x4cfed24b255029ebULL, 0x13645618515d2f7fULL,
         0x4cfed24b255029ebULL},
        {"FP-3", 0x3d93346ef7bbdc6dULL, 0x951e4efe2bc211c6ULL,
         0x3d93346ef7bbdc6dULL},
        {"FP-4", 0xa2a7c635da7c0010ULL, 0x2941c0fabb017c80ULL,
         0xa2a7c635da7c0010ULL},
        {"FP-5", 0xe0b58d6cbe8ee547ULL, 0x740fda85436f5677ULL,
         0xe0b58d6cbe8ee547ULL},
        {"INT-1", 0xe8668c58c018aa2dULL, 0xaa922bda646f3351ULL,
         0xf26c44e4bab2d465ULL},
        {"INT-2", 0x73aafb948c4f4883ULL, 0xc73f04dfad369272ULL,
         0x20abee142500a6e5ULL},
        {"INT-3", 0x810263b34b3e0b77ULL, 0xb91e6767afc3352cULL,
         0x8137114fadce9757ULL},
        {"INT-4", 0xab20b79f0cd4cfa2ULL, 0xbb374da37878b2c9ULL,
         0x0afbd8c51d4bf123ULL},
        {"INT-5", 0x28a330526fa704d0ULL, 0x66afa28fda8ca3a6ULL,
         0x28a330526fa704d0ULL},
        {"MM-1", 0x0adf4dd164a9085bULL, 0x3a9dafad978dcd01ULL,
         0x0adf4dd164a9085bULL},
        {"MM-2", 0xe20c2bf7f8678600ULL, 0x9c52c240ed4aa5a2ULL,
         0xe20c2bf7f8678600ULL},
        {"MM-3", 0x95226cf878674fe1ULL, 0x37525a4d3a4f03f7ULL,
         0x95226cf878674fe1ULL},
        {"MM-4", 0x9ac02f7dea4ed7d4ULL, 0x4d54f5e5087cb757ULL,
         0x9ac02f7dea4ed7d4ULL},
        {"MM-5", 0x5ed4ec1b8581bf3fULL, 0xd185226119279472ULL,
         0x536dbbe48855ca93ULL},
        {"SERV-1", 0xf9efdcdc1627a07cULL, 0xe3bcc0791b0cd4b3ULL,
         0xa250872e71c1f756ULL},
        {"SERV-2", 0xc84ee391c9f21086ULL, 0x52b361f461840c3dULL,
         0xdda1a881761b5925ULL},
        {"SERV-3", 0x95c3f32507783b1cULL, 0x667aa0afd87f0e64ULL,
         0xf94d9fd093112e05ULL},
        {"SERV-4", 0xd79a69073e7d4cf3ULL, 0x30b0ec72c2ad514eULL,
         0x168bf7a1adf7330fULL},
        {"SERV-5", 0xa28f8821e2e3e769ULL, 0x88719c3818e9a1c5ULL,
         0x2fdfe0f49800c886ULL},
        {"164.gzip", 0x56e7c324383c09c9ULL, 0x36d74113529498edULL,
         0x56e7c324383c09c9ULL},
        {"175.vpr", 0x01720487e2bb2c58ULL, 0x88d1582612f1419dULL,
         0x223a1f7b1d202c49ULL},
        {"176.gcc", 0x79af1dd15f53edb6ULL, 0x74bfb9bb7e1453a5ULL,
         0x1c32f37b7b56edddULL},
        {"181.mcf", 0xbe3b8a241bbee8d9ULL, 0xc7cae168e148f02eULL,
         0x42ddd9d5f53c6769ULL},
        {"186.crafty", 0xc580f1fc1d01b7f1ULL, 0xed26dff13226819cULL,
         0xe256b7143de65dc9ULL},
        {"197.parser", 0xa059fde7860f76b8ULL, 0xbe7fc6d0ace73348ULL,
         0x268e403f08f52fbaULL},
        {"201.compress", 0xbbd44a1f79a73c94ULL, 0xfd7521d05676d026ULL,
         0xfeb596a44be4ea65ULL},
        {"202.jess", 0x01d8c701ac63d928ULL, 0x37cd148823ef5426ULL,
         0x21712538da38709cULL},
        {"205.raytrace", 0x6d42b8a22e3dec80ULL, 0xd8a768ee1f1f156aULL,
         0xcb72e0e49be0ede3ULL},
        {"209.db", 0x57886b6981bdf3d0ULL, 0x344a4923c94514baULL,
         0x96f5fc4d6697de87ULL},
        {"213.javac", 0x42a40021656ea5d5ULL, 0xde224fb6c2259bd6ULL,
         0xd6f489f9fc063db6ULL},
        {"222.mpegaudio", 0xae8ed3f79b140c0eULL, 0xc9f2abe31dbc90ceULL,
         0xae8ed3f79b140c0eULL},
        {"227.mtrt", 0x5bfc7dacba14f330ULL, 0x377550dddb4618d9ULL,
         0x58516d8c0985be48ULL},
        {"228.jack", 0x9a654f35b13e8bc7ULL, 0x84e71421e74f29caULL,
         0x50e9ec4cecb64902ULL},
        {"252.eon", 0x389968b84ca3a1d7ULL, 0xc2cea0c4981f4e0bULL,
         0x389968b84ca3a1d7ULL},
        {"253.perlbmk", 0xa2de9b1ee726b65dULL, 0xe9a76af95b102779ULL,
         0x2e66364b35c004f7ULL},
        {"254.gap", 0x14809ca74ee67160ULL, 0x1c4a3ba94b8b37cdULL,
         0x4682d5b08d35d136ULL},
        {"255.vortex", 0x6cec7d65ecb9f38cULL, 0x396e15642bbdb720ULL,
         0x6676e30463de0947ULL},
        {"256.bzip2", 0xb7df6f994b35ce2dULL, 0xffc640ce3a6d3113ULL,
         0x231796c8c3a3ba57ULL},
        {"300.twolf", 0xcf71a499b33bc933ULL, 0xb1bed89ad671ee27ULL,
         0xcf71a499b33bc933ULL},
    };
    constexpr uint64_t kRecords = 20000;
    constexpr uint64_t kSaltB = 0x9E3779B97F4A7C15ULL;
    const auto names = allTraceNames();
    ASSERT_EQ(names.size(), std::size(kPinned));
    for (size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        EXPECT_EQ(names[i], kPinned[i].name);
        SyntheticTrace a = makeTrace(names[i], kRecords, 0);
        EXPECT_EQ(streamDigest(a), kPinned[i].salt0);
        SyntheticTrace b = makeTrace(names[i], kRecords, kSaltB);
        EXPECT_EQ(streamDigest(b), kPinned[i].saltB);

        ProfileParams p = profileByName(names[i]);
        const uint64_t phases =
            static_cast<uint64_t>(std::max(p.numPhases, 1));
        p.phaseLength = kRecords / (phases + 1);
        SyntheticTrace c(p, kRecords);
        EXPECT_EQ(streamDigest(c), kPinned[i].phased);
    }
}

TEST(Materialize, DrainsIntoVectorTrace)
{
    SyntheticTrace t(tinyProfile(), 500);
    VectorTrace v = materialize(t, 200);
    EXPECT_EQ(v.size(), 200u);
    EXPECT_EQ(v.name(), "tiny");
    // Source continues from where materialize stopped.
    BranchRecord rec;
    uint64_t remaining = 0;
    while (t.next(rec))
        ++remaining;
    EXPECT_EQ(remaining, 300u);
}

TEST(VectorTrace, ResetRestarts)
{
    std::vector<BranchRecord> recs = {{0x10, true, 3}, {0x20, false, 4}};
    VectorTrace v("two", recs);
    BranchRecord rec;
    EXPECT_TRUE(v.next(rec));
    EXPECT_TRUE(v.next(rec));
    EXPECT_FALSE(v.next(rec));
    v.reset();
    EXPECT_TRUE(v.next(rec));
    EXPECT_EQ(rec.pc, 0x10u);
}

} // namespace
} // namespace tagecon
