/**
 * @file
 * Tests for the GradedPredictor API: adapter equivalence with the
 * hand-wired seed pipeline, the JRS decorator, the contract checks
 * (payload routing, reset determinism), and the bit-identity of every
 * family's predictMany() with the scalar predict/update loop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <typeinfo>
#include <vector>

#include "baseline/bimodal_predictor.hpp"
#include "baseline/gshare_predictor.hpp"
#include "baseline/jrs_estimator.hpp"
#include "baseline/ogehl_predictor.hpp"
#include "baseline/perceptron_predictor.hpp"
#include "core/confidence_observer.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "tage/graded_tage.hpp"
#include "tage/tage_predictor.hpp"

namespace tagecon {
namespace {

TEST(GradedTage, MatchesHandWiredPipeline)
{
    const TageConfig cfg =
        TageConfig::small16K().withProbabilisticSaturation(7);

    // Hand-wired: the way every seed bench drove the paper's pipeline.
    TagePredictor predictor(cfg);
    ConfidenceObserver observer;
    ClassStats manual;
    SyntheticTrace t1 = makeTrace("MM-2", 20000);
    BranchRecord rec;
    while (t1.next(rec)) {
        const TagePrediction p = predictor.predict(rec.pc);
        const PredictionClass cls = observer.classify(p);
        manual.record(cls, p.taken != rec.taken,
                      uint64_t{rec.instructionsBefore} + 1);
        observer.onResolve(p, rec.taken);
        predictor.update(rec.pc, p, rec.taken);
    }

    // The adapter behind the unified API.
    GradedTage graded(cfg);
    SyntheticTrace t2 = makeTrace("MM-2", 20000);
    const RunResult r = runTrace(t2, graded);

    EXPECT_EQ(r.stats.totalPredictions(), manual.totalPredictions());
    EXPECT_EQ(r.stats.totalMispredictions(),
              manual.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(r.stats.predictions(c), manual.predictions(c));
        EXPECT_EQ(r.stats.mispredictions(c), manual.mispredictions(c));
    }
}

TEST(GradedTage, HandBuiltAndSpecRunsAgree)
{
    SyntheticTrace t1 = makeTrace("SERV-2", 15000);
    GradedTage hand_built(TageConfig::small16K());
    const RunResult hand = runTrace(t1, hand_built);

    SyntheticTrace t2 = makeTrace("SERV-2", 15000);
    auto from_spec = makePredictor("tage16k+sfc");
    const RunResult spec = runTrace(t2, *from_spec);

    EXPECT_EQ(hand.stats.totalMispredictions(),
              spec.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses)
        EXPECT_EQ(hand.stats.predictions(c), spec.stats.predictions(c));
    EXPECT_EQ(hand.confusion.highCorrect(), spec.confusion.highCorrect());
    EXPECT_EQ(hand.allocations, spec.allocations);
}

TEST(GradedTage, StalePredictionIsFatal)
{
    GradedTage graded(TageConfig::small16K());
    const Prediction p1 = graded.predict(100);
    graded.update(100, p1, true);
    const Prediction p2 = graded.predict(100);
    (void)p2;
    EXPECT_EXIT(graded.update(100, p1, true),
                ::testing::ExitedWithCode(1), "immediately preceding");
}

TEST(GradedTage, ResetRestoresDeterminism)
{
    GradedTage graded(TageConfig::small16K());
    SyntheticTrace t1 = makeTrace("INT-3", 10000);
    const RunResult a = runTrace(t1, graded);
    graded.reset();
    SyntheticTrace t2 = makeTrace("INT-3", 10000);
    const RunResult b = runTrace(t2, graded);
    EXPECT_EQ(a.stats.totalMispredictions(),
              b.stats.totalMispredictions());
    EXPECT_EQ(a.confusion.highCorrect(), b.confusion.highCorrect());
}

TEST(GradedLTage, RunsAndGradesLoopBranches)
{
    GradedLTage graded(TageConfig::small16K());
    SyntheticTrace t = makeTrace("FP-2", 20000);
    const RunResult r = runTrace(t, graded);
    EXPECT_EQ(r.stats.totalPredictions(), 20000u);
    EXPECT_GT(graded.storageBits(),
              TageConfig::small16K().storageBits());
}

TEST(JrsEstimator, OverridesIntrinsicGrade)
{
    JrsEstimator est(std::make_unique<GradedTage>(TageConfig::small16K()),
                     JrsEstimator::Config{});

    // Freshly-reset JRS counters are all zero, far below the
    // threshold, so the first grade must be Low regardless of what
    // TAGE's intrinsic grade says.
    const Prediction p = est.predict(0x1234);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    EXPECT_EQ(p.cls, representativeClass(ConfidenceLevel::Low));
    est.update(0x1234, p, p.taken);
}

TEST(JrsEstimator, ClassStaysConsistentWithLevel)
{
    auto p = makeTrace("164.gzip", 5000);
    JrsEstimator est(std::make_unique<GradedTage>(TageConfig::small16K()),
                     JrsEstimator::Config{});
    BranchRecord rec;
    while (p.next(rec)) {
        const Prediction pred = est.predict(rec.pc);
        EXPECT_EQ(confidenceLevel(pred.cls), pred.confidence);
        est.update(rec.pc, pred, rec.taken);
    }
}

TEST(BimodalPredictor, GradesWithSmithSelfConfidence)
{
    BimodalPredictor bimodal(10);
    // A fresh 2-bit counter starts weak: low confidence.
    Prediction p = bimodal.predict(64);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    bimodal.update(64, p, true);
    // Train the counter strong; confidence must rise.
    for (int i = 0; i < 4; ++i) {
        p = bimodal.predict(64);
        bimodal.update(64, p, true);
    }
    p = bimodal.predict(64);
    EXPECT_EQ(p.confidence, ConfidenceLevel::High);
    EXPECT_TRUE(p.taken);
    bimodal.update(64, p, true);
}

TEST(GsharePredictor, IsConfidenceBlind)
{
    GsharePredictor gshare(10, 10);
    EXPECT_FALSE(gshare.hasIntrinsicConfidence());
    const Prediction p = gshare.predict(4);
    EXPECT_EQ(p.confidence, ConfidenceLevel::High);
}

TEST(PerceptronPredictor, SelfConfidenceTracksTheta)
{
    PerceptronPredictor perceptron(6, 12);
    // An untrained perceptron's |sum| is 0 < theta: low confidence.
    const Prediction p = perceptron.predict(8);
    EXPECT_EQ(p.confidence, ConfidenceLevel::Low);
    EXPECT_TRUE(perceptron.hasIntrinsicConfidence());
}

TEST(GenericRunTrace, FillsConfusionAndIdentity)
{
    OgehlPredictor ogehl(OgehlPredictor::Config{});
    SyntheticTrace t = makeTrace("181.mcf", 8000);
    const RunResult r = runTrace(t, ogehl);
    EXPECT_EQ(r.configName, "ogehl");
    EXPECT_EQ(r.traceName, "181.mcf");
    EXPECT_EQ(r.confusion.total(), 8000u);
    EXPECT_EQ(r.confusion.highCorrect() + r.confusion.lowCorrect(),
              r.stats.totalPredictions() -
                  r.stats.totalMispredictions());
    EXPECT_EQ(r.storageBits, ogehl.storageBits());
}

TEST(GenericRunTrace, SpecSetRunMatchesHandBuiltSetRun)
{
    // Fold one benchmark set trace by trace, once on hand-built
    // GradedTage predictors and once on registry-built ones.
    ClassStats hand, spec;
    BinaryConfidenceMetrics spec_confusion;
    double hand_mpki = 0.0, spec_mpki = 0.0;
    for (const auto& name : traceNames(BenchmarkSet::Cbp1)) {
        SyntheticTrace t1 = makeTrace(name, 2000);
        GradedTage hand_built(TageConfig::small16K());
        const RunResult a = runTrace(t1, hand_built);
        hand.merge(a.stats);
        hand_mpki += a.stats.mpki();

        SyntheticTrace t2 = makeTrace(name, 2000);
        auto from_spec = makePredictor("tage16k+sfc");
        const RunResult b = runTrace(t2, *from_spec);
        spec.merge(b.stats);
        spec_confusion.merge(b.confusion);
        spec_mpki += b.stats.mpki();
    }
    EXPECT_EQ(hand.totalMispredictions(), spec.totalMispredictions());
    EXPECT_EQ(hand_mpki, spec_mpki);
    EXPECT_EQ(spec_confusion.total(), spec.totalPredictions());
}

/**
 * Hash of a prediction stream: direction, class and level of each
 * element, FNV-1a-64 over one byte per field.
 */
uint64_t
predictionDigest(const std::vector<Prediction>& preds)
{
    std::vector<uint8_t> bytes;
    bytes.reserve(preds.size() * 3);
    for (const Prediction& p : preds) {
        bytes.push_back(p.taken ? 1 : 0);
        bytes.push_back(static_cast<uint8_t>(p.cls));
        bytes.push_back(static_cast<uint8_t>(p.confidence));
    }
    return fnv1a64(bytes.data(), bytes.size());
}

/** FNV-1a-64 digests of a scalar run: predictions and snapshot. */
struct RunDigests {
    uint64_t predictions = 0;
    /** 0 when the predictor does not checkpoint. */
    uint64_t snapshot = 0;
};

/**
 * predictMany() is contractually bit-identical to the scalar
 * predict/update loop, for every family — batched (TAGE) or on the
 * base-class fallback — and at any chunking. Runs @p spec through the
 * plain loop, written out locally, and requires chunked predictMany()
 * runs to match it. After the run the reference is reset() and
 * replayed: reset must restore post-construction state, so the replay
 * reproduces the predictions and snapshot bytes. Returns the scalar
 * run's digests.
 */
RunDigests
expectBatchedAndReplayMatchScalarLoop(const std::string& spec,
                                      const std::vector<uint64_t>& pcs,
                                      const std::vector<uint8_t>& taken)
{
    SCOPED_TRACE(spec);
    const size_t n = pcs.size();
    auto reference = makePredictor(spec);
    auto scalarRun = [&] {
        std::vector<Prediction> preds;
        preds.reserve(n);
        for (size_t k = 0; k < n; ++k) {
            preds.push_back(reference->predict(pcs[k]));
            reference->update(pcs[k], preds.back(), taken[k] != 0);
        }
        return preds;
    };
    const std::vector<Prediction> expected = scalarRun();
    StateWriter reference_state;
    std::string error;
    const bool has_snapshot = reference->snapshot(reference_state, error);
    RunDigests digests;
    digests.predictions = predictionDigest(expected);
    if (has_snapshot)
        digests.snapshot = fnv1a64(reference_state.data().data(),
                                   reference_state.size());

    for (const size_t chunk : {size_t{1}, size_t{97}, size_t{512}}) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        auto batched = makePredictor(spec);
        std::vector<Prediction> got(n);
        for (size_t at = 0; at < n; at += chunk) {
            const size_t len = std::min(chunk, n - at);
            batched->predictMany(
                std::span<const uint64_t>(pcs.data() + at, len),
                std::span<const uint8_t>(taken.data() + at, len),
                std::span<Prediction>(got.data() + at, len));
        }
        for (size_t k = 0; k < n; ++k) {
            if (got[k].taken != expected[k].taken ||
                got[k].cls != expected[k].cls ||
                got[k].confidence != expected[k].confidence) {
                ADD_FAILURE() << "first divergence at element " << k;
                break;
            }
        }
        EXPECT_EQ(batched->allocations(), reference->allocations());
        EXPECT_EQ(batched->satLog2Prob(), reference->satLog2Prob());
        if (has_snapshot) {
            StateWriter state;
            EXPECT_TRUE(batched->snapshot(state, error)) << error;
            EXPECT_EQ(state.data(), reference_state.data());
        }
    }

    reference->reset();
    const std::vector<Prediction> replay = scalarRun();
    EXPECT_EQ(predictionDigest(replay), digests.predictions);
    if (has_snapshot) {
        StateWriter state;
        EXPECT_TRUE(reference->snapshot(state, error)) << error;
        EXPECT_EQ(state.data(), reference_state.data());
    }
    return digests;
}

/**
 * Every family's prediction stream and snapshot bytes are pinned by
 * FNV-1a-64 (snapshot 0: the stack does not checkpoint). Every "+sfc"
 * example spec is also checked against its bare base: the label builds
 * the same object, so it must give the same type, predictions and
 * snapshot bytes.
 */
TEST(PredictMany, EveryFamilyMatchesTheScalarLoopAtAnyChunkSize)
{
    struct Case {
        const char* spec;
        uint64_t predictions;
        uint64_t snapshot;
    };
    const Case cases[] = {
        {"tage16k+sfc", 0xe31e13d96b7d8ecdULL, 0x6d2a842e82299f36ULL},
        {"tage64k+prob7+sfc", 0xee64169dc2ed1043ULL,
         0x5ab9ebb37c6be008ULL},
        {"tage64k+prob7+adaptive+sfc", 0xee64169dc2ed1043ULL,
         0x6ba0963a2056eed9ULL},
        {"ltage16k+sfc", 0x0b300d9a20154cc7ULL, 0},
        {"tage64k+jrs", 0x12967ef35a64b250ULL, 0},
        {"gshare+jrs", 0x5d20952f7869c45dULL, 0},
        {"bimodal+sfc", 0xa719b087b5fa8b4fULL, 0x4f6a8e99441c3fc5ULL},
        {"perceptron+sfc", 0xa2718a2293502c27ULL, 0xb699da4e51cefd3dULL},
        {"ogehl+sfc", 0x54d5d318ae64782bULL, 0x79b4c88996c49258ULL},
    };

    std::vector<uint64_t> pcs;
    std::vector<uint8_t> taken;
    SyntheticTrace trace = makeTrace("INT-2", 20000);
    BranchRecord rec;
    while (trace.next(rec)) {
        pcs.push_back(rec.pc);
        taken.push_back(rec.taken ? 1 : 0);
    }

    for (const Case& c : cases) {
        SCOPED_TRACE(c.spec);
        const RunDigests got =
            expectBatchedAndReplayMatchScalarLoop(c.spec, pcs, taken);
        EXPECT_EQ(got.predictions, c.predictions);
        EXPECT_EQ(got.snapshot, c.snapshot);
    }

    const std::string label = "+sfc";
    for (const std::string& spec : exampleSpecs()) {
        if (!spec.ends_with(label))
            continue;
        const std::string bare = spec.substr(0, spec.size() - label.size());
        SCOPED_TRACE(spec + " vs " + bare);
        const RunDigests labelled =
            expectBatchedAndReplayMatchScalarLoop(spec, pcs, taken);
        const RunDigests plain =
            expectBatchedAndReplayMatchScalarLoop(bare, pcs, taken);
        EXPECT_EQ(labelled.predictions, plain.predictions);
        EXPECT_EQ(labelled.snapshot, plain.snapshot);
        const auto labelled_object = makePredictor(spec);
        const auto plain_object = makePredictor(bare);
        const GradedPredictor& labelled_ref = *labelled_object;
        const GradedPredictor& plain_ref = *plain_object;
        EXPECT_EQ(typeid(labelled_ref), typeid(plain_ref));
    }
}

} // namespace
} // namespace tagecon
