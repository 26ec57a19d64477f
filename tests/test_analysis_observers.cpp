/**
 * @file
 * Tests for the run-analysis observer subsystem: interval boundary
 * handling, histogram/ClassStats consistency, per-branch top-N
 * tie-breaking determinism, warmup detection, the analysis spec
 * grammar, the zero-observer equivalence of the observer-enabled
 * runTrace loop, and the equality of its batched replay with a scalar
 * predict/update reference.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analysis_config.hpp"
#include "analysis/observers.hpp"
#include "sim/experiment.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "trace/profiles.hpp"
#include "util/random.hpp"

namespace tagecon {
namespace {

/** Feed a synthetic ObservedPrediction directly to an observer. */
ObservedPrediction
observed(uint64_t pc, PredictionClass cls, bool mispredicted,
         uint64_t index = 0, bool taken = true)
{
    ObservedPrediction o;
    o.pc = pc;
    o.prediction.taken = taken;
    o.prediction.cls = cls;
    o.prediction.confidence = confidenceLevel(cls);
    o.taken = mispredicted ? !taken : taken;
    o.mispredicted = mispredicted;
    o.instructions = 1;
    o.index = index;
    return o;
}

TEST(IntervalObserver, SplitsStreamAtExactBoundaries)
{
    IntervalObserver obs(10);
    for (uint64_t i = 0; i < 30; ++i)
        obs.onPrediction(observed(0x100 + i % 4,
                                  PredictionClass::HighConfBim,
                                  i % 5 == 0, i));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.intervals.has_value());
    const IntervalAnalysis& ia = *bag.intervals;
    EXPECT_EQ(ia.intervalLength, 10u);
    EXPECT_EQ(ia.completeIntervals, 3u);
    EXPECT_FALSE(ia.hasPartialTail());
    ASSERT_EQ(ia.intervals.size(), 3u);
    for (const ClassStats& s : ia.intervals)
        EXPECT_EQ(s.totalPredictions(), 10u);
    // 30 records, every 5th mispredicted: 6 in total, 2 per interval.
    for (const ClassStats& s : ia.intervals)
        EXPECT_EQ(s.totalMispredictions(), 2u);
}

TEST(IntervalObserver, AppendsPartialTailAfterCompleteIntervals)
{
    IntervalObserver obs(8);
    for (uint64_t i = 0; i < 21; ++i)
        obs.onPrediction(
            observed(0x40, PredictionClass::Stag, false, i));
    RunAnalysis bag;
    obs.finish(bag);
    const IntervalAnalysis& ia = *bag.intervals;
    EXPECT_EQ(ia.completeIntervals, 2u);
    ASSERT_EQ(ia.intervals.size(), 3u);
    EXPECT_TRUE(ia.hasPartialTail());
    for (size_t i = 0; i < ia.completeIntervals; ++i)
        EXPECT_EQ(ia.intervals[i].totalPredictions(), 8u);
    EXPECT_EQ(ia.intervals.back().totalPredictions(), 5u);
}

TEST(IntervalObserver, LengthOneMakesEveryPredictionAnInterval)
{
    IntervalObserver obs(1);
    for (uint64_t i = 0; i < 4; ++i)
        obs.onPrediction(
            observed(0x40, PredictionClass::Wtag, i == 2, i));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_EQ(bag.intervals->intervals.size(), 4u);
    EXPECT_EQ(bag.intervals->completeIntervals, 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(bag.intervals->intervals[i].totalMispredictions(),
                  i == 2 ? 1u : 0u);
}

/** Feed @p obs one graded resolved prediction. */
void
feed(IntervalObserver& obs, PredictionClass cls, bool mispredicted,
     uint64_t instructions = 1)
{
    ObservedPrediction o = observed(0x40, cls, mispredicted);
    o.instructions = instructions;
    obs.onPrediction(o);
}

/** The windows @p obs reports at finish(). */
IntervalAnalysis
intervalsOf(IntervalObserver& obs)
{
    RunAnalysis bag;
    obs.finish(bag);
    return *bag.intervals;
}

TEST(IntervalObserver, IntervalsAreIndependent)
{
    IntervalObserver obs(10);
    // First interval: all mispredicted; second: none.
    for (int i = 0; i < 10; ++i)
        feed(obs, PredictionClass::Wtag, true);
    for (int i = 0; i < 10; ++i)
        feed(obs, PredictionClass::Wtag, false);
    const IntervalAnalysis ia = intervalsOf(obs);
    ASSERT_EQ(ia.completeIntervals, 2u);
    EXPECT_EQ(ia.intervals[0].totalMispredictions(), 10u);
    EXPECT_EQ(ia.intervals[1].totalMispredictions(), 0u);
}

TEST(IntervalObserver, SumOfIntervalsEqualsWholeAtNonDivisorLength)
{
    IntervalObserver obs(37); // deliberately not a divisor
    ClassStats whole;
    XorShift128Plus rng(3);
    for (int i = 0; i < 1000; ++i) {
        const auto c = kAllPredictionClasses[rng.next() % 7];
        const bool mis = rng.nextBool(0.2);
        const uint64_t instr = 1 + rng.next() % 7;
        feed(obs, c, mis, instr);
        whole.record(c, mis, instr);
    }
    ClassStats merged;
    for (const ClassStats& s : intervalsOf(obs).intervals)
        merged.merge(s);
    EXPECT_EQ(merged.totalPredictions(), whole.totalPredictions());
    EXPECT_EQ(merged.totalMispredictions(),
              whole.totalMispredictions());
    EXPECT_EQ(merged.instructions(), whole.instructions());
}

TEST(IntervalObserver, ZeroLengthIsFatal)
{
    EXPECT_DEATH(IntervalObserver{0}, "interval length");
}

// The acceptance property of the histogram: totals must equal the
// run's ClassStats, class by class and level by level, on a real run.
TEST(ConfidenceHistogramObserver, TotalsMatchClassStatsOnRealRun)
{
    SyntheticTrace trace = makeTrace("SERV-1", 20000);
    auto predictor = makePredictor("tage16k+sfc");
    AnalysisConfig cfg;
    cfg.histogram = true;
    const RunResult rr = runTrace(trace, *predictor, cfg);

    ASSERT_TRUE(rr.analysis.histogram.has_value());
    const ConfidenceHistogram& h = *rr.analysis.histogram;
    EXPECT_EQ(h.totalPredictions(), rr.stats.totalPredictions());
    EXPECT_EQ(h.totalMispredictions(), rr.stats.totalMispredictions());
    for (const auto c : kAllPredictionClasses) {
        EXPECT_EQ(h.predictions[classIndex(c)], rr.stats.predictions(c));
        EXPECT_EQ(h.mispredictions[classIndex(c)],
                  rr.stats.mispredictions(c));
        // The taken split partitions each class's counts.
        EXPECT_LE(h.takenPredictions[classIndex(c)],
                  h.predictions[classIndex(c)]);
        EXPECT_LE(h.takenMispredictions[classIndex(c)],
                  h.mispredictions[classIndex(c)]);
    }
    for (const auto l : kAllConfidenceLevels) {
        EXPECT_EQ(h.levelPredictions[levelIndex(l)],
                  rr.stats.predictions(l));
        EXPECT_EQ(h.levelMispredictions[levelIndex(l)],
                  rr.stats.mispredictions(l));
    }
}

TEST(PerBranchObserver, TopTableOrderedAndBounded)
{
    PerBranchObserver obs(2);
    // pc 0xA: 4 predictions, 3 misses; 0xB: 2/2; 0xC: 10/1.
    for (int i = 0; i < 4; ++i)
        obs.onPrediction(
            observed(0xA, PredictionClass::Wtag, i < 3));
    for (int i = 0; i < 2; ++i)
        obs.onPrediction(observed(0xB, PredictionClass::Wtag, true));
    for (int i = 0; i < 10; ++i)
        obs.onPrediction(
            observed(0xC, PredictionClass::Wtag, i == 0));
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.perBranch.has_value());
    const PerBranchAnalysis& pa = *bag.perBranch;
    EXPECT_EQ(pa.distinctBranches, 3u);
    EXPECT_EQ(pa.requestedTopN, 2u);
    ASSERT_EQ(pa.top.size(), 2u);
    EXPECT_EQ(pa.top[0].pc, 0xAu); // 3 misses beats 2 and 1
    EXPECT_EQ(pa.top[1].pc, 0xBu);
    EXPECT_DOUBLE_EQ(pa.top[0].mprateMkp(), 750.0);
}

TEST(PerBranchObserver, TieBreaksDeterministically)
{
    // Same misprediction count everywhere: fewer predictions (higher
    // rate) wins; identical profiles fall back to ascending pc.
    PerBranchObserver obs(3);
    for (const uint64_t pc : {0x30, 0x10, 0x20}) {
        obs.onPrediction(observed(pc, PredictionClass::Wtag, true));
        obs.onPrediction(observed(pc, PredictionClass::Wtag, false));
    }
    obs.onPrediction(observed(0x40, PredictionClass::Wtag, true));
    RunAnalysis bag;
    obs.finish(bag);
    const auto& top = bag.perBranch->top;
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].pc, 0x40u); // 1 miss / 1 pred: highest rate
    EXPECT_EQ(top[1].pc, 0x10u); // then ascending pc among equals
    EXPECT_EQ(top[2].pc, 0x20u);
}

TEST(WarmupObserver, DetectsFirstIntervalBelowThreshold)
{
    // Interval length 10, threshold 150 MKP: intervals with 3, 2 and
    // 1 misses run at 300, 200 and 100 MKP — converges at interval 2.
    WarmupObserver obs(10, 150.0);
    uint64_t index = 0;
    for (const int misses : {3, 2, 1, 0}) {
        for (int i = 0; i < 10; ++i)
            obs.onPrediction(observed(0x100,
                                      PredictionClass::HighConfBim,
                                      i < misses, index++));
    }
    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.warmup.has_value());
    const WarmupAnalysis& wa = *bag.warmup;
    EXPECT_TRUE(wa.converged);
    EXPECT_EQ(wa.warmupIntervals, 2u);
    EXPECT_EQ(wa.warmupBranches, 20u);
    EXPECT_DOUBLE_EQ(wa.firstIntervalMkp, 300.0);
    EXPECT_DOUBLE_EQ(wa.convergedIntervalMkp, 100.0);
}

TEST(WarmupObserver, ReportsNonConvergenceAndIgnoresPartialTail)
{
    WarmupObserver obs(10, 50.0);
    // One complete interval at 100 MKP, then a hot partial tail.
    for (uint64_t i = 0; i < 14; ++i)
        obs.onPrediction(observed(0x100,
                                  PredictionClass::HighConfBim,
                                  i % 10 == 0, i));
    RunAnalysis bag;
    obs.finish(bag);
    EXPECT_FALSE(bag.warmup->converged);
    EXPECT_EQ(bag.warmup->warmupIntervals, 0u);
    EXPECT_DOUBLE_EQ(bag.warmup->firstIntervalMkp, 100.0);
}

TEST(BurstObserver, BucketsBimDistanceSinceLastBimMiss)
{
    BurstObserver obs(4);
    const auto bim = PredictionClass::HighConfBim;

    // Pre-miss predictions land in the capped ">= max" bucket.
    obs.onPrediction(observed(0x100, bim, true));          // d=4, miss
    obs.onPrediction(observed(0x100, bim, false));         // d=0
    obs.onPrediction(observed(0x100, bim, false));         // d=1
    obs.onPrediction(observed(0x100, bim, true));          // d=2, miss
    // Tagged-provided predictions are invisible to the burst clock.
    obs.onPrediction(observed(0x100, PredictionClass::Stag, true));
    obs.onPrediction(observed(0x100, bim, false));         // d=0
    obs.onPrediction(observed(0x100, bim, false));         // d=1
    obs.onPrediction(observed(0x100, bim, false));         // d=2
    obs.onPrediction(observed(0x100, bim, false));         // d=3
    obs.onPrediction(observed(0x100, bim, false));         // d=4 (cap)

    RunAnalysis bag;
    obs.finish(bag);
    ASSERT_TRUE(bag.burst.has_value());
    const BurstAnalysis& ba = *bag.burst;
    EXPECT_EQ(ba.maxDistance, 4u);
    ASSERT_EQ(ba.predictions.size(), 5u);
    EXPECT_EQ(ba.predictions, (std::vector<uint64_t>{2, 2, 2, 1, 2}));
    EXPECT_EQ(ba.mispredictions,
              (std::vector<uint64_t>{0, 0, 1, 0, 1}));
    EXPECT_EQ(ba.totalPredictions(), 9u);
}

TEST(BurstObserver, MergePoolsElementWise)
{
    BurstObserver a(4), b(4);
    a.onPrediction(observed(0x100, PredictionClass::HighConfBim, true));
    b.onPrediction(observed(0x200, PredictionClass::LowConfBim, true));
    b.onPrediction(observed(0x200, PredictionClass::LowConfBim, false));

    RunAnalysis bag_a, bag_b;
    a.finish(bag_a);
    b.finish(bag_b);

    BurstAnalysis pooled; // merging into empty adopts the geometry
    pooled.merge(*bag_a.burst);
    pooled.merge(*bag_b.burst);
    EXPECT_EQ(pooled.maxDistance, 4u);
    EXPECT_EQ(pooled.totalPredictions(), 3u);
    EXPECT_EQ(pooled.predictions[4],
              bag_a.burst->predictions[4] + bag_b.burst->predictions[4]);
    EXPECT_EQ(pooled.predictions[0], bag_b.burst->predictions[0]);
}

TEST(BurstObserver, TotalsMatchBimClassStatsOnRealRun)
{
    SyntheticTrace trace = makeTrace("SERV-1", 20000);
    auto predictor = makePredictor("tage16k+sfc");
    AnalysisConfig cfg;
    cfg.burst = true;
    cfg.burstMaxDistance = 8;
    const RunResult rr = runTrace(trace, *predictor, cfg);

    ASSERT_TRUE(rr.analysis.burst.has_value());
    const BurstAnalysis& ba = *rr.analysis.burst;
    const uint64_t bim_preds =
        rr.stats.predictions(PredictionClass::HighConfBim) +
        rr.stats.predictions(PredictionClass::LowConfBim) +
        rr.stats.predictions(PredictionClass::MediumConfBim);
    const uint64_t bim_misses =
        rr.stats.mispredictions(PredictionClass::HighConfBim) +
        rr.stats.mispredictions(PredictionClass::LowConfBim) +
        rr.stats.mispredictions(PredictionClass::MediumConfBim);
    EXPECT_EQ(ba.totalPredictions(), bim_preds);
    uint64_t miss_sum = 0;
    for (const uint64_t m : ba.mispredictions)
        miss_sum += m;
    EXPECT_EQ(miss_sum, bim_misses);
}

TEST(AnalysisConfig, ParsesBurstSpec)
{
    AnalysisConfig cfg;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs({"burst:max=4"}, cfg, error))
        << error;
    EXPECT_TRUE(cfg.burst);
    EXPECT_EQ(cfg.burstMaxDistance, 4u);
    EXPECT_EQ(buildObservers(cfg).size(), 1u);

    EXPECT_FALSE(parseAnalysisSpecs({"burst:max=0"}, cfg, error));
    EXPECT_FALSE(parseAnalysisSpecs({"burst:nope=1"}, cfg, error));
}

TEST(AnalysisConfig, ParsesSpecListWithParameters)
{
    AnalysisConfig cfg;
    std::string error;
    ASSERT_TRUE(parseAnalysisSpecs(
        {"Intervals:len=5000", "histogram", "perbranch:top=8",
         "warmup:len=2000,mkp=30"},
        cfg, error))
        << error;
    EXPECT_TRUE(cfg.intervals);
    EXPECT_EQ(cfg.intervalLength, 5000u);
    EXPECT_TRUE(cfg.histogram);
    EXPECT_TRUE(cfg.perBranch);
    EXPECT_EQ(cfg.perBranchTopN, 8u);
    EXPECT_TRUE(cfg.warmup);
    EXPECT_EQ(cfg.warmupIntervalLength, 2000u);
    EXPECT_DOUBLE_EQ(cfg.warmupThresholdMkp, 30.0);

    const ObserverList observers = buildObservers(cfg);
    EXPECT_EQ(observers.size(), 4u);
}

TEST(AnalysisConfig, RejectsUnknownObserversKeysAndBadValues)
{
    AnalysisConfig cfg;
    std::string error;
    EXPECT_FALSE(parseAnalysisSpecs({"nope"}, cfg, error));
    EXPECT_EQ(error, "unknown analysis observer 'nope' (known: burst, "
                     "histogram, intervals, perbranch, warmup)");

    EXPECT_FALSE(parseAnalysisSpecs({"intervals:nope=3"}, cfg, error));
    EXPECT_NE(error.find("unknown parameter"), std::string::npos);

    EXPECT_FALSE(parseAnalysisSpecs({"intervals:len=0"}, cfg, error));
    EXPECT_FALSE(
        parseAnalysisSpecs({"perbranch:top=banana"}, cfg, error));
    EXPECT_FALSE(parseAnalysisSpecs({"warmup:mkp=0"}, cfg, error));
}

TEST(RunTraceObservers, EmptyPipelineMatchesPlainLoopExactly)
{
    SyntheticTrace t1 = makeTrace("MM-2", 15000);
    auto p1 = makePredictor("tage16k+sfc");
    const RunResult plain = runTrace(t1, *p1);

    SyntheticTrace t2 = makeTrace("MM-2", 15000);
    auto p2 = makePredictor("tage16k+sfc");
    const RunResult empty_cfg = runTrace(t2, *p2, AnalysisConfig{});

    EXPECT_TRUE(empty_cfg.analysis.empty());
    EXPECT_EQ(plain.stats.totalPredictions(),
              empty_cfg.stats.totalPredictions());
    EXPECT_EQ(plain.stats.totalMispredictions(),
              empty_cfg.stats.totalMispredictions());
    EXPECT_EQ(plain.allocations, empty_cfg.allocations);
}

TEST(RunTraceObservers, AttachedObserversDoNotPerturbTheRun)
{
    SyntheticTrace t1 = makeTrace("SERV-3", 15000);
    auto p1 = makePredictor("tage64k+prob7+sfc");
    const RunResult plain = runTrace(t1, *p1);

    AnalysisConfig cfg;
    cfg.intervals = true;
    cfg.intervalLength = 3000;
    cfg.histogram = true;
    cfg.perBranch = true;
    cfg.warmup = true;
    cfg.warmupIntervalLength = 1000;
    SyntheticTrace t2 = makeTrace("SERV-3", 15000);
    auto p2 = makePredictor("tage64k+prob7+sfc");
    const RunResult with = runTrace(t2, *p2, cfg);

    EXPECT_EQ(plain.stats.totalPredictions(),
              with.stats.totalPredictions());
    EXPECT_EQ(plain.stats.totalMispredictions(),
              with.stats.totalMispredictions());
    EXPECT_EQ(plain.stats.instructions(), with.stats.instructions());
    EXPECT_EQ(plain.allocations, with.allocations);
    EXPECT_EQ(plain.finalLog2Prob, with.finalLog2Prob);

    // And all four slots were filled, consistently with the stats.
    ASSERT_TRUE(with.analysis.intervals.has_value());
    EXPECT_EQ(with.analysis.intervals->completeIntervals, 5u);
    ClassStats pooled;
    for (const auto& s : with.analysis.intervals->intervals)
        pooled.merge(s);
    EXPECT_EQ(pooled.totalPredictions(),
              with.stats.totalPredictions());
    EXPECT_EQ(pooled.totalMispredictions(),
              with.stats.totalMispredictions());
    ASSERT_TRUE(with.analysis.histogram.has_value());
    ASSERT_TRUE(with.analysis.perBranch.has_value());
    EXPECT_GT(with.analysis.perBranch->distinctBranches, 0u);
    ASSERT_TRUE(with.analysis.warmup.has_value());
}

/** The analysis tables of @p rr, rendered as CSV. */
std::string
analysisCsv(const RunResult& rr)
{
    Report report;
    addAnalysisSections(report, rr, "run");
    std::ostringstream os;
    report.emit(ReportFormat::Csv, os);
    return os.str();
}

TEST(RunTraceObservers, BatchedReplayRendersTheScalarLoopsTables)
{
    // runTrace() grades through predictMany() and feeds the observers
    // after each chunk; the same observers fed from a plain
    // predict/update loop must render byte-identical tables.
    AnalysisConfig cfg;
    cfg.intervals = true;
    cfg.intervalLength = 2500;
    cfg.histogram = true;
    cfg.burst = true;
    cfg.perBranch = true;
    cfg.warmup = true;
    cfg.warmupIntervalLength = 1000;

    for (const char* spec : {"tage64k+prob7+sfc", "ltage16k+sfc",
                             "gshare+jrs"}) {
        SCOPED_TRACE(spec);
        SyntheticTrace t1 = makeTrace("SERV-3", 12000);
        auto p1 = makePredictor(spec);
        const RunResult batched = runTrace(t1, *p1, cfg);

        RunResult scalar;
        scalar.traceName = batched.traceName;
        ObserverList observers = buildObservers(cfg);
        SyntheticTrace t2 = makeTrace("SERV-3", 12000);
        auto p2 = makePredictor(spec);
        BranchRecord rec;
        uint64_t index = 0;
        while (t2.next(rec)) {
            const Prediction p = p2->predict(rec.pc);
            const ObservedPrediction o{rec.pc,
                                       p,
                                       rec.taken,
                                       p.taken != rec.taken,
                                       uint64_t{rec.instructionsBefore} +
                                           1,
                                       index++};
            for (auto& observer : observers)
                observer->onPrediction(o);
            p2->update(rec.pc, p, rec.taken);
        }
        for (auto& observer : observers)
            observer->finish(scalar.analysis);

        const std::string csv = analysisCsv(batched);
        EXPECT_FALSE(batched.analysis.empty());
        EXPECT_NE(csv.find("perbranch"), std::string::npos);
        EXPECT_EQ(csv, analysisCsv(scalar));
    }
}

} // namespace
} // namespace tagecon
