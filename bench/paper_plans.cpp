#include "paper_plans.hpp"

#include <utility>

#include "baseline/jrs_estimator.hpp"
#include "sim/registry.hpp"
#include "sim/reporting.hpp"
#include "tage/tage_config.hpp"
#include "util/table_printer.hpp"
#include "util/text.hpp"

namespace tagecon {

namespace {

const std::string kPaper = "Seznec, RR-7371 / HPCA 2011, ";

/** What a plan body runs with: the run parameters and the workers. */
struct PlanContext {
    const PlanParams& params;
    const SweepOptions& sweep;

    /** The @p specs x @p traces grid with the run parameters. */
    SweepPlan
    grid(std::vector<std::string> specs,
         std::vector<std::string> traces) const
    {
        SweepPlan plan =
            SweepPlan::over(std::move(specs), std::move(traces),
                            params.branchesPerTrace, params.seedSalt);
        plan.analysis = params.analysis;
        return plan;
    }

    /** Run grid(): one row per spec, pooled over @p traces. */
    std::vector<SweepRow>
    rows(std::vector<std::string> specs,
         std::vector<std::string> traces) const
    {
        return runSweepRows(grid(std::move(specs), std::move(traces)),
                            sweep);
    }

    /** --predictors when given, else @p defaults. */
    std::vector<std::string>
    lineup(std::vector<std::string> defaults) const
    {
        return params.predictors.empty() ? defaults : params.predictors;
    }

    /**
     * Start the report: banner title, paper reference and the run
     * parameters (the worker count only when it is not 1).
     */
    Report
    report(std::string id, std::string title,
           std::string paper_ref) const
    {
        Report r(std::move(id), std::move(title), std::move(paper_ref));
        r.addMeta("branches/trace",
                  std::to_string(params.branchesPerTrace));
        r.addMeta("seed-salt", std::to_string(params.seedSalt));
        if (sweep.jobs != 1)
            r.addMeta("jobs", std::to_string(sweep.jobs));
        return r;
    }
};

/** One paper predictor size: display label + registry spec. */
struct SizeSpec {
    std::string label; ///< paper name ("16K", "64K", "256K")
    std::string spec;  ///< registry spec that reproduces it
};

/**
 * The three Table 1 sizes, with @p suffix appended to each spec (the
 * Sec. 6 automaton "+prob7", the Sec. 6.2 controller "+adaptive").
 */
std::vector<SizeSpec>
paperSizes(const std::string& suffix = "")
{
    return {{"16K", "tage16k" + suffix},
            {"64K", "tage64k" + suffix},
            {"256K", "tage256k" + suffix}};
}

std::vector<std::string>
specsOf(const std::vector<SizeSpec>& sizes)
{
    std::vector<std::string> specs;
    for (const auto& s : sizes)
        specs.push_back(s.spec);
    return specs;
}

/**
 * One benchmark set's share of a row run over allTraceNames(): the
 * pooled statistics of its cells and the mean of their per-trace
 * MPKIs — the fold a SweepRow makes over its whole row, restricted to
 * one set.
 */
struct SetSlice {
    ClassStats aggregate;
    double meanMpki = 0.0;
};

SetSlice
sliceSet(const SweepRow& row, BenchmarkSet set)
{
    const size_t cbp1 = traceNames(BenchmarkSet::Cbp1).size();
    const size_t begin = set == BenchmarkSet::Cbp1 ? 0 : cbp1;
    const size_t end =
        set == BenchmarkSet::Cbp1 ? cbp1 : row.perTrace.size();
    SetSlice slice;
    double mpki_sum = 0.0;
    for (size_t i = begin; i < end; ++i) {
        slice.aggregate.merge(row.perTrace[i].stats);
        mpki_sum += row.perTrace[i].stats.mpki();
    }
    if (end > begin)
        slice.meanMpki = mpki_sum / static_cast<double>(end - begin);
    return slice;
}

/**
 * Append the analysis sections of every cell of @p rows, headed
 * "spec x trace". No-op for runs without --analysis.
 */
void
addCellAnalysis(Report& r, const std::vector<SweepRow>& rows)
{
    size_t cell = 0;
    for (const auto& row : rows) {
        for (const auto& rr : row.perTrace)
            addAnalysisSections(r, rr, "cell" + std::to_string(cell++),
                                row.spec + " x " + rr.traceName);
    }
}

/**
 * Append the Figure 2/3/5 panel pair for one row — prediction
 * coverage and per-class misp/KI contribution — followed by any
 * attached analysis sections.
 */
void
addDistributionPanels(Report& r, const SweepRow& row,
                      const std::string& id_suffix,
                      const std::string& cov_heading,
                      const std::string& mpki_heading)
{
    r.addTable(ReportTable{"coverage-" + id_suffix, cov_heading,
                           coverageTable(row.perTrace, row.aggregate)});
    r.addBlank();
    r.addTable(
        ReportTable{"mpki-" + id_suffix, mpki_heading,
                    mpkiBreakdownTable(row.perTrace, row.aggregate)});
    r.addBlank();
    for (const auto& rr : row.perTrace)
        addAnalysisSections(r, rr,
                            id_suffix + "-" + toLower(rr.traceName));
}

/** Figures 2 and 3: the three sizes' distributions over @p set. */
Report
distributionFigure(const PlanContext& ctx, int figure, BenchmarkSet set,
                   const std::string& expected)
{
    const std::string fig = std::to_string(figure);
    Report r = ctx.report("figure" + fig,
                          "Figure " + fig +
                              ": prediction/misprediction "
                              "distribution, " +
                              (set == BenchmarkSet::Cbp1 ? "CBP-1"
                                                         : "CBP-2"),
                          kPaper + "Figure " + fig);
    const auto sizes = paperSizes();
    const auto rows = ctx.rows(specsOf(sizes), traceNames(set));
    for (size_t i = 0; i < rows.size(); ++i) {
        const std::string& label = sizes[i].label;
        addDistributionPanels(
            r, rows[i], toLower(label),
            label + " predictor: prediction coverage per class (%) "
                    "[Fig. " + fig + " left]",
            label + " predictor: misprediction contribution (misp/KI) "
                    "[Fig. " + fig + " right]");
    }
    r.addText(expected);
    return r;
}

Report
figure2(const PlanContext& ctx)
{
    return distributionFigure(
        ctx, 2, BenchmarkSet::Cbp1,
        "expected shape: SERV traces are BIM-heavy with large "
        "medium-conf-bim coverage on the 16K predictor;\n"
        "low/medium-conf-bim nearly vanish on the 256K predictor; "
        "Stag covers roughly half the predictions.");
}

Report
figure3(const PlanContext& ctx)
{
    return distributionFigure(
        ctx, 3, BenchmarkSet::Cbp2,
        "expected shape: twolf/gzip/vpr carry large tagged-class "
        "misprediction shares; mpegaudio/eon/raytrace are almost "
        "entirely high-conf-bim + Stag.");
}

/** Figures 4 and 6: per-class MKP of one 64Kbit spec over CBP-2. */
Report
classRateFigure(const PlanContext& ctx, int figure,
                const std::string& title, const std::string& spec,
                const std::string& expected)
{
    const std::string fig = std::to_string(figure);
    Report r = ctx.report("figure" + fig, "Figure " + fig + ": " + title,
                          kPaper + "Figure " + fig);
    const auto rows = ctx.rows({spec}, traceNames(BenchmarkSet::Cbp2));
    const SweepRow& row = rows.front();

    const std::vector<std::string> figure_traces = {
        "164.gzip", "175.vpr", "176.gcc", "181.mcf", "186.crafty",
        "197.parser",
    };
    r.addTable(ReportTable{"mprate", "",
                           mprateTable(row.perTrace, figure_traces)});
    r.addBlank();
    r.addText("set-wide per-class rates (MKP):");
    r.addTable(
        ReportTable{"class-rates", "", classRateTable(row.aggregate)});
    r.addBlank();
    for (const auto& rr : row.perTrace)
        addAnalysisSections(r, rr, toLower(rr.traceName));
    r.addText(expected);
    return r;
}

Report
figure4(const PlanContext& ctx)
{
    return classRateFigure(
        ctx, 4, "per-class misprediction rates (MKP), 64Kbit, CBP-2",
        "tage64k",
        "expected shape: Wtag > NWtag > NStag >> Stag ~ average; "
        "low-conf-bim ~300+ MKP; high-conf-bim lowest.");
}

Report
figure6(const PlanContext& ctx)
{
    return classRateFigure(
        ctx, 6,
        "per-class MKP with modified automaton, 64Kbit, CBP-2",
        "tage64k+prob7",
        "expected shape vs Figure 4: MPrate(Stag) collapses to the "
        "1-5 MKP range; NStag drops toward the 50-100 MKP range.");
}

/**
 * Figure 5: the modified automaton (p = 1/128) on the three panels
 * the paper shows — 16Kbit on CBP-1, 64Kbit on CBP-2, 256Kbit on
 * CBP-1.
 */
Report
figure5(const PlanContext& ctx)
{
    Report r = ctx.report(
        "figure5",
        "Figure 5: distributions with the modified automaton (p=1/128)",
        kPaper + "Figure 5");
    const std::vector<std::pair<SizeSpec, BenchmarkSet>> panels = {
        {{"16K", "tage16k+prob7"}, BenchmarkSet::Cbp1},
        {{"64K", "tage64k+prob7"}, BenchmarkSet::Cbp2},
        {{"256K", "tage256k+prob7"}, BenchmarkSet::Cbp1},
    };
    for (const auto& [size, set] : panels) {
        const auto rows = ctx.rows({size.spec}, traceNames(set));
        const std::string panel =
            size.label + " predictor, " + benchmarkSetName(set);
        addDistributionPanels(
            r, rows.front(),
            toLower(size.label + "-" + benchmarkSetName(set)),
            panel + ": prediction coverage per class (%)",
            panel + ": misprediction contribution (misp/KI)");
    }
    r.addText("expected shape vs Figure 2/3: Stag shrinks and its "
              "misprediction contribution nearly vanishes; NStag "
              "grows and absorbs the medium-rate mispredictions.");
    return r;
}

/**
 * Table 1: the three simulated configurations (from the TageConfig
 * geometry) and their misp/KI on both sets, baseline automaton.
 */
Report
table1(const PlanContext& ctx)
{
    Report r = ctx.report("table1", "Table 1: simulated configurations",
                          kPaper + "Table 1");

    TextTable t;
    t.addColumn("", TextTable::Align::Left);
    t.addColumn("Small");
    t.addColumn("Medium");
    t.addColumn("Large");

    std::vector<std::string> storage{"Storage budget (Kbits)"};
    std::vector<std::string> tables{"Number of tables"};
    std::vector<std::string> minh{"Min Hist length"};
    std::vector<std::string> maxh{"Max Hist Length"};
    for (const auto& cfg : TageConfig::paperConfigs()) {
        storage.push_back(TextTable::num(
            static_cast<double>(cfg.storageBits()) / 1024.0, 1));
        tables.push_back("1 + " + std::to_string(cfg.numTaggedTables()));
        minh.push_back(std::to_string(cfg.tagged.front().historyLength));
        maxh.push_back(std::to_string(cfg.tagged.back().historyLength));
    }
    t.addRow(storage);
    t.addRow(tables);
    t.addRow(minh);
    t.addRow(maxh);

    const auto rows = ctx.rows(specsOf(paperSizes()), allTraceNames());
    std::vector<std::string> cbp1_row{"CBP-1 misp/KI"};
    std::vector<std::string> cbp2_row{"CBP-2 misp/KI"};
    for (const auto& row : rows) {
        cbp1_row.push_back(TextTable::num(
            sliceSet(row, BenchmarkSet::Cbp1).meanMpki, 2));
        cbp2_row.push_back(TextTable::num(
            sliceSet(row, BenchmarkSet::Cbp2).meanMpki, 2));
    }
    t.addSeparator();
    t.addRow(cbp1_row);
    t.addRow(cbp2_row);
    r.addTable(ReportTable{"table1", "", std::move(t)});

    r.addBlank();
    r.addText("paper reference (Table 1): CBP-1 4.21 / 2.54 / 2.18,"
              " CBP-2 4.61 / 3.87 / 3.47 misp/KI\n"
              "expected shape: misp/KI decreases with size; CBP-2 is"
              " the harder set on the medium/large predictors");
    return r;
}

/**
 * Tables 2 and 3: the high/medium/low split of the three sizes with
 * spec suffix @p suffix, per benchmark set.
 */
Report
threeLevelTable(const PlanContext& ctx, int table,
                const std::string& title, const std::string& suffix,
                const std::string& reference)
{
    const std::string id = "table" + std::to_string(table);
    Report r = ctx.report(id,
                          "Table " + std::to_string(table) + ": " + title,
                          kPaper + "Table " + std::to_string(table));
    const auto sizes = paperSizes(suffix);
    const auto rows = ctx.rows(specsOf(sizes), allTraceNames());

    TextTable t = threeClassTable();
    for (size_t i = 0; i < rows.size(); ++i) {
        for (const BenchmarkSet set :
             {BenchmarkSet::Cbp1, BenchmarkSet::Cbp2}) {
            t.addRow(threeClassRow(sizes[i].label + " " +
                                       benchmarkSetName(set),
                                   sliceSet(rows[i], set).aggregate));
        }
    }
    r.addTable(ReportTable{id, "", std::move(t)});
    r.addBlank();
    r.addText(reference);
    return r;
}

Report
table2(const PlanContext& ctx)
{
    return threeLevelTable(
        ctx, 2, "three-level confidence split (p=1/128)", "+prob7",
        "paper reference (Pcov-MPcov (MPrate)):\n"
        "16K  CBP1 0.690-0.128 (7)   0.254-0.455 (72)  "
        "0.056-0.416 (306)\n"
        "16K  CBP2 0.790-0.078 (3)   0.163-0.478 (98)  "
        "0.046-0.443 (328)\n"
        "64K  CBP1 0.781-0.096 (3)   0.180-0.434 (59)  "
        "0.038-0.470 (304)\n"
        "64K  CBP2 0.818-0.056 (2)   0.095-0.466 (82)  "
        "0.042-0.478 (328)\n"
        "256K CBP1 0.802-0.060 (2)   0.162-0.442 (57)  "
        "0.034-0.498 (302)\n"
        "256K CBP2 0.826-0.040 (1)   0.135-0.469 (88)  "
        "0.038-0.491 (325)\n"
        "expected shape: high covers the vast majority at "
        "single-digit MKP; medium and low each cover roughly "
        "half of the mispredictions at ~5-15% and >30% rates.");
}

/**
 * Table 3: the saturation probability driven at run time by the
 * Sec. 6.2 adaptive controller (high-confidence rate held under
 * 10 MKP).
 */
Report
table3(const PlanContext& ctx)
{
    return threeLevelTable(
        ctx, 3, "three-level split, adaptive probability",
        "+prob7+adaptive",
        "paper reference (Pcov-MPcov (MPrate)):\n"
        "16K  CBP1 0.758-0.167 (8)   0.187-0.423 (92)   "
        "0.053-0.409 (311)\n"
        "16K  CBP2 0.816-0.112 (5)   0.139-0.452 (109)  "
        "0.044-0.436 (332)\n"
        "64K  CBP1 0.855-0.156 (5)   0.109-0.387 (88)   "
        "0.036-0.456 (309)\n"
        "64K  CBP2 0.848-0.100 (3)   0.112-0.432 (110)  "
        "0.040-0.468 (331)\n"
        "256K CBP1 0.882-0.140 (3)   0.085-0.381 (93)   "
        "0.033-0.479 (306)\n"
        "256K CBP2 0.870-0.105 (3)   0.092-0.419 (115)  "
        "0.037-0.476 (331)\n"
        "expected shape: vs Table 2, high-confidence coverage "
        "grows while its MPrate stays at or under ~10 MKP.");
}

/** Sec. 5.1-5.2 aggregates of one size on CBP-1. */
void
addAggregateSections(Report& r, const std::string& label,
                     const SweepRow& row)
{
    const ClassStats& s = row.aggregate;
    const BimSplit bim = bimSplit(s);

    r.addText("=== " + label + " predictor, CBP-1 aggregate ===");
    r.addText("overall misprediction rate: " +
              TextTable::num(s.totalMkp(), 0) + " MKP");
    r.addText("BIM class: " +
              pctCell(bim.predictions, s.totalPredictions(), 0) +
              " % of predictions, " +
              pctCell(bim.mispredictions, s.totalMispredictions(), 0) +
              " % of mispredictions, " +
              ratePerKiloCell(bim.mispredictions, bim.predictions, 0) +
              " MKP");
    r.addBlank();

    TextTable bim_table;
    bim_table.addColumn("BIM subclass", TextTable::Align::Left);
    bim_table.addColumn("% of BIM preds");
    bim_table.addColumn("% of BIM misses");
    bim_table.addColumn("MPrate (MKP)");
    for (const auto c :
         {PredictionClass::HighConfBim, PredictionClass::MediumConfBim,
          PredictionClass::LowConfBim}) {
        bim_table.addRow({predictionClassName(c),
                          pctCell(s.predictions(c), bim.predictions, 1),
                          pctCell(s.mispredictions(c),
                                  bim.mispredictions, 1),
                          TextTable::num(s.mprateMkp(c), 0)});
    }
    r.addTable(ReportTable{"bim-split-" + toLower(label), "",
                           std::move(bim_table)});
    r.addBlank();

    TextTable tag;
    tag.addColumn("tagged class", TextTable::Align::Left);
    tag.addColumn("Pcov %");
    tag.addColumn("MPcov %");
    tag.addColumn("MPrate (MKP)");
    for (const auto c : {PredictionClass::Wtag, PredictionClass::NWtag,
                         PredictionClass::NStag, PredictionClass::Stag}) {
        tag.addRow({predictionClassName(c),
                    TextTable::num(s.pcov(c) * 100.0, 1),
                    TextTable::num(s.mpcov(c) * 100.0, 1),
                    TextTable::num(s.mprateMkp(c), 0)});
    }
    r.addTable(ReportTable{"tagged-split-" + toLower(label), "",
                           std::move(tag)});
    r.addBlank();

    for (const auto& rr : row.perTrace)
        addAnalysisSections(
            r, rr, toLower(label) + "-" + toLower(rr.traceName));
}

/**
 * The aggregate numbers quoted in the text of Sec. 5.1 and 5.2 (CBP-1,
 * 16Kbit and 256Kbit, baseline automaton): BIM share and its
 * low/medium/high split, and the tagged classes' rates.
 */
Report
section5(const PlanContext& ctx)
{
    Report r = ctx.report("section5",
                          "Section 5 text numbers (CBP-1, 16K & 256K)",
                          kPaper + "Sec. 5.1-5.2");
    const std::vector<SizeSpec> sizes = {{"16K", "tage16k"},
                                         {"256K", "tage256k"}};
    const auto rows =
        ctx.rows(specsOf(sizes), traceNames(BenchmarkSet::Cbp1));
    for (size_t i = 0; i < rows.size(); ++i)
        addAggregateSections(r, sizes[i].label, rows[i]);

    r.addText(
        "paper reference (CBP-1): 16K BIM = 50% preds / 35% misses / "
        "29 MKP; 256K BIM = 45% / 7% / 3 MKP.\n"
        "16K within-BIM: low-conf-bim 3% preds, 32% misses, 317 MKP; "
        "medium-conf-bim 12%, 39%, 87 MKP; high-conf-bim 85%, 29%, "
        "9 MKP.\n"
        "tagged rates 16K: Wtag 340, NWtag 313, NStag 213, Stag 29 "
        "MKP (256K: 325/312/225/17).");
    return r;
}

/**
 * One warmup panel: the BIM-class MKP and medium-conf-bim coverage
 * per interval of @p trace_name on @p spec, from the IntervalObserver.
 */
void
addWarmupPanel(Report& r, const PlanContext& ctx,
               const std::string& trace_name, const std::string& label,
               const std::string& spec, uint64_t default_interval)
{
    SweepPlan plan = ctx.grid({spec}, {trace_name});
    // The panel needs the interval view; install it with its default
    // window, but an explicit --analysis=intervals:len=N wins.
    if (!plan.analysis.intervals) {
        plan.analysis.intervals = true;
        plan.analysis.intervalLength = default_interval;
    }
    const uint64_t interval = plan.analysis.intervalLength;
    auto results = runSweep(std::move(plan), ctx.sweep);
    RunResult& rr = results.front();
    const IntervalAnalysis& ia = *rr.analysis.intervals;

    TextTable t;
    t.addColumn("interval", TextTable::Align::Left);
    t.addColumn("total MKP");
    t.addColumn("BIM MKP");
    t.addColumn("medium-conf-bim Pcov %");
    t.addColumn("low+med-bim MPcov %");
    for (size_t idx = 0; idx < ia.completeIntervals; ++idx) {
        const ClassStats& s = ia.intervals[idx];
        const BimSplit bim = bimSplit(s);
        t.addRow({std::to_string(idx), TextTable::num(s.totalMkp(), 1),
                  ratePerKiloCell(bim.mispredictions, bim.predictions,
                                  1),
                  TextTable::num(
                      s.pcov(PredictionClass::MediumConfBim) * 100.0, 1),
                  TextTable::num(
                      (s.mpcov(PredictionClass::MediumConfBim) +
                       s.mpcov(PredictionClass::LowConfBim)) * 100.0,
                      1)});
    }
    r.addTable(ReportTable{"intervals-" + toLower(trace_name),
                           trace_name + " on " + label +
                               ", interval = " +
                               std::to_string(interval) + " branches",
                           std::move(t)});
    r.addBlank();

    // Further observers (e.g. --analysis=warmup) report through the
    // standard sections; the interval view is already printed above.
    if (ctx.params.analysis.enabled()) {
        rr.analysis.intervals.reset();
        addAnalysisSections(r, rr, toLower(trace_name));
    }
}

/**
 * Sec. 5.1 warming phase: the BIM classes over consecutive intervals
 * of a phased trace (SERV-2) and a stationary one (FP-1).
 */
Report
warmup(const PlanContext& ctx)
{
    Report r = ctx.report(
        "warmup", "Warming / phase-change analysis of the BIM classes",
        kPaper + "Sec. 5.1");
    const uint64_t interval = ctx.params.branchesPerTrace / 10 == 0
                                  ? 1
                                  : ctx.params.branchesPerTrace / 10;
    addWarmupPanel(r, ctx, "SERV-2", "16K", "tage16k", interval);
    addWarmupPanel(r, ctx, "FP-1", "256K", "tage256k", interval);

    r.addText("expected shape: interval 0 carries the warming spike "
              "(highest BIM MKP); the phased SERV trace keeps "
              "re-spiking at working-set rotations while the "
              "stationary FP trace decays to a near-zero floor.");
    return r;
}

/**
 * Sec. 5.1.2, the basis of medium-conf-bim: the misprediction rate of
 * BIM predictions by distance from the last BIM misprediction, pooled
 * over CBP-1 per spec.
 */
Report
bimBurst(const PlanContext& ctx)
{
    Report r = ctx.report(
        "bim_burst", "BIM misprediction bursts (basis of medium-conf-bim)",
        kPaper + "Sec. 5.1.2");
    SweepPlan plan = ctx.grid(ctx.lineup({"tage16k+sfc", "tage256k+sfc"}),
                              traceNames(BenchmarkSet::Cbp1));
    plan.analysis.burst = true;
    plan.analysis.burstMaxDistance = 16;
    auto rows = runSweepRows(std::move(plan), ctx.sweep);

    for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0)
            r.addBlank();
        ReportTable rt = burstAnalysisTable(*rows[i].pooledBurst,
                                            "burst" + std::to_string(i));
        rt.heading = rows[i].spec + " (pooled over CBP-1)";
        r.addTable(std::move(rt));
    }
    r.addBlank();

    // Further observers report per cell; the burst view is pooled
    // above.
    if (ctx.params.analysis.enabled()) {
        for (auto& row : rows)
            for (auto& rr : row.perTrace)
                rr.analysis.burst.reset();
        addCellAnalysis(r, rows);
    }
    r.addText("paper anchor: the first ~8 post-miss BIM "
              "predictions run at 80-150 MKP on the 16K predictor; "
              "far-from-miss BIM predictions run at ~9 MKP.");
    r.addText("expected shape: monotonically decaying rate with a "
              "knee around the paper's window of 8, at both sizes.");
    return r;
}

/**
 * The storage-free estimate against the storage-based JRS estimator
 * and Grunwald et al.'s refinement on the same 64Kbit TAGE, with
 * Grunwald's binary metrics, over both sets.
 */
Report
vsJrs(const PlanContext& ctx)
{
    Report r = ctx.report("vs_jrs",
                          "Storage-free vs JRS confidence (64Kbit TAGE, "
                          "both benchmark sets)",
                          kPaper + "Sec. 2.2 context");
    const auto rows =
        ctx.rows(ctx.lineup({"tage64k+prob7+sfc", "tage64k+prob7+jrs",
                             "tage64k+prob7+jrsg"}),
                 allTraceNames());

    TextTable t;
    t.addColumn("estimator", TextTable::Align::Left);
    t.addColumn("extra storage");
    t.addColumn("high cov");
    t.addColumn("SENS");
    t.addColumn("PVP");
    t.addColumn("SPEC");
    t.addColumn("PVN");
    for (const auto& row : rows) {
        // Storage the estimator costs on top of its own host.
        const auto probe = makePredictor(row.spec);
        uint64_t extra_bits = 0;
        if (const auto* jrs =
                dynamic_cast<const JrsEstimator*>(probe.get()))
            extra_bits = jrs->tableBits();
        t.addRow({row.spec, std::to_string(extra_bits / 1024) + " Kbit",
                  TextTable::frac(row.confusion.highCoverage()),
                  TextTable::frac(row.confusion.sens()),
                  TextTable::frac(row.confusion.pvp()),
                  TextTable::frac(row.confusion.spec()),
                  TextTable::frac(row.confusion.pvn())});
    }
    r.addTable(ReportTable{"vs_jrs", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("expected shape: the storage-free estimator matches "
              "or beats the 16Kbit JRS tables on PVP/SPEC at zero "
              "storage cost (the paper's core claim).");
    return r;
}

/**
 * Sec. 2.2 self-confidence: each predictor graded by its own scheme
 * (O-GEHL, perceptron) against TAGE's storage-free one.
 */
Report
vsSelfconf(const PlanContext& ctx)
{
    Report r = ctx.report("vs_selfconf",
                          "Self-confidence comparison: TAGE storage-free "
                          "vs O-GEHL vs perceptron",
                          kPaper + "Sec. 2.2");
    const auto rows = ctx.rows(
        ctx.lineup({"tage64k+prob7+sfc", "ogehl+self", "perceptron+self"}),
        allTraceNames());

    TextTable t;
    t.addColumn("predictor + confidence", TextTable::Align::Left);
    t.addColumn("storage (Kbit)");
    t.addColumn("misp rate (MKP)");
    t.addColumn("high cov");
    t.addColumn("SENS");
    t.addColumn("PVP");
    t.addColumn("SPEC");
    t.addColumn("PVN");
    for (const auto& row : rows) {
        t.addRow({row.spec,
                  TextTable::num(
                      static_cast<double>(row.storageBits) / 1024.0, 0),
                  TextTable::num(row.aggregate.totalMkp(), 1),
                  TextTable::frac(row.confusion.highCoverage()),
                  TextTable::frac(row.confusion.sens()),
                  TextTable::frac(row.confusion.pvp()),
                  TextTable::frac(row.confusion.spec()),
                  TextTable::frac(row.confusion.pvn())});
    }
    r.addTable(ReportTable{"vs_selfconf", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("paper anchors (Sec. 2.2): O-GEHL self-confidence "
              "PVN ~ 1/3, SPEC ~ 1/2.");
    r.addText("expected shape: the TAGE storage-free scheme clearly "
              "exceeds the self-confidence SPEC while TAGE is also "
              "the most accurate predictor.");
    return r;
}

/**
 * Sec. 6.2 trade-off: the saturation probability p swept over
 * {1, 1/4, 1/16, 1/128, 1/1024} on the 16Kbit predictor, CBP-1,
 * against the baseline automaton.
 */
Report
probSweep(const PlanContext& ctx)
{
    Report r = ctx.report(
        "prob_sweep",
        "Sec. 6.2: saturation probability sweep (16Kbit, CBP-1)",
        kPaper + "Sec. 6.2");
    // Row 0 is the baseline automaton; the rest sweep log2(1/p).
    const std::vector<unsigned> log2ps = {0u, 2u, 4u, 7u, 10u};
    std::vector<std::string> specs = {"tage16k"};
    for (const unsigned log2p : log2ps)
        specs.push_back("tage16k+prob" + std::to_string(log2p));
    const auto rows = ctx.rows(specs, traceNames(BenchmarkSet::Cbp1));
    const SweepRow& baseline = rows.front();

    TextTable t;
    t.addColumn("p", TextTable::Align::Left);
    t.addColumn("high Pcov");
    t.addColumn("high MPcov");
    t.addColumn("high MPrate (MKP)");
    t.addColumn("misp/KI");
    t.addColumn("delta vs baseline");
    for (size_t i = 0; i < log2ps.size(); ++i) {
        const SweepRow& row = rows[i + 1];
        const ClassStats& s = row.aggregate;
        t.addRow({"1/" + std::to_string(1u << log2ps[i]),
                  TextTable::frac(s.pcov(ConfidenceLevel::High)),
                  TextTable::frac(s.mpcov(ConfidenceLevel::High)),
                  TextTable::num(s.mprateMkp(ConfidenceLevel::High), 1),
                  TextTable::num(row.meanMpki, 3),
                  TextTable::num(row.meanMpki - baseline.meanMpki, 3)});
    }
    r.addTable(ReportTable{"prob_sweep", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("baseline automaton misp/KI: " +
              TextTable::num(baseline.meanMpki, 3));
    r.addText("expected shape: smaller p shrinks high-confidence "
              "coverage but cleans its misprediction rate; the "
              "accuracy cost of any p stays marginal.");
    return r;
}

/**
 * Sec. 6 ablation: widening the tagged counter does not collapse the
 * Stag misprediction rate the way the probabilistic automaton does.
 */
Report
ablationCtrwidth(const PlanContext& ctx)
{
    Report r = ctx.report("ablation_ctrwidth",
                          "Ablation: tagged counter width (64Kbit)",
                          kPaper + "Sec. 6 discussion");
    const std::vector<int> widths = {2, 3, 4, 5};
    std::vector<std::string> specs;
    for (const int bits : widths)
        specs.push_back("tage64k:ctr=" + std::to_string(bits));
    const auto rows = ctx.rows(specs, allTraceNames());

    TextTable t;
    t.addColumn("ctr bits", TextTable::Align::Left);
    t.addColumn("CBP-1 misp/KI");
    t.addColumn("CBP-2 misp/KI");
    t.addColumn("Stag Pcov (CBP-1)");
    t.addColumn("Stag MPrate MKP (CBP-1)");
    for (size_t i = 0; i < widths.size(); ++i) {
        const SetSlice cbp1 = sliceSet(rows[i], BenchmarkSet::Cbp1);
        const SetSlice cbp2 = sliceSet(rows[i], BenchmarkSet::Cbp2);
        t.addRow({std::to_string(widths[i]),
                  TextTable::num(cbp1.meanMpki, 3),
                  TextTable::num(cbp2.meanMpki, 3),
                  TextTable::frac(
                      cbp1.aggregate.pcov(PredictionClass::Stag)),
                  TextTable::num(
                      cbp1.aggregate.mprateMkp(PredictionClass::Stag),
                      1)});
    }
    r.addTable(ReportTable{"ablation_ctrwidth", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("expected shape: widening beyond 3 bits does not "
              "collapse the Stag misprediction rate (unlike the "
              "probabilistic automaton) and does not improve overall "
              "accuracy.");
    return r;
}

/**
 * TAGE vs L-TAGE (TAGE + the loop predictor of paper reference [12])
 * at 16K and 64K on five representative traces.
 */
Report
ablationLooppred(const PlanContext& ctx)
{
    Report r = ctx.report("ablation_looppred",
                          "Ablation: TAGE vs L-TAGE (loop predictor)",
                          "Seznec, JILP 2007 (paper reference [12])");
    const std::vector<std::string> traces = {"FP-1", "FP-3", "INT-1",
                                             "164.gzip", "300.twolf"};
    // Adjacent (tage, ltage) rows share a storage budget.
    const std::vector<SizeSpec> sizes = {{"16K", "tage16k"},
                                         {"64K", "tage64k"}};
    std::vector<std::string> specs;
    for (const auto& size : sizes) {
        specs.push_back(size.spec);
        specs.push_back("l" + size.spec);
    }
    const auto rows = ctx.rows(specs, traces);

    TextTable t;
    t.addColumn("trace", TextTable::Align::Left);
    t.addColumn("config", TextTable::Align::Left);
    t.addColumn("TAGE misp/KI");
    t.addColumn("L-TAGE misp/KI");
    t.addColumn("delta %");
    for (size_t s = 0; s < sizes.size(); ++s) {
        for (size_t i = 0; i < traces.size(); ++i) {
            const double tage = rows[2 * s].perTrace[i].stats.mpki();
            const double ltage =
                rows[2 * s + 1].perTrace[i].stats.mpki();
            t.addRow({traces[i], sizes[s].label,
                      TextTable::num(tage, 3), TextTable::num(ltage, 3),
                      TextTable::num(100.0 * (ltage - tage) / tage, 1)});
        }
    }
    r.addTable(ReportTable{"ablation_looppred", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("expected shape: the loop predictor helps most where "
              "long constant-trip loops exceed the history window "
              "(FP-3 on the 16K predictor) and is neutral "
              "elsewhere.");
    return r;
}

/**
 * Sec. 3.1 ablation: USE_ALT_ON_NA on and off, overall accuracy and
 * the Wtag class's rate.
 */
Report
ablationUsealt(const PlanContext& ctx)
{
    Report r = ctx.report("ablation_usealt",
                          "Ablation: USE_ALT_ON_NA on/off (64Kbit)",
                          kPaper + "Sec. 3.1");
    const auto rows =
        ctx.rows({"tage64k:ualt=1", "tage64k:ualt=0"}, allTraceNames());

    TextTable t;
    t.addColumn("USE_ALT_ON_NA", TextTable::Align::Left);
    t.addColumn("CBP-1 misp/KI");
    t.addColumn("CBP-2 misp/KI");
    t.addColumn("Wtag MPrate MKP (CBP-1)");
    t.addColumn("Wtag MPrate MKP (CBP-2)");
    for (size_t i = 0; i < rows.size(); ++i) {
        const SetSlice cbp1 = sliceSet(rows[i], BenchmarkSet::Cbp1);
        const SetSlice cbp2 = sliceSet(rows[i], BenchmarkSet::Cbp2);
        t.addRow({i == 0 ? "enabled" : "disabled",
                  TextTable::num(cbp1.meanMpki, 3),
                  TextTable::num(cbp2.meanMpki, 3),
                  TextTable::num(
                      cbp1.aggregate.mprateMkp(PredictionClass::Wtag), 0),
                  TextTable::num(
                      cbp2.aggregate.mprateMkp(PredictionClass::Wtag),
                      0)});
    }
    r.addTable(ReportTable{"ablation_usealt", "", std::move(t)});
    r.addBlank();
    addCellAnalysis(r, rows);
    r.addText("expected shape: disabling USE_ALT_ON_NA slightly "
              "degrades overall accuracy; the Wtag class stays in "
              "the ~300 MKP range either way.");
    return r;
}

struct PlanEntry {
    const char* name;
    /** True when --predictors replaces the plan's default lineup. */
    bool takesPredictors;
    Report (*run)(const PlanContext&);
};

constexpr PlanEntry kPlans[] = {
    {"figure2", false, figure2},
    {"figure3", false, figure3},
    {"figure4", false, figure4},
    {"figure5", false, figure5},
    {"figure6", false, figure6},
    {"table1", false, table1},
    {"table2", false, table2},
    {"table3", false, table3},
    {"section5", false, section5},
    {"warmup", false, warmup},
    {"bim_burst", true, bimBurst},
    {"vs_jrs", true, vsJrs},
    {"vs_selfconf", true, vsSelfconf},
    {"prob_sweep", false, probSweep},
    {"ablation_ctrwidth", false, ablationCtrwidth},
    {"ablation_looppred", false, ablationLooppred},
    {"ablation_usealt", false, ablationUsealt},
};

/** Comma-separated names of the plans that satisfy @p keep. */
template <typename Pred>
std::string
joinNames(Pred keep)
{
    std::string out;
    for (const auto& plan : kPlans) {
        if (keep(plan))
            out += (out.empty() ? "" : ", ") + std::string(plan.name);
    }
    return out;
}

} // namespace

Expected<Report>
runPaperPlan(const std::string& name, const PlanParams& params,
             const SweepOptions& sweep)
{
    for (const auto& plan : kPlans) {
        if (name != plan.name)
            continue;
        if (!plan.takesPredictors && !params.predictors.empty())
            return Err(ErrCode::BadSpec, "plan",
                       "plan '" + name +
                           "' runs a fixed predictor lineup and takes "
                           "no --predictors (plans that do: " +
                           joinNames([](const PlanEntry& p) {
                               return p.takesPredictors;
                           }) +
                           ")");
        return plan.run(PlanContext{params, sweep});
    }
    return Err(ErrCode::NotFound, "plan",
               "unknown plan '" + name + "' (known: " +
                   joinNames([](const PlanEntry&) { return true; }) +
                   ")");
}

} // namespace tagecon
