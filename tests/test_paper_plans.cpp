/**
 * @file
 * Tests for the paper plan registry (bench/paper_plans.hpp) and the
 * `tagecon_sweep --plan=NAME` front end: every plan reproduces its
 * recorded text and CSV output at --branches=4000
 * (tests/data/plans/NAME.{txt,csv}), gives the same output at 1 and 4
 * workers, and the flags a plan cannot take are rejected.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "paper_plans.hpp"

namespace tagecon {
namespace {

const std::vector<std::string> kPlanNames = {
    "figure2",           "figure3",           "figure4",
    "figure5",           "figure6",           "table1",
    "table2",            "table3",            "section5",
    "warmup",            "bim_burst",         "vs_jrs",
    "vs_selfconf",       "prob_sweep",        "ablation_ctrwidth",
    "ablation_looppred", "ablation_usealt",
};

std::string
readGolden(const std::string& name, const std::string& ext)
{
    const std::string path =
        std::string(TAGECON_PLAN_GOLDEN_DIR) + "/" + name + "." + ext;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing golden " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
emitted(const Report& report, ReportFormat format)
{
    std::ostringstream out;
    report.emit(format, out);
    return out.str();
}

Report
runPlanOrDie(const std::string& name, const PlanParams& params,
             unsigned jobs)
{
    auto ran = runPaperPlan(name, params, SweepOptions{.jobs = jobs});
    EXPECT_TRUE(ran.ok()) << ran.error().message();
    return ran.ok() ? ran.take() : Report();
}

PlanParams
goldenParams()
{
    PlanParams params;
    params.branchesPerTrace = 4000;
    return params;
}

struct ToolRun {
    int status = -1;
    std::string output; ///< stdout and stderr, interleaved
};

/** Run the built tagecon_sweep with @p flags. */
ToolRun
runSweepTool(const std::string& flags)
{
    const std::string cmd =
        std::string(TAGECON_SWEEP_BIN) + " " + flags + " 2>&1";
    ToolRun run;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return run;
    char buf[4096];
    size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0)
        run.output.append(buf, n);
    const int raw = pclose(pipe);
    run.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    return run;
}

class EveryPlan : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EveryPlan, MatchesItsTextAndCsvGoldens)
{
    const Report report = runPlanOrDie(GetParam(), goldenParams(), 1);
    EXPECT_EQ(emitted(report, ReportFormat::Text),
              readGolden(GetParam(), "txt"));
    EXPECT_EQ(emitted(report, ReportFormat::Csv),
              readGolden(GetParam(), "csv"));
}

TEST_P(EveryPlan, FourWorkersChangeOnlyTheBannerJobsField)
{
    std::string text = emitted(runPlanOrDie(GetParam(), goldenParams(), 4),
                               ReportFormat::Text);
    const std::string field = "  jobs: 4";
    const size_t at = text.find(field + "\n");
    ASSERT_NE(at, std::string::npos) << text;
    text.erase(at, field.size());
    EXPECT_EQ(text, readGolden(GetParam(), "txt"));
}

INSTANTIATE_TEST_SUITE_P(PaperPlans, EveryPlan,
                         ::testing::ValuesIn(kPlanNames),
                         [](const auto& info) { return info.param; });

TEST(PaperPlans, UnknownNameFailsListingTheKnownNames)
{
    auto ran = runPaperPlan("figure7", goldenParams(), {});
    ASSERT_FALSE(ran.ok());
    EXPECT_EQ(ran.error().code, ErrCode::NotFound);
    // The registry holds exactly the seventeen experiments, in order.
    std::string known;
    for (const auto& name : kPlanNames)
        known += (known.empty() ? "" : ", ") + name;
    EXPECT_EQ(ran.error().detail,
              "unknown plan 'figure7' (known: " + known + ")");
}

TEST(PaperPlans, FixedLineupPlansRejectPredictors)
{
    PlanParams params = goldenParams();
    params.predictors = {"gshare"};
    for (const auto& name : kPlanNames) {
        if (name == "bim_burst" || name == "vs_jrs" ||
            name == "vs_selfconf")
            continue;
        auto ran = runPaperPlan(name, params, {});
        ASSERT_FALSE(ran.ok()) << name;
        EXPECT_EQ(ran.error().code, ErrCode::BadSpec);
        EXPECT_NE(ran.error().detail.find("'" + name + "'"),
                  std::string::npos)
            << ran.error().detail;
    }
}

TEST(PaperPlans, LineupPlansTakePredictors)
{
    PlanParams params;
    params.branchesPerTrace = 1000;
    params.predictors = {"tage16k+sfc"};
    for (const std::string name : {"bim_burst", "vs_jrs", "vs_selfconf"}) {
        const Report report = runPlanOrDie(name, params, 1);
        const auto tables = report.tables();
        ASSERT_FALSE(tables.empty()) << name;
        if (name == "bim_burst") {
            ASSERT_EQ(tables.size(), 1u);
            EXPECT_EQ(tables[0]->heading, "tage16k+sfc (pooled over CBP-1)");
        } else {
            const auto rows = tables[0]->table.dataRows();
            ASSERT_EQ(rows.size(), 1u) << name;
            EXPECT_EQ(rows[0][0], "tage16k+sfc") << name;
        }
    }
}

TEST(PaperPlans, AnalysisAppendsCellSectionsToDirectTablePlans)
{
    PlanParams params;
    params.branchesPerTrace = 1000;
    params.analysis.histogram = true;
    const Report report = runPlanOrDie("ablation_looppred", params, 1);
    // 4 specs x 5 traces, one histogram table per cell after the main
    // table.
    const auto tables = report.tables();
    ASSERT_EQ(tables.size(), 1u + 20u);
    EXPECT_EQ(tables[1]->heading, "tage16k x FP-1 [histogram]");
    EXPECT_EQ(tables[20]->heading, "ltage64k x 300.twolf [histogram]");
}

TEST(SweepToolPlan, RunsAPlanByName)
{
    const ToolRun run = runSweepTool("--plan=figure4 --branches=4000 --csv");
    EXPECT_EQ(run.status, 0) << run.output;
    EXPECT_EQ(run.output, readGolden("figure4", "csv"));
}

TEST(SweepToolPlan, UnknownNameListsTheKnownNames)
{
    const ToolRun run = runSweepTool("--plan=figure7");
    EXPECT_EQ(run.status, 1);
    EXPECT_NE(run.output.find("unknown plan 'figure7'"), std::string::npos)
        << run.output;
    EXPECT_NE(run.output.find("ablation_usealt"), std::string::npos)
        << run.output;
}

TEST(SweepToolPlan, GridFlagsAreRejected)
{
    for (const std::string flag :
         {"--traces=FP-1", "--baseline=tage16k", "--per-trace"}) {
        const ToolRun run = runSweepTool("--plan=figure4 " + flag);
        EXPECT_EQ(run.status, 1) << flag;
        const std::string name = flag.substr(0, flag.find('='));
        EXPECT_NE(run.output.find(name + " defines an ad-hoc grid"),
                  std::string::npos)
            << run.output;
    }
}

TEST(SweepToolPlan, PredictorsAreRejectedByFixedPlansOnly)
{
    const ToolRun fixed =
        runSweepTool("--plan=figure4 --branches=1000 --predictors=gshare");
    EXPECT_EQ(fixed.status, 1);
    EXPECT_NE(fixed.output.find("plan 'figure4'"), std::string::npos)
        << fixed.output;

    const ToolRun lineup = runSweepTool(
        "--plan=vs_jrs --branches=1000 --predictors=tage16k+sfc --csv");
    EXPECT_EQ(lineup.status, 0) << lineup.output;
    EXPECT_NE(lineup.output.find("\ntage16k+sfc,0 Kbit,"),
              std::string::npos)
        << lineup.output;
}

} // namespace
} // namespace tagecon
