/**
 * @file
 * Tests for the table/figure renderers.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/reporting.hpp"
#include "sim/sweep.hpp"

namespace tagecon {
namespace {

/** @p t rendered with aligned columns. */
std::string
rendered(const TextTable& t)
{
    std::ostringstream os;
    t.render(os);
    return os.str();
}

SweepRow
tinyCbp1Row()
{
    return runSweepRows(SweepPlan::over({"tage16k+sfc"},
                                        traceNames(BenchmarkSet::Cbp1),
                                        2000))
        .front();
}

TEST(Reporting, CoverageTableHasAllTracesPlusAggregate)
{
    const SweepRow r = tinyCbp1Row();
    const TextTable t = coverageTable(r.perTrace, r.aggregate);
    EXPECT_EQ(t.dataRows().size(), 21u); // 20 traces + (all)
    const std::string s = rendered(t);
    EXPECT_NE(s.find("FP-1"), std::string::npos);
    EXPECT_NE(s.find("SERV-5"), std::string::npos);
    EXPECT_NE(s.find("(all)"), std::string::npos);
    EXPECT_NE(s.find("high-conf-bim"), std::string::npos);
    EXPECT_NE(s.find("Wtag"), std::string::npos);
}

TEST(Reporting, MpkiBreakdownIncludesTotalColumn)
{
    const SweepRow r = tinyCbp1Row();
    const TextTable t = mpkiBreakdownTable(r.perTrace, r.aggregate);
    EXPECT_EQ(t.dataRows().size(), 21u);
    EXPECT_NE(rendered(t).find("total-MPKI"), std::string::npos);
}

TEST(Reporting, MprateTableSelectsTraces)
{
    const SweepRow r = tinyCbp1Row();
    const TextTable t = mprateTable(r.perTrace, {"FP-1", "MM-3"});
    EXPECT_EQ(t.dataRows().size(), 2u);
    const std::string s = rendered(t);
    EXPECT_NE(s.find("FP-1"), std::string::npos);
    EXPECT_NE(s.find("MM-3"), std::string::npos);
    EXPECT_EQ(s.find("SERV-1"), std::string::npos);
}

TEST(Reporting, MprateTableUnknownTraceIsFatal)
{
    const SweepRow r = tinyCbp1Row();
    EXPECT_EXIT(mprateTable(r.perTrace, {"nope"}),
                ::testing::ExitedWithCode(1),
                "not in result set");
}

TEST(Reporting, ThreeClassRowFormat)
{
    ClassStats s;
    for (int i = 0; i < 800; ++i)
        s.record(PredictionClass::HighConfBim, i < 8, 1);
    for (int i = 0; i < 150; ++i)
        s.record(PredictionClass::NStag, i < 15, 1);
    for (int i = 0; i < 50; ++i)
        s.record(PredictionClass::Wtag, i < 20, 1);

    const auto row = threeClassRow("64K CBP1", s);
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], "64K CBP1");
    // high: Pcov 0.800, MPcov 8/43, MPrate 10 MKP
    EXPECT_EQ(row[1], "0.800-0.186 (10)");
    EXPECT_EQ(row[2], "0.150-0.349 (100)");
    EXPECT_EQ(row[3], "0.050-0.465 (400)");
}

} // namespace
} // namespace tagecon
