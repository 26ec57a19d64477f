/**
 * @file
 * Unit tests for the text-table renderer used by the experiment
 * harnesses.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table_printer.hpp"

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

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t;
    t.addColumn("name", TextTable::Align::Left);
    t.addColumn("value");
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = rendered(t);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_EQ(t.dataRows().size(), 2u);
}

TEST(TextTable, PadsColumnsConsistently)
{
    TextTable t;
    t.addColumn("a", TextTable::Align::Left);
    t.addColumn("b");
    t.addRow({"x", "1"});
    t.addRow({"longer", "2"});
    std::istringstream in(rendered(t));
    std::string line;
    std::vector<size_t> lengths;
    while (std::getline(in, line))
        lengths.push_back(line.size());
    // Header, separator and both data rows all share one width.
    ASSERT_EQ(lengths.size(), 4u);
    EXPECT_EQ(lengths[0], lengths[1]);
    EXPECT_EQ(lengths[1], lengths[2]);
    EXPECT_EQ(lengths[2], lengths[3]);
}

TEST(TextTable, ShortRowsArePadded)
{
    TextTable t;
    t.addColumn("a");
    t.addColumn("b");
    t.addRow({"only"});
    EXPECT_EQ(t.dataRows().size(), 1u);
    EXPECT_NE(rendered(t).find("only"), std::string::npos);
}

TEST(TextTable, SeparatorRowsExcludedFromCount)
{
    TextTable t;
    t.addColumn("x");
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.dataRows().size(), 2u);
}

TEST(TextTable, CsvOutput)
{
    TextTable t;
    t.addColumn("a");
    t.addColumn("b");
    t.addRow({"1", "2"});
    t.addSeparator(); // separators do not appear in CSV
    t.addRow({"3", "4"});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n3,4\n");
}

TEST(TextTable, CsvQuotesCellsContainingSeparators)
{
    // Canonical multi-parameter spec names contain commas; CSV must
    // quote them (RFC 4180) so columns don't shift for consumers.
    TextTable t;
    t.addColumn("spec");
    t.addColumn("v");
    t.addRow({"gshare:entries=16,hist=17+jrs", "1"});
    t.addRow({"say \"hi\"", "2"});
    std::ostringstream os;
    t.renderCsv(os);
    EXPECT_EQ(os.str(), "spec,v\n"
                        "\"gshare:entries=16,hist=17+jrs\",1\n"
                        "\"say \"\"hi\"\"\",2\n");
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(-1.5, 1), "-1.5");
    EXPECT_EQ(TextTable::frac(0.6935), "0.694");
    EXPECT_EQ(TextTable::integer(12345), "12345");
}

TEST(TextTable, RightAlignmentPutsSpacesFirst)
{
    TextTable t;
    t.addColumn("col");
    t.addRow({"1"});
    std::istringstream in(rendered(t));
    std::string header;
    std::string sep;
    std::string row;
    std::getline(in, header);
    std::getline(in, sep);
    std::getline(in, row);
    EXPECT_EQ(row, "  1");
}

} // namespace
} // namespace tagecon
