#include "obs/metrics_export.hpp"

#include <fstream>
#include <iostream>

#include "sim/report.hpp"
#include "util/table_printer.hpp"

namespace tagecon {
namespace obs {

void
addMetricsTables(Report& report, const MetricsSnapshot& snap,
                 bool include_timing)
{
    TextTable scalars;
    scalars.addColumn("metric", TextTable::Align::Left);
    scalars.addColumn("value");
    for (const auto& s : snap.scalars)
        scalars.addRow({s.name, std::to_string(s.value)});
    report.addTable(ReportTable{"metrics",
                                "metrics (deterministic)",
                                std::move(scalars)});

    if (!include_timing)
        return;
    TextTable timing;
    timing.addColumn("stage", TextTable::Align::Left);
    timing.addColumn("count");
    timing.addColumn("p50 (ns)");
    timing.addColumn("p95 (ns)");
    timing.addColumn("p99 (ns)");
    timing.addColumn("mean (ns)");
    for (const auto& t : snap.timings) {
        const double mean =
            t.count == 0 ? 0.0
                         : static_cast<double>(t.sum) /
                               static_cast<double>(t.count);
        timing.addRow({t.name, std::to_string(t.count),
                       TextTable::num(t.p50, 1),
                       TextTable::num(t.p95, 1),
                       TextTable::num(t.p99, 1),
                       TextTable::num(mean, 1)});
    }
    report.addBlank();
    report.addTable(ReportTable{"metrics-timing",
                                "stage timing (wall clock)",
                                std::move(timing)});
}

std::string
prometheusName(const std::string& metric)
{
    std::string out = "tagecon_";
    out.reserve(out.size() + metric.size());
    for (const char c : metric)
        out += (c == '.' || c == '-') ? '_' : c;
    return out;
}

void
writePrometheusText(const MetricsSnapshot& snap, std::ostream& os)
{
    os << "# tagecon-metrics-v1\n";
    os << "# --- deterministic ---\n";
    for (const auto& s : snap.scalars) {
        const std::string name = prometheusName(s.name);
        os << "# TYPE " << name << " counter\n";
        os << name << " " << s.value << "\n";
    }
    os << "# --- timing (non-deterministic) ---\n";
    for (const auto& t : snap.timings) {
        const std::string name = prometheusName(t.name);
        os << "# TYPE " << name << " histogram\n";
        uint64_t cumulative = 0;
        for (size_t b = 0; b < t.bucketCounts.size(); ++b) {
            cumulative += t.bucketCounts[b];
            os << name << "_bucket{le=\"";
            if (b < t.bounds.size())
                os << t.bounds[b];
            else
                os << "+Inf";
            os << "\"} " << cumulative << "\n";
        }
        os << name << "_sum " << t.sum << "\n";
        os << name << "_count " << t.count << "\n";
    }
}

Err
writePrometheusFile(const MetricsSnapshot& snap, const std::string& path)
{
    if (path == "-") {
        writePrometheusText(snap, std::cout);
        return {};
    }
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        return Err(ErrCode::Io, "metrics.export",
                   "cannot open '" + path + "' for writing");
    writePrometheusText(snap, os);
    os.flush();
    if (!os)
        return Err(ErrCode::Io, "metrics.export",
                   "short write to '" + path + "'");
    return {};
}

} // namespace obs
} // namespace tagecon
