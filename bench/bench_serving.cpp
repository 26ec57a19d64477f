/**
 * @file
 * Multi-stream serving throughput bench: drives the ServingEngine
 * (src/serve/) over a large stream population — thousands of simulated
 * "users", each with its own trace position and predictor state — and
 * reports wall-clock throughput (streams/sec, predictions/sec) and
 * per-prediction latency percentiles at several worker counts.
 *
 * The committed BENCH_serving.json at the repo root is this bench's
 * --report=json output. Accuracy columns are deterministic (identical
 * across every row — the engine's bit-identity property); timing
 * columns are wall clock and vary by host.
 *
 * Flags: --streams=N (default 10000), --branches=N per stream
 * (default 2000), --spec=..., --pool=N, --batch=N, --jobs=a,b,c
 * (worker counts to sweep; default "1,0" where 0 = hardware
 * concurrency), --report=text|csv|json, --csv.
 */

#include <iostream>
#include <thread>

#include "serve/serving_engine.hpp"
#include "sim/report.hpp"
#include "sim/trace_registry.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table_printer.hpp"

using namespace tagecon;

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);

    const uint64_t num_streams =
        args.getUintInRange("streams", 10000, 1, 10000000);
    const uint64_t branches = args.getUint("branches", 2000);
    const std::string spec = args.getString("spec", "tage64k+sfc");
    const unsigned pool = static_cast<unsigned>(
        args.getUintInRange("pool", 8, 0, 1u << 20));
    const unsigned batch = static_cast<unsigned>(
        args.getUintInRange("batch", 512, 1, 1u << 24));

    ReportFormat format = ReportFormat::Text;
    std::string error;
    if (args.getBool("csv", false))
        format = ReportFormat::Csv;
    if (args.has("report") &&
        !parseReportFormat(args.getString("report", "text"), format,
                           error))
        fatal(error);

    std::vector<unsigned> job_counts;
    for (const auto& item : args.getList("jobs", {"1", "0"})) {
        const unsigned j =
            static_cast<unsigned>(std::stoul(item));
        job_counts.push_back(
            j != 0 ? j : std::max(1u, std::thread::hardware_concurrency()));
    }

    std::vector<std::string> traces;
    if (!resolveTraceSpecs(args.getList("traces", {"cbp1"}), traces,
                           error))
        fatal(error);

    const auto streams =
        StreamSet::roundRobin(num_streams, traces, branches, 0);

    Report report("serving",
                  "multi-stream serving throughput (" +
                      std::to_string(num_streams) + " streams x " +
                      std::to_string(branches) + " branches)",
                  "");
    report.addMeta("streams", std::to_string(num_streams));
    report.addMeta("branches/stream", std::to_string(branches));
    report.addMeta("spec", spec);
    report.addMeta("pool/shard", std::to_string(pool));
    report.addMeta("batch", std::to_string(batch));

    TextTable t;
    t.addColumn("jobs");
    t.addColumn("wall (s)");
    t.addColumn("streams/s");
    t.addColumn("predictions/s");
    t.addColumn("p50 lat (ns/pred)");
    t.addColumn("p99 lat (ns/pred)");
    t.addColumn("misp/KI");
    t.addColumn("MKP");

    for (const unsigned jobs : job_counts) {
        ServeOptions opts;
        opts.spec = spec;
        opts.jobs = jobs;
        opts.poolPerShard = pool;
        opts.batch = batch;
        ServingEngine engine(opts);
        ServeResult result;
        if (!engine.serve(streams, result, error))
            fatal(error);
        t.addRow({std::to_string(jobs),
                  TextTable::num(result.timing.wallSeconds, 3),
                  TextTable::num(result.timing.streamsPerSec, 1),
                  TextTable::num(result.timing.predictionsPerSec, 0),
                  TextTable::num(result.timing.p50LatencyNs, 1),
                  TextTable::num(result.timing.p99LatencyNs, 1),
                  TextTable::num(result.aggregate.mpki(), 3),
                  TextTable::num(result.aggregate.totalMkp(), 1)});
    }

    report.addTable(ReportTable{"throughput", "", std::move(t)});
    report.addBlank();
    report.addText("accuracy columns (misp/KI, MKP) are deterministic "
                   "and identical across rows — the engine's "
                   "bit-identity property; timing columns are wall "
                   "clock.");
    report.emit(format, std::cout);
    return 0;
}
