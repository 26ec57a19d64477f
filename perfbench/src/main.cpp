/**
 * @file
 * tagecon_perfbench: one workload per process.
 *
 *   tagecon_perfbench --workload=serve_churn --seed=7 --seconds=30
 *                     --trace=0 --out=DIR
 *
 * --trace=0 sets the workload up several times (setup_s is the
 * median), runs one warm-up rep, then closed-loop reps for --seconds
 * with tracing off, and prints the end-to-end metrics. Their host times
 * are process CPU time, so CPU the host steals or another process takes
 * does not count; wall-clock throughput is printed beside them and is
 * the per-layer host.wall_predictions_per_s. --trace=1 runs
 * untraced reps for a quarter of --seconds, then traced reps with the
 * obs counters and spans on, then the bench-side probes of every layer
 * call (split over the same worker count), then untraced reps for
 * another quarter, and prints the per-layer metrics; the Chrome trace
 * of the traced part lands in DIR/trace.json. Either way correctness
 * checks run last, and the last stdout line is the JSON result.
 */

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span_trace.hpp"
#include "perfbench.hpp"
#include "sim/report.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

using namespace tagecon;
using namespace perfbench;

namespace {

/** setup_s is the median of at least this many set-ups ... */
constexpr size_t kMinSetupRuns = 5;
/** ... repeated until they have taken this long. */
constexpr double kSetupSeconds = 1.0;
constexpr size_t kMinReps = 3;
constexpr unsigned kTracedReps = 2;

/**
 * Stated tolerance of layers.attributed_ratio: the probed unit costs
 * times the call counts must cover this share of the untraced worker
 * time (wall x workers). The residue is what no probed call explains:
 * scheduling, buffer copies, result aggregation and idle workers. The
 * probes run a few seconds away from the untraced reps (which bracket
 * them), so host speed drift between the two windows (up to ~20% on a
 * shared VM) is inside the band too.
 */
constexpr double kAttributedLo = 0.80;
constexpr double kAttributedHi = 1.20;

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

std::string
num(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

/**
 * Peak resident set of this process image, in MiB: VmHWM from
 * /proc/self/status. getrusage()'s ru_maxrss is not used because Linux
 * carries it across execve(), so it would report the launching
 * process's footprint whenever that is the larger.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    fatal("perfbench: no VmHWM in /proc/self/status");
}

volatile uint64_t g_sink = 0;

/**
 * Reference kernel: xorshift64 driving a read-modify-write walk over
 * a fixed 4 MiB table. Its ns/step tracks host speed (ALU plus
 * cache-missing loads) so numbers from different hosts or times can be
 * normalized; no gate uses it.
 */
double
refKernelNs()
{
    constexpr size_t kWords = size_t{1} << 19;
    constexpr uint64_t kSteps = uint64_t{1} << 21;
    std::vector<uint64_t> table(kWords);
    for (size_t i = 0; i < kWords; ++i)
        table[i] = i * 0x9E3779B97F4A7C15ull;
    std::vector<double> runs;
    uint64_t x = 0x2545F4914F6CDD1Dull;
    for (int r = 0; r < 5; ++r) {
        const uint64_t start = wallclock::monotonicNanos();
        for (uint64_t i = 0; i < kSteps; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            uint64_t& w = table[x & (kWords - 1)];
            w += x;
            x ^= w;
        }
        runs.push_back(
            wallclock::nanosBetween(start, wallclock::monotonicNanos()) /
            static_cast<double>(kSteps));
    }
    g_sink = x;
    return median(runs);
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(CPU_COUNT(&set));
}

bool
optimizedBuild()
{
#if defined(__OPTIMIZE__)
    return std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#else
    return false;
#endif
}

void
printMetric(const Metric& m, const std::string& note = "")
{
    std::cout << "  " << std::left << std::setw(32) << m.name
              << std::right << std::setw(20) << num(m.value) << " "
              << std::left << std::setw(8) << m.unit << note << "\n";
}

std::string
spreadNote(const std::vector<double>& v)
{
    std::ostringstream os;
    os << std::setprecision(4) << "(n=" << v.size() << ", q1 "
       << percentile(v, 0.25) << ", q3 " << percentile(v, 0.75) << ")";
    return os.str();
}

/** Medians over @p reps of their turn latency percentiles. */
std::pair<double, double>
turnLatency(const std::vector<RepResult>& reps)
{
    std::vector<double> p50, p99;
    for (const RepResult& r : reps) {
        p50.push_back(r.p50Ns);
        p99.push_back(r.p99Ns);
    }
    return {median(p50), median(p99)};
}

void
printTurnLatency(const std::vector<RepResult>& reps)
{
    if (reps.front().latencySamples == 0)
        return;
    const auto [p50, p99] = turnLatency(reps);
    const std::string note = "(median over reps; " +
                             std::to_string(reps.front().latencySamples) +
                             " latency samples per rep)";
    printMetric({"serve.turn_p50_ns", p50, "ns"}, note);
    printMetric({"serve.turn_p99_ns", p99, "ns"}, note);
}

/** Run reps until @p seconds have elapsed and at least @p min_reps. */
std::vector<RepResult>
runReps(Workload& w, double seconds, size_t min_reps)
{
    std::vector<RepResult> reps;
    const uint64_t start = wallclock::monotonicNanos();
    do {
        reps.push_back(w.runRep());
    } while (reps.size() < min_reps ||
             wallclock::secondsBetween(start, wallclock::monotonicNanos()) <
                 seconds);
    return reps;
}

void
account(const std::vector<RepResult>& reps, Outcome& out)
{
    for (const RepResult& r : reps) {
        out.attempted += r.attempted;
        out.failed += r.failed;
    }
}

/** Checks common to every workload, then the workload's own. */
void
runChecks(Workload& w, const std::vector<RepResult>& reps, Outcome& out)
{
    std::vector<Check> checks;
    Check det;
    det.name = "mpki identical across reps";
    det.ok = true;
    for (const RepResult& r : reps)
        det.ok = det.ok && r.mpki == reps.front().mpki;
    checks.push_back(det);
    Check served;
    served.name = "every rep served its whole input";
    served.ok = true;
    for (const RepResult& r : reps)
        served.ok = served.ok && r.predictions == reps.front().predictions &&
                    r.predictions > 0 && r.failed == 0;
    checks.push_back(served);
    for (Check& c : w.check())
        checks.push_back(std::move(c));

    for (const Check& c : checks) {
        ++out.attempted;
        if (!c.ok)
            ++out.failed;
        std::cout << "check " << (c.ok ? "PASS " : "FAIL ") << c.name;
        if (!c.detail.empty())
            std::cout << " [" << c.detail << "]";
        std::cout << "\n";
    }
}

// ---------------------------------------------------------- end to end

Outcome
runEndToEnd(Workload& w, double seconds)
{
    Outcome out;
    std::vector<double> setup;
    double setup_total = 0.0;
    while (setup.size() < kMinSetupRuns || setup_total < kSetupSeconds) {
        const uint64_t start = processCpuNanos();
        w.setup();
        setup.push_back(static_cast<double>(processCpuNanos() - start) / 1e9);
        setup_total += setup.back();
    }

    // One untimed warm-up rep lets allocator pools and caches settle.
    std::vector<RepResult> warmup = {w.runRep()};
    account(warmup, out);
    const std::vector<RepResult> reps = runReps(w, seconds, kMinReps);
    const double rss = peakRssMiB();
    account(reps, out);

    std::vector<double> cpu_rate, wall_rate, wall;
    for (const RepResult& r : reps) {
        const double preds = static_cast<double>(r.predictions);
        cpu_rate.push_back(preds / r.cpuSeconds);
        wall_rate.push_back(preds / r.wallSeconds);
        wall.push_back(r.wallSeconds);
    }
    std::cout << "reps: " << reps.size() << " (+1 warm-up), "
              << reps.front().predictions
              << " predictions per rep, wall median " << median(wall)
              << " s\n";
    out.metrics = {
        {"setup_s", median(setup), "s"},
        {"predictions_per_cpu_s", median(cpu_rate), "1/cpu-s"},
        {"peak_rss_mb", rss, "MiB"},
    };
    printMetric(out.metrics[0], spreadNote(setup));
    printMetric(out.metrics[1], spreadNote(cpu_rate));
    printMetric(out.metrics[2]);
    printMetric({"predictions_per_s", median(wall_rate), "1/s"},
                spreadNote(wall_rate) +
                    " (wall; per-layer host.wall_predictions_per_s)");
    printTurnLatency(reps);
    printMetric({"mpki", reps.front().mpki, "MPKI"},
                "(simulated; deterministic per seed; per-layer sim.mpki)");

    std::vector<RepResult> all = warmup;
    all.insert(all.end(), reps.begin(), reps.end());
    runChecks(w, all, out);
    return out;
}

// --------------------------------------------------------------- traced

struct SpanTotals {
    uint64_t count = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
};

/**
 * Per-name totals of the span events: a span's self time is its
 * duration minus the durations of its direct children on the same
 * thread.
 */
std::map<std::string, SpanTotals>
spanTotals(const std::vector<obs::SpanEvent>& events)
{
    std::vector<const obs::SpanEvent*> order;
    for (const auto& e : events)
        order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const obs::SpanEvent* a, const obs::SpanEvent* b) {
                  if (a->tid != b->tid)
                      return a->tid < b->tid;
                  if (a->startNs != b->startNs)
                      return a->startNs < b->startNs;
                  return a->endNs > b->endNs;
              });
    std::map<std::string, SpanTotals> totals;
    std::vector<std::pair<const obs::SpanEvent*, double>> stack;
    auto close = [&totals](const obs::SpanEvent* e, double child_ns) {
        SpanTotals& t = totals[e->name];
        const double dur =
            wallclock::nanosBetween(e->startNs, e->endNs);
        ++t.count;
        t.totalNs += dur;
        t.selfNs += dur - child_ns;
    };
    for (const obs::SpanEvent* e : order) {
        while (!stack.empty() &&
               (stack.back().first->tid != e->tid ||
                stack.back().first->endNs <= e->startNs)) {
            close(stack.back().first, stack.back().second);
            stack.pop_back();
        }
        if (!stack.empty() && e->endNs <= stack.back().first->endNs)
            stack.back().second +=
                wallclock::nanosBetween(e->startNs, e->endNs);
        stack.emplace_back(e, 0.0);
    }
    while (!stack.empty()) {
        close(stack.back().first, stack.back().second);
        stack.pop_back();
    }
    return totals;
}

/**
 * Chrome trace_event JSON of @p events, in the library exporter's
 * format (one "X" event per span). obs::writeChromeTrace() takes the
 * buffered events itself, and the analysis above needs them too.
 */
void
writeChromeTrace(const std::string& path,
                 const std::vector<obs::SpanEvent>& events)
{
    uint64_t t0 = UINT64_MAX;
    for (const auto& e : events)
        t0 = std::min(t0, e.startNs);
    std::ofstream os(path, std::ios::trunc);
    os << "{\"traceEvents\":[";
    for (size_t i = 0; i < events.size(); ++i) {
        const obs::SpanEvent& e = events[i];
        const std::string name(e.name);
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << jsonEscape(name)
           << "\",\"cat\":\"" << jsonEscape(name.substr(0, name.find('.')))
           << "\",\"ph\":\"X\",\"ts\":"
           << num(static_cast<double>(e.startNs - t0) / 1000.0)
           << ",\"dur\":"
           << num(static_cast<double>(e.endNs - e.startNs) / 1000.0)
           << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"id\":" << e.id;
        if (!e.detail.empty())
            os << ",\"detail\":\"" << jsonEscape(e.detail) << "\"";
        os << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
    if (!os)
        fatal("perfbench: cannot write " + path);
}

/** max/mean of serve.shard durations within each bench.serve span. */
double
shardImbalance(const std::vector<obs::SpanEvent>& events)
{
    std::vector<double> per_serve;
    for (const auto& s : events) {
        if (std::string(s.name) != "bench.serve")
            continue;
        double max = 0.0, sum = 0.0;
        size_t n = 0;
        for (const auto& e : events) {
            if (std::string(e.name) != "serve.shard" ||
                e.startNs < s.startNs || e.endNs > s.endNs)
                continue;
            const double d = wallclock::nanosBetween(e.startNs, e.endNs);
            max = std::max(max, d);
            sum += d;
            ++n;
        }
        if (n > 0)
            per_serve.push_back(max / (sum / static_cast<double>(n)));
    }
    return median(per_serve);
}

Outcome
runTraced(Workload& w, double seconds, const std::string& out_dir,
          double ref_kernel_ns)
{
    Outcome out;
    const uint64_t setup_start = wallclock::monotonicNanos();
    w.setup();
    std::cout << "setup: "
              << wallclock::secondsBetween(setup_start,
                                           wallclock::monotonicNanos())
              << " s\n";

    std::vector<RepResult> warmup = {w.runRep()};
    std::vector<RepResult> untraced =
        runReps(w, seconds / 4.0, kMinReps - 1);

    // Traced reps: the library's counters and spans on.
    obs::resetAllMetrics();
    obs::setMetricsEnabled(true);
    obs::startTracing();
    std::vector<RepResult> traced;
    for (unsigned i = 0; i < kTracedReps; ++i)
        traced.push_back(w.runRep());
    std::vector<double> walls;
    double traced_sum = 0.0;
    for (const RepResult& r : traced) {
        walls.push_back(r.wallSeconds);
        traced_sum += r.wallSeconds;
    }
    const double traced_wall = median(walls);
    const LayerCounts n = w.counts(kTracedReps);
    const double turn_ns = static_cast<double>(
        obs::timingHistogram("serve.turn.ns").sum());

    // Bench-side probes of every layer call, still traced, on as many
    // threads as the timed calls use so unit costs see the same
    // contention. Each thread's spans flush when it exits.
    const unsigned workers = w.workers();
    std::vector<UnitCosts> shares(workers);
    {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < workers; ++i)
            pool.emplace_back(
                [&w, &shares, i, workers] { w.probe(shares[i], i, workers); });
        for (auto& t : pool)
            t.join();
    }
    UnitCosts c;
    for (const UnitCosts& share : shares)
        c.merge(share);
    obs::stopTracing();
    obs::setMetricsEnabled(false);
    const std::vector<obs::SpanEvent> events = obs::takeTraceEvents();
    const std::string trace_path = out_dir + "/trace.json";
    writeChromeTrace(trace_path, events);

    // Untraced reps on both sides of the traced part, so the
    // attribution compares the probes with the host as it was around
    // them.
    for (const RepResult& r : runReps(w, seconds / 4.0, kMinReps - 1))
        untraced.push_back(r);
    walls.clear();
    std::vector<double> wall_rate;
    for (const RepResult& r : untraced) {
        walls.push_back(r.wallSeconds);
        wall_rate.push_back(static_cast<double>(r.predictions) /
                            r.wallSeconds);
    }
    const double untraced_wall = median(walls);
    const auto [turn_p50, turn_p99] = turnLatency(untraced);
    account(warmup, out);
    account(untraced, out);
    account(traced, out);

    const double preds = std::max(n.predictions, 1.0);
    struct Layer {
        const char* name;
        const Samples& unit;
        double calls;
    };
    const Layer layers[] = {
        {"trace.open", c.open, n.traceOpens},
        {"trace.gen", c.gen, n.genRecords},
        {"trace.read", c.read, n.readRecords},
        {"sim.make_predictor", c.make, n.makePredictor},
        {"tage.predict_many", c.predict, n.predictions},
        {"core.record", c.record, n.predictions},
        {"tage.snapshot", c.snapshot, n.snapshots},
        {"tage.restore", c.restore, n.restores},
        {"ckpt.encode", c.ckEncode, n.ckptEncodes},
        {"ckpt.write", c.ckWrite, n.ckptWrites},
        {"ckpt.read", c.ckRead, n.ckptReads},
        {"ckpt.decode", c.ckDecode, n.ckptDecodes},
        {"ckpt.restore", c.ckRestore, n.ckptRestores},
    };
    const double worker_ns = untraced_wall * 1e9 * workers;
    double attributed_ns = 0.0;
    std::cout << "per-layer attribution (per rep; untraced wall "
              << untraced_wall << " s x " << workers << " workers):\n"
              << "  layer                 calls/rep      unit ns  probed ops"
                 "    total ms    share\n";
    std::map<std::string, double> total_us;
    for (const Layer& l : layers) {
        const double ns = l.unit.unitNs() * l.calls;
        if (l.calls > 0 && l.unit.ops() == 0)
            fatal(std::string("perfbench: layer ") + l.name +
                  " has calls but was never probed");
        attributed_ns += ns;
        total_us[l.name] = ns / 1000.0;
        char row[160];
        std::snprintf(row, sizeof row,
                      "  %-20s %10.0f %12.1f %11llu %11.3f %8.4f\n", l.name,
                      l.calls, l.unit.unitNs(),
                      static_cast<unsigned long long>(l.unit.ops()), ns / 1e6,
                      ns / worker_ns);
        std::cout << row;
    }
    const double attributed = attributed_ns / worker_ns;
    const bool within = attributed >= kAttributedLo &&
                        attributed <= kAttributedHi;
    std::cout << "  attributed " << attributed << ", unattributed residue "
              << 1.0 - attributed << " (tolerance [" << kAttributedLo
              << ", " << kAttributedHi << "]: "
              << (within ? "within" : "OUTSIDE") << ")\n";

    const std::map<std::string, SpanTotals> spans = spanTotals(events);
    std::cout << "span self time (traced reps + probes; " << trace_path
              << "):\n";
    for (const auto& [name, t] : spans) {
        char row[160];
        std::snprintf(row, sizeof row,
                      "  %-26s %9llu %12.3f ms total %12.3f ms self\n",
                      name.c_str(), static_cast<unsigned long long>(t.count),
                      t.totalNs / 1e6, t.selfNs / 1e6);
        std::cout << row;
    }

    std::vector<double> cell_ms;
    double cell_sum_ns = 0.0;
    for (const auto& e : events)
        if (std::string(e.name) == "sweep.cell") {
            const double d = wallclock::nanosBetween(e.startNs, e.endNs);
            cell_ms.push_back(d / 1e6);
            cell_sum_ns += d;
        }

    out.metrics = {
        {"host.ref_kernel_ns", ref_kernel_ns, "ns"},
        {"host.wall_predictions_per_s", median(wall_rate), "1/s"},
        {"trace.open_us", total_us["trace.open"], "us"},
        {"trace.gen_ns_per_rec", total_us["trace.gen"] * 1000.0 / preds,
         "ns"},
        {"trace.read_ns_per_rec", total_us["trace.read"] * 1000.0 / preds,
         "ns"},
        {"sim.make_predictor_us", total_us["sim.make_predictor"], "us"},
        {"tage.predict_many_ns_per_pred",
         total_us["tage.predict_many"] * 1000.0 / preds, "ns"},
        {"tage.allocs_per_kpred",
         1000.0 * n.allocations / std::max(n.lifetimePredictions, 1.0),
         "count"},
        {"tage.snapshot_us", total_us["tage.snapshot"], "us"},
        {"tage.restore_us", total_us["tage.restore"], "us"},
        {"tage.state_bytes", static_cast<double>(c.stateBytes), "bytes"},
        {"core.record_ns_per_pred",
         total_us["core.record"] * 1000.0 / preds, "ns"},
        {"serve.admissions_per_turn",
         n.turns > 0 ? n.admissions / n.turns : 0.0, "count"},
        {"serve.evictions_per_turn",
         n.turns > 0 ? n.evictions / n.turns : 0.0, "count"},
        {"serve.turn_p50_ns", turn_p50, "ns"},
        {"serve.turn_p99_ns", turn_p99, "ns"},
        {"serve.turn_share", turn_ns / (traced_sum * 1e9 * workers),
         "ratio"},
        {"serve.shard_imbalance", shardImbalance(events), "ratio"},
        {"ckpt.encode_us", total_us["ckpt.encode"], "us"},
        {"ckpt.write_us", total_us["ckpt.write"], "us"},
        {"ckpt.read_us", total_us["ckpt.read"], "us"},
        {"ckpt.decode_us", total_us["ckpt.decode"], "us"},
        {"ckpt.restore_us", total_us["ckpt.restore"], "us"},
        {"ckpt.bytes", n.ckptBytes, "bytes"},
        {"sim.mpki", traced.front().mpki, "MPKI"},
        {"sim.cell_p50_ms", percentile(cell_ms, 0.5), "ms"},
        {"sim.cell_max_ms", percentile(cell_ms, 1.0), "ms"},
        {"sim.sweep_efficiency", cell_sum_ns / (traced_sum * 1e9 * workers),
         "ratio"},
        {"layers.attributed_ratio", attributed, "ratio"},
        {"obs.trace_overhead_ratio", traced_wall / untraced_wall, "ratio"},
    };
    std::cout << "per-layer metrics:\n";
    for (const Metric& m : out.metrics)
        printMetric(m);
    if (untraced.front().latencySamples > 0)
        std::cout << "  (serve.turn_* are medians over the untraced reps; "
                  << untraced.front().latencySamples
                  << " latency samples per rep)\n";

    std::vector<RepResult> all = warmup;
    all.insert(all.end(), untraced.begin(), untraced.end());
    all.insert(all.end(), traced.begin(), traced.end());
    runChecks(w, all, out);
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    const CliArgs args(argc, argv);
    RunConfig cfg;
    cfg.workload = args.getString("workload", "");
    cfg.seed = args.getUint("seed", 1);
    cfg.outDir = args.getString("out", "");
    const double seconds = args.getDouble("seconds", 10.0);
    const bool traced = args.getUintInRange("trace", 0, 0, 1) == 1;
    if (cfg.outDir.empty() || !(seconds > 0.0))
        fatal("perfbench: --out=DIR and --seconds > 0 are required");

    std::unique_ptr<Workload> w = makeWorkload(cfg);
    if (!w) {
        std::string known;
        for (const auto& name : workloadNames())
            known += " " + name;
        fatal("perfbench: unknown workload '" + cfg.workload +
              "' (known:" + known + ")");
    }

    const unsigned nproc = usableCpus();
    std::cout << "perfbench workload=" << cfg.workload
              << " seed=" << cfg.seed << " seconds=" << seconds
              << " trace=" << (traced ? 1 : 0) << "\n"
              << "host: nproc=" << nproc << " compiler=\""
              << PERFBENCH_COMPILER << "\" build=" << PERFBENCH_BUILD_TYPE
              << " jobs=" << cfg.jobs << "\n";
    if (!optimizedBuild())
        fatal("perfbench: refusing to time an unoptimized (" +
              std::string(PERFBENCH_BUILD_TYPE) + ") build");
    if (cfg.jobs > nproc)
        fatal("perfbench: refusing jobs=" + std::to_string(cfg.jobs) +
              " on a host with nproc=" + std::to_string(nproc));
    std::filesystem::create_directories(cfg.outDir);
    const double ref_kernel_ns = refKernelNs();
    std::cout << "host.ref_kernel_ns=" << num(ref_kernel_ns) << "\n"
              << std::flush;

    const Outcome out =
        traced ? runTraced(*w, seconds, cfg.outDir, ref_kernel_ns)
               : runEndToEnd(*w, seconds);
    w->cleanup();
    std::cout << "failed_ratio " << out.failed << "/" << out.attempted
              << " = "
              << static_cast<double>(out.failed) /
                     static_cast<double>(std::max<uint64_t>(out.attempted, 1))
              << "\n";

    std::ostringstream json;
    json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        if (!std::isfinite(m.value))
            fatal("perfbench: metric " + m.name + " is not finite");
        json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
             << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    }
    json << "}}";
    std::ofstream(cfg.outDir + "/result.json")
        << "{\"workload\": \"" << cfg.workload << "\", \"seed\": "
        << cfg.seed << ", \"trace\": " << (traced ? 1 : 0)
        << ", \"host\": {\"nproc\": " << nproc << ", \"compiler\": \""
        << PERFBENCH_COMPILER << "\", \"build\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"jobs\": " << cfg.jobs
        << ", \"ref_kernel_ns\": " << num(ref_kernel_ns)
        << "}, \"result\": " << json.str() << "}\n";
    std::cout << json.str() << std::endl;
    return 0;
}
