/**
 * @file
 * Shared types of the repo benchmark (perfbench/README.md).
 *
 * A Workload is a closed loop over a fixed, seed-generated input: one
 * rep serves the whole input to exhaustion through the library's
 * public entry points (runSweep, ServingEngine::serve), and the next
 * rep starts only after it returns. main.cpp times reps untraced for
 * the end-to-end metrics; a separate traced run reads the library's
 * obs counters and spans, and times each layer's public calls from
 * the benchmark side (Workload::probe) to build the per-layer
 * metrics.
 */

#ifndef TAGECON_PERFBENCH_PERFBENCH_HPP
#define TAGECON_PERFBENCH_PERFBENCH_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/span_trace.hpp"
#include "util/wall_clock.hpp"

namespace perfbench {

/** Command-line settings every workload receives. */
struct RunConfig {
    std::string workload;
    uint64_t seed = 1;

    /** Worker threads of every serve / sweep call. */
    unsigned jobs = 2;

    /** Per-run directory for generated inputs and trace output. */
    std::string outDir;
};

/** Outcome of one closed-loop rep. */
struct RepResult {
    /** Summed wall time of the rep's timed library calls. */
    double wallSeconds = 0.0;

    /**
     * Summed CPU time of the whole process (every thread) over the
     * same calls, from processCpuNanos().
     */
    double cpuSeconds = 0.0;

    /** Predictions served, excluding restored (skipped) prefixes. */
    uint64_t predictions = 0;

    /**
     * Per-prediction turn latency percentiles of a serve and their
     * sample count (0 for workloads without turns).
     */
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    uint64_t latencySamples = 0;

    /** Pooled MPKI over every served branch (simulated). */
    double mpki = 0.0;

    /** Streams or cells attempted, and those that failed. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** One correctness check; failures count in `failed`. */
struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
};

/**
 * Deterministic calls per rep into each layer's public functions,
 * read from the library's obs counters over the traced reps and from
 * the workload's own structure.
 */
struct LayerCounts {
    double traceOpens = 0;
    double genRecords = 0;
    double readRecords = 0;
    double makePredictor = 0;
    double predictions = 0;
    double snapshots = 0;
    double restores = 0;
    double ckptEncodes = 0;
    double ckptWrites = 0;
    double ckptReads = 0;
    double ckptDecodes = 0;
    double ckptRestores = 0;
    double ckptBytes = 0;
    double turns = 0;
    double admissions = 0;
    double evictions = 0;

    /** Lifetime TAGE allocations and predictions of the rep's streams. */
    double allocations = 0;
    double lifetimePredictions = 0;
};

/** Accumulated probe timings of one layer call. */
class Samples
{
  public:
    void
    add(double ns, uint64_t ops)
    {
        ns_ += ns;
        ops_ += ops;
    }

    /** Mean ns per operation (what sums to the layer's total). */
    double
    unitNs() const
    {
        return ops_ == 0 ? 0.0 : ns_ / static_cast<double>(ops_);
    }

    void
    merge(const Samples& o)
    {
        ns_ += o.ns_;
        ops_ += o.ops_;
    }

    /** Operations probed. */
    uint64_t ops() const { return ops_; }

  private:
    double ns_ = 0.0;
    uint64_t ops_ = 0;
};

/** Unit costs measured by a workload's probe. */
struct UnitCosts {
    Samples open, gen, read, make, predict, record, snapshot, restore;
    Samples ckEncode, ckWrite, ckRead, ckDecode, ckRestore;

    /** snapshot() bytes of one warmed predictor of the workload. */
    uint64_t stateBytes = 0;

    void
    merge(const UnitCosts& o)
    {
        for (auto [mine, theirs] :
             {std::pair{&open, &o.open}, {&gen, &o.gen}, {&read, &o.read},
              {&make, &o.make}, {&predict, &o.predict},
              {&record, &o.record}, {&snapshot, &o.snapshot},
              {&restore, &o.restore}, {&ckEncode, &o.ckEncode},
              {&ckWrite, &o.ckWrite}, {&ckRead, &o.ckRead},
              {&ckDecode, &o.ckDecode}, {&ckRestore, &o.ckRestore}})
            mine->merge(*theirs);
        stateBytes = std::max(stateBytes, o.stateBytes);
    }
};

/**
 * Time @p fn under a bench-side span named @p span (carrying @p id,
 * the stream id or cell slot) and add the time and the number of
 * operations @p fn returns to @p s.
 */
template <typename Fn>
void
timed(const char* span, uint64_t id, Samples& s, Fn&& fn)
{
    TAGECON_SPAN(span, id);
    const uint64_t start = tagecon::wallclock::monotonicNanos();
    const auto ops = fn();
    const uint64_t end = tagecon::wallclock::monotonicNanos();
    if (ops > 0)
        s.add(tagecon::wallclock::nanosBetween(start, end),
              static_cast<uint64_t>(ops));
}

/** A closed-loop workload over a fixed input generated from the seed. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and validate the plan/engine (timed as setup_s). */
    virtual void setup() = 0;

    /** Serve the whole input once. */
    virtual RepResult runRep() = 0;

    /** Correctness invariants over the last rep's outputs. */
    virtual std::vector<Check> check() = 0;

    /** Per-rep layer calls, from obs counters accumulated over @p reps. */
    virtual LayerCounts counts(unsigned reps) const = 0;

    /**
     * Replay share @p part of @p parts of one rep through the layers'
     * public calls, in the rep's own schedule, timing each call. The
     * shares run on workers() threads at once, like the timed calls.
     */
    virtual void probe(UnitCosts& costs, unsigned part, unsigned parts) = 0;

    /** Worker threads the timed calls actually use. */
    virtual unsigned workers() const = 0;

    /** Remove generated inputs (trace files, checkpoints). */
    virtual void cleanup() {}
};

/** The workloads, in the order `--workload all` runs them. */
const std::vector<std::string>& workloadNames();

/** Construct workload @p cfg.workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const RunConfig& cfg);

/** splitmix64: the seed -> salt mapping of every generated input. */
uint64_t mixSeed(uint64_t x);

/**
 * CPU time this process has run so far, all threads (exited ones too),
 * in ns: CLOCK_PROCESS_CPUTIME_ID. Time the host steals from the guest
 * and time spent waiting for a CPU are not in it.
 */
uint64_t processCpuNanos();

/** Value of obs counter @p name. */
uint64_t counterValue(const char* name);

/** Nearest-rank percentile @p q of @p v (the engine's convention). */
double percentile(std::vector<double> v, double q);

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

} // namespace perfbench

#endif // TAGECON_PERFBENCH_PERFBENCH_HPP
