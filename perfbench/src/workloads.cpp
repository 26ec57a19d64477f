/**
 * @file
 * The three benchmark workloads. Each is a closed loop over a fixed
 * input generated from the seed, served to exhaustion per rep, and
 * reaches the library only through its public headers. Why each one
 * exists is in perfbench/README.md.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>

#include "core/binary_metrics.hpp"
#include "core/class_stats.hpp"
#include "perfbench.hpp"
#include "serve/checkpoint.hpp"
#include "serve/serving_engine.hpp"
#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_registry.hpp"
#include "trace/trace_io.hpp"
#include "trace/trace_source.hpp"
#include "util/logging.hpp"

using namespace tagecon;

namespace perfbench {

namespace {

/** predictMany() chunk of runTrace() and of a serve turn. */
constexpr size_t kChunk = 512;

// ------------------------------------------------------------- helpers

bool
sameStats(const ClassStats& a, const ClassStats& b)
{
    if (a.instructions() != b.instructions())
        return false;
    for (size_t i = 0; i < kNumPredictionClasses; ++i) {
        const auto c = static_cast<PredictionClass>(i);
        if (a.predictions(c) != b.predictions(c) ||
            a.mispredictions(c) != b.mispredictions(c))
            return false;
    }
    return true;
}

bool
sameConfusion(const BinaryConfidenceMetrics& a,
              const BinaryConfidenceMetrics& b)
{
    return a.highCorrect() == b.highCorrect() &&
           a.highWrong() == b.highWrong() &&
           a.lowCorrect() == b.lowCorrect() &&
           a.lowWrong() == b.lowWrong();
}

std::vector<std::string>
resolveTraces(const std::string& set)
{
    std::vector<std::string> out;
    std::string error;
    if (!resolveTraceSpecs({set}, out, error))
        fatal("perfbench: " + error);
    return out;
}

std::vector<uint8_t>
snapshotOrDie(const GradedPredictor& p)
{
    StateWriter w;
    std::string error;
    if (!p.snapshot(w, error))
        fatal("perfbench: snapshot: " + error);
    return w.take();
}

void
dieOn(const Err& e)
{
    if (e.failed())
        fatal("perfbench: " + e.message());
}

/** Time one ServingEngine::serve() call under a bench span. */
ServeResult
timedServe(ServingEngine& engine, const std::vector<StreamDesc>& streams,
           uint64_t span_id, RepResult& rep)
{
    ServeResult out;
    std::string error;
    TAGECON_SPAN("bench.serve", span_id);
    const uint64_t cpu_start = processCpuNanos();
    const uint64_t start = wallclock::monotonicNanos();
    if (!engine.serve(streams, out, error))
        fatal("perfbench: serve: " + error);
    rep.wallSeconds +=
        wallclock::secondsBetween(start, wallclock::monotonicNanos());
    rep.cpuSeconds +=
        static_cast<double>(processCpuNanos() - cpu_start) / 1e9;
    return out;
}

/**
 * Serve chunks of @p src through @p p the way runTrace() and a serve
 * turn do — next() into a chunk, predictMany(), then ClassStats and
 * BinaryConfidenceMetrics record — timing each layer call. Stops
 * after @p limit records or at exhaustion; returns records served.
 */
uint64_t
probeServe(TraceSource& src, GradedPredictor& p, uint64_t id,
           uint64_t limit, Samples& next_samples, UnitCosts& c)
{
    std::vector<uint64_t> pcs(kChunk), insns(kChunk);
    std::vector<uint8_t> taken(kChunk);
    std::vector<Prediction> preds(kChunk);
    ClassStats stats;
    BinaryConfidenceMetrics confusion;
    uint64_t served = 0;
    while (served < limit) {
        const size_t want =
            static_cast<size_t>(std::min<uint64_t>(kChunk, limit - served));
        size_t n = 0;
        timed("bench.trace.next", id, next_samples, [&] {
            BranchRecord rec;
            while (n < want && src.next(rec)) {
                pcs[n] = rec.pc;
                taken[n] = rec.taken ? 1 : 0;
                insns[n] = uint64_t{rec.instructionsBefore} + 1;
                ++n;
            }
            return n;
        });
        if (n == 0)
            break;
        timed("bench.tage.predict_many", id, c.predict, [&] {
            p.predictMany(std::span<const uint64_t>(pcs.data(), n),
                          std::span<const uint8_t>(taken.data(), n),
                          std::span<Prediction>(preds.data(), n));
            return n;
        });
        timed("bench.core.record", id, c.record, [&] {
            for (size_t k = 0; k < n; ++k) {
                const bool wrong = preds[k].taken != (taken[k] != 0);
                stats.record(preds[k].cls, wrong, insns[k]);
                confusion.record(
                    preds[k].confidence == ConfidenceLevel::High, !wrong);
            }
            return n;
        });
        served += n;
        if (n < want)
            break;
    }
    if (stats.totalPredictions() != served ||
        confusion.total() != served)
        fatal("perfbench: probe lost predictions");
    return served;
}

std::unique_ptr<TraceSource>
probeOpen(const std::string& trace, uint64_t branches, uint64_t salt,
          uint64_t id, UnitCosts& c)
{
    std::unique_ptr<TraceSource> src;
    timed("bench.trace.open", id, c.open, [&] {
        auto opened = openTraceSource(trace, branches, salt);
        dieOn(opened.ok() ? Err{} : opened.error());
        src = opened.take();
        return 1;
    });
    return src;
}

std::unique_ptr<GradedPredictor>
probeMake(const std::string& spec, uint64_t id, UnitCosts& c)
{
    std::unique_ptr<GradedPredictor> p;
    timed("bench.sim.make_predictor", id, c.make, [&] {
        p = makePredictor(spec);
        return 1;
    });
    return p;
}

/** Park @p p as snapshot bytes (and record the state size). */
std::vector<uint8_t>
probeSnapshot(const GradedPredictor& p, uint64_t id, UnitCosts& c)
{
    std::vector<uint8_t> blob;
    timed("bench.tage.snapshot", id, c.snapshot, [&] {
        blob = snapshotOrDie(p);
        return 1;
    });
    c.stateBytes = blob.size();
    return blob;
}

void
probeRestore(GradedPredictor& p, const std::vector<uint8_t>& blob,
             uint64_t id, UnitCosts& c)
{
    timed("bench.tage.restore", id, c.restore, [&] {
        StateReader in(blob);
        std::string error;
        if (!p.restore(in, error) || !in.exhausted())
            fatal("perfbench: restore: " + error);
        return 1;
    });
}

/** State size and snapshot/restore cost of warmed predictor @p p. */
void
probeSnapshotRestore(const std::string& spec, const GradedPredictor& p,
                     UnitCosts& c)
{
    const std::vector<uint8_t> blob = probeSnapshot(p, 0, c);
    probeRestore(*makePredictor(spec), blob, 0, c);
}

void
probeEncode(const GradedPredictor& p, const std::string& spec,
            const StreamDesc& d, uint64_t consumed, std::vector<uint8_t>& blob,
            UnitCosts& c)
{
    timed("bench.ckpt.encode", d.id, c.ckEncode, [&] {
        dieOn(encodeStreamCheckpoint(p, spec, d.id, d.trace, consumed,
                                     blob));
        return 1;
    });
}

double
counterPerRep(const char* name, unsigned reps)
{
    return static_cast<double>(counterValue(name)) / reps;
}

// --------------------------------------------------------- sweep_paper

/**
 * runSweep of the paper's TAGE configurations over all 40 synthetic
 * profiles: the shape of every figure/table bench.
 */
class SweepPaper : public Workload
{
  public:
    static constexpr uint64_t kBranches = 100000;
    static constexpr size_t kCheckedCells = 4;

    explicit SweepPaper(const RunConfig& cfg) : cfg_(cfg) {}

    void
    setup() override
    {
        plan_ = SweepPlan::over({"tage64k+sfc", "tage64k+prob7+sfc"},
                                resolveTraces("all"), kBranches,
                                mixSeed(cfg_.seed));
        std::string error;
        if (!plan_.validate(&error))
            fatal("perfbench: " + error);
        cells_ = plan_.cells();
    }

    RepResult
    runRep() override
    {
        RepResult r;
        {
            TAGECON_SPAN("bench.sweep", rep_);
            SweepOptions opt;
            opt.jobs = cfg_.jobs;
            const uint64_t cpu_start = processCpuNanos();
            const uint64_t start = wallclock::monotonicNanos();
            results_ = runSweep(plan_, opt);
            r.wallSeconds = wallclock::secondsBetween(
                start, wallclock::monotonicNanos());
            r.cpuSeconds =
                static_cast<double>(processCpuNanos() - cpu_start) / 1e9;
        }
        ++rep_;
        ClassStats pooled;
        for (const RunResult& rr : results_) {
            pooled.merge(rr.stats);
            r.predictions += rr.stats.totalPredictions();
            ++r.attempted;
            if (rr.stats.totalPredictions() != kBranches)
                ++r.failed;
        }
        r.mpki = pooled.mpki();
        return r;
    }

    std::vector<Check>
    check() override
    {
        // Parallel cells must equal serial runSweepCell on sampled cells.
        std::vector<Check> out;
        for (size_t k = 0; k < kCheckedCells; ++k) {
            const size_t i = mixSeed(cfg_.seed + k) % cells_.size();
            const RunResult serial = runSweepCell(cells_[i]);
            const RunResult& par = results_[i];
            Check c;
            c.name = "sweep_paper: cell " + std::to_string(i) +
                     " parallel == serial runSweepCell";
            c.ok = sameStats(serial.stats, par.stats) &&
                   sameConfusion(serial.confusion, par.confusion) &&
                   serial.allocations == par.allocations;
            c.detail = cells_[i].spec + " x " + cells_[i].trace;
            out.push_back(c);
        }
        return out;
    }

    LayerCounts
    counts(unsigned reps) const override
    {
        LayerCounts n;
        n.traceOpens = counterPerRep("trace.sources.opened", reps);
        n.makePredictor = counterPerRep("sweep.cells.executed", reps);
        for (const RunResult& rr : results_) {
            n.predictions += rr.stats.totalPredictions();
            n.allocations += rr.allocations;
        }
        n.genRecords = n.predictions;
        n.lifetimePredictions = n.predictions;
        return n;
    }

    void
    probe(UnitCosts& c, unsigned part, unsigned parts) override
    {
        // Cells in plan order: the open/make/serve runSweepCell runs.
        std::unique_ptr<GradedPredictor> p;
        for (size_t i = part; i < cells_.size(); i += parts) {
            const SweepCell& cell = cells_[i];
            auto src = probeOpen(cell.trace, cell.branches, cell.seedSalt,
                                 i, c);
            p = probeMake(cell.spec, i, c);
            probeServe(*src, *p, i, cell.branches, c.gen, c);
        }
        probeSnapshotRestore(cells_.back().spec, *p, c);
    }

    unsigned
    workers() const override
    {
        return static_cast<unsigned>(
            std::min<size_t>(cfg_.jobs, cells_.size()));
    }

  private:
    RunConfig cfg_;
    SweepPlan plan_;
    std::vector<SweepCell> cells_;
    std::vector<RunResult> results_;
    uint64_t rep_ = 0;
};

// --------------------------------------------------------- serve_churn

/**
 * Thousands of short streams over a bounded pool: nearly every turn
 * evicts (snapshot), rebuilds (tryMakePredictor) and restores.
 */
class ServeChurn : public Workload
{
  public:
    static constexpr uint64_t kStreams = 2000;
    static constexpr uint64_t kBranches = 2000;
    static constexpr unsigned kPool = 8;
    static constexpr unsigned kBatch = 512;

    explicit ServeChurn(const RunConfig& cfg) : cfg_(cfg) {}

    static ServeOptions
    options(unsigned jobs)
    {
        ServeOptions o;
        o.spec = "tage64k+sfc";
        o.jobs = jobs;
        o.poolPerShard = kPool;
        o.batch = kBatch;
        return o;
    }

    void
    setup() override
    {
        streams_ = StreamSet::roundRobin(kStreams, resolveTraces("cbp1"),
                                         kBranches, mixSeed(cfg_.seed));
        engine_ = std::make_unique<ServingEngine>(options(cfg_.jobs));
        std::string error;
        if (!engine_->validate(&error))
            fatal("perfbench: " + error);
    }

    RepResult
    runRep() override
    {
        RepResult r;
        last_ = timedServe(*engine_, streams_, rep_++, r);
        r.predictions = last_.totalBranches;
        r.mpki = last_.aggregate.mpki();
        r.attempted = last_.perStream.size();
        r.failed = last_.streamsQuarantined;
        r.p50Ns = last_.timing.p50LatencyNs;
        r.p99Ns = last_.timing.p99LatencyNs;
        r.latencySamples = last_.timing.latencySamples;
        return r;
    }

    std::vector<Check>
    check() override
    {
        // Per-stream results must not depend on --jobs.
        ServingEngine serial(options(1));
        ServeResult ref;
        std::string error;
        Check c;
        c.name = "serve_churn: per-stream ClassStats at jobs=1 == jobs=" +
                 std::to_string(cfg_.jobs);
        if (!serial.serve(streams_, ref, error)) {
            c.detail = error;
            return {c};
        }
        size_t diffs = 0;
        for (size_t i = 0; i < streams_.size(); ++i) {
            const StreamResult& a = ref.perStream[i];
            const StreamResult& b = last_.perStream[i];
            if (a.status != b.status ||
                a.branchesServed != b.branchesServed ||
                a.allocations != b.allocations ||
                !sameStats(a.stats, b.stats) ||
                !sameConfusion(a.confusion, b.confusion))
                ++diffs;
        }
        c.ok = diffs == 0 && ref.perStream.size() == streams_.size();
        c.detail = std::to_string(diffs) + " of " +
                   std::to_string(streams_.size()) + " streams differ";
        return {c};
    }

    LayerCounts
    counts(unsigned reps) const override
    {
        LayerCounts n;
        n.traceOpens = counterPerRep("trace.sources.opened", reps);
        n.turns = counterPerRep("serve.turns", reps);
        n.admissions = counterPerRep("serve.pool.admissions", reps);
        n.evictions = counterPerRep("serve.pool.evictions", reps);
        n.predictions = counterPerRep("serve.predictions", reps);
        n.genRecords = n.predictions;
        n.snapshots = n.evictions;
        // Every admission builds a predictor; all but a stream's first
        // restore a parked snapshot. serve() builds one more to report
        // storage bits.
        n.restores = n.admissions - n.traceOpens;
        n.makePredictor = n.admissions + 1;
        n.allocations = static_cast<double>(last_.totalAllocations);
        n.lifetimePredictions = static_cast<double>(last_.totalBranches);
        return n;
    }

    void
    probe(UnitCosts& c, unsigned part, unsigned parts) override
    {
        // Round-robin turns over every stream, as a shard serves them
        // with a pool far smaller than its members: each turn rebuilds
        // and restores the parked predictor, serves kBatch records and
        // parks it again, until the stream runs dry.
        struct Stream {
            std::unique_ptr<TraceSource> src;
            std::vector<uint8_t> parked;
            bool done = false;
        };
        const std::string& spec = engine_->options().spec;
        std::vector<Stream> states(streams_.size());
        size_t remaining = 0;
        for (size_t i = part; i < states.size(); i += parts)
            ++remaining;
        while (remaining > 0) {
            for (size_t i = part; i < states.size(); i += parts) {
                Stream& st = states[i];
                const StreamDesc& d = streams_[i];
                if (st.done)
                    continue;
                if (!st.src)
                    st.src = probeOpen(d.trace, d.branches, d.seedSalt,
                                       d.id, c);
                auto p = probeMake(spec, d.id, c);
                if (!st.parked.empty())
                    probeRestore(*p, st.parked, d.id, c);
                if (probeServe(*st.src, *p, d.id, kBatch, c.gen, c) <
                    kBatch) {
                    st = Stream{};
                    st.done = true;
                    --remaining;
                    continue;
                }
                st.parked = probeSnapshot(*p, d.id, c);
            }
        }
    }

    unsigned
    workers() const override
    {
        return cfg_.jobs;
    }

  private:
    RunConfig cfg_;
    std::vector<StreamDesc> streams_;
    std::unique_ptr<ServingEngine> engine_;
    ServeResult last_;
    uint64_t rep_ = 0;
};

// -------------------------------------------------------- serve_resume

/**
 * A handful of long file-backed streams, checkpointed at half length
 * (phase A) and resumed from the checkpoints to full length (phase B).
 */
class ServeResume : public Workload
{
  public:
    static constexpr uint64_t kStreams = 8;
    static constexpr uint64_t kBranches = 600000;

    explicit ServeResume(const RunConfig& cfg)
        : cfg_(cfg), inputDir_(cfg.outDir + "/inputs"),
          ckptDir_(inputDir_ + "/ckpt"), probeDir_(inputDir_ + "/probe")
    {
    }

    ServeOptions
    options() const
    {
        ServeOptions o;
        o.spec = "tage64k+sfc";
        o.jobs = cfg_.jobs;
        o.poolPerShard = 0;
        o.batch = 512;
        return o;
    }

    void
    setup() override
    {
        namespace fs = std::filesystem;
        fs::remove_all(inputDir_);
        fs::create_directories(ckptDir_);
        fs::create_directories(probeDir_);

        // Materialize one .tcbt per stream from evenly spaced profiles,
        // then read each back so the timed phases hit the page cache.
        const std::vector<std::string> profiles = resolveTraces("all");
        half_.clear();
        full_.clear();
        for (uint64_t i = 0; i < kStreams; ++i) {
            const std::string& profile =
                profiles[i * profiles.size() / kStreams];
            const std::string path =
                inputDir_ + "/stream-" + std::to_string(i) + ".tcbt";
            auto src = makeTraceSource(profile, kBranches,
                                       mixSeed(cfg_.seed) + i);
            if (writeTraceFile(path, *src) != kBranches)
                fatal("perfbench: short trace file " + path);
            std::ifstream warm(path, std::ios::binary);
            std::vector<char> buf(1 << 16);
            while (warm.read(buf.data(), buf.size())) {
            }
            half_.push_back({i, "file:" + path, kBranches / 2, 0});
            full_.push_back({i, "file:" + path, kBranches, 0});
        }

        ServeOptions a = options();
        a.checkpointDir = ckptDir_;
        ServeOptions b = options();
        b.restoreDir = ckptDir_;
        b.computeDigests = true;
        phaseA_ = std::make_unique<ServingEngine>(a);
        phaseB_ = std::make_unique<ServingEngine>(b);
        std::string error;
        if (!phaseA_->validate(&error) || !phaseB_->validate(&error))
            fatal("perfbench: " + error);
    }

    RepResult
    runRep() override
    {
        RepResult r;
        lastA_ = timedServe(*phaseA_, half_, 2 * rep_, r);
        lastB_ = timedServe(*phaseB_, full_, 2 * rep_ + 1, r);
        ++rep_;
        r.predictions = lastA_.totalBranches + lastB_.totalBranches;
        ClassStats pooled = lastA_.aggregate;
        pooled.merge(lastB_.aggregate);
        r.mpki = pooled.mpki();
        r.attempted = lastA_.perStream.size() + lastB_.perStream.size();
        r.failed = lastA_.streamsQuarantined + lastB_.streamsQuarantined;
        // Sample-weighted mean of the two phases' percentiles.
        const double na = static_cast<double>(lastA_.timing.latencySamples);
        const double nb = static_cast<double>(lastB_.timing.latencySamples);
        r.latencySamples = lastA_.timing.latencySamples +
                           lastB_.timing.latencySamples;
        if (r.latencySamples > 0) {
            r.p50Ns = (lastA_.timing.p50LatencyNs * na +
                       lastB_.timing.p50LatencyNs * nb) / (na + nb);
            r.p99Ns = (lastA_.timing.p99LatencyNs * na +
                       lastB_.timing.p99LatencyNs * nb) / (na + nb);
        }
        return r;
    }

    std::vector<Check>
    check() override
    {
        // Resumed state must equal a cold single-phase serve.
        ServeOptions o = options();
        o.computeDigests = true;
        ServingEngine cold(o);
        ServeResult ref;
        std::string error;
        Check digests;
        digests.name = "serve_resume: phase-B state digests == cold "
                       "single-phase serve";
        Check stats;
        stats.name = "serve_resume: phase A + phase B stats == cold serve";
        Check resumed;
        resumed.name = "serve_resume: every phase-B stream resumed at " +
                       std::to_string(kBranches / 2);
        if (!cold.serve(full_, ref, error)) {
            digests.detail = error;
            return {digests, stats, resumed};
        }
        size_t diffs = 0;
        size_t late = 0;
        for (size_t i = 0; i < full_.size(); ++i) {
            const StreamResult& b = lastB_.perStream[i];
            if (b.status != StreamStatus::Ok || b.stateDigest == 0 ||
                b.stateDigest != ref.perStream[i].stateDigest)
                ++diffs;
            if (b.resumedAt != kBranches / 2)
                ++late;
        }
        digests.ok = diffs == 0;
        digests.detail = std::to_string(diffs) + " of " +
                         std::to_string(full_.size()) + " streams differ";
        ClassStats pooled = lastA_.aggregate;
        pooled.merge(lastB_.aggregate);
        stats.ok = sameStats(pooled, ref.aggregate);
        resumed.ok = late == 0;
        resumed.detail = std::to_string(late) + " streams did not resume";
        return {digests, stats, resumed};
    }

    LayerCounts
    counts(unsigned reps) const override
    {
        LayerCounts n;
        n.traceOpens = counterPerRep("trace.sources.opened", reps);
        n.turns = counterPerRep("serve.turns", reps);
        n.admissions = counterPerRep("serve.pool.admissions", reps);
        n.evictions = counterPerRep("serve.pool.evictions", reps);
        n.predictions = counterPerRep("serve.predictions", reps);
        n.ckptEncodes = counterPerRep("ckpt.encodes", reps);
        n.ckptWrites = counterPerRep("ckpt.writes", reps);
        n.ckptReads = counterPerRep("ckpt.reads", reps);
        n.ckptDecodes = counterPerRep("ckpt.decodes", reps);
        n.ckptBytes = counterPerRep("ckpt.bytes.written", reps) +
                      counterPerRep("ckpt.bytes.read", reps);
        n.ckptRestores = n.ckptDecodes;
        // Phase B re-reads the prefix phase A served before continuing.
        uint64_t skipped = 0;
        for (const StreamResult& s : lastB_.perStream)
            skipped += s.resumedAt;
        n.readRecords = n.predictions + static_cast<double>(skipped);
        n.makePredictor = n.admissions + 2;
        n.allocations = static_cast<double>(lastB_.totalAllocations);
        n.lifetimePredictions =
            static_cast<double>(lastB_.totalBranches + skipped);
        return n;
    }

    void
    probe(UnitCosts& c, unsigned part, unsigned parts) override
    {
        // Each stream's two phases: A opens, builds, serves the first
        // half from the file and encodes + writes the checkpoint; B
        // opens, builds, reads + decodes + restores the checkpoint,
        // skips the served prefix, serves the rest and encodes the
        // final state for its digest.
        const std::string& spec = phaseA_->options().spec;
        std::unique_ptr<GradedPredictor> p;
        for (size_t i = part; i < half_.size(); i += parts) {
            const StreamDesc& a = half_[i];
            auto src = probeOpen(a.trace, a.branches, 0, a.id, c);
            p = probeMake(spec, a.id, c);
            const uint64_t served =
                probeServe(*src, *p, a.id, a.branches, c.read, c);
            std::vector<uint8_t> blob;
            probeEncode(*p, spec, a, served, blob, c);
            const std::string path =
                probeDir_ + "/" + streamCheckpointFileName(a.id);
            timed("bench.ckpt.write", a.id, c.ckWrite, [&] {
                dieOn(writeCheckpointFile(path, blob));
                return 1;
            });

            const StreamDesc& b = full_[i];
            src = probeOpen(b.trace, b.branches, 0, b.id, c);
            p = probeMake(spec, b.id, c);
            std::vector<uint8_t> back;
            timed("bench.ckpt.read", b.id, c.ckRead, [&] {
                dieOn(readCheckpointFile(path, back));
                return 1;
            });
            Checkpoint ck;
            timed("bench.ckpt.decode", b.id, c.ckDecode, [&] {
                dieOn(decodeCheckpoint(back, ck));
                return 1;
            });
            timed("bench.ckpt.restore", b.id, c.ckRestore, [&] {
                dieOn(restoreFromCheckpoint(ck, *p, spec));
                return 1;
            });
            timed("bench.trace.next", b.id, c.read, [&] {
                BranchRecord rec;
                uint64_t n = 0;
                while (n < ck.consumed && src->next(rec))
                    ++n;
                return n;
            });
            const uint64_t rest =
                probeServe(*src, *p, b.id, b.branches, c.read, c);
            probeEncode(*p, spec, b, ck.consumed + rest, blob, c);
        }
        probeSnapshotRestore(spec, *p, c);
    }

    unsigned
    workers() const override
    {
        return static_cast<unsigned>(
            std::min<uint64_t>(cfg_.jobs, kStreams));
    }

    void
    cleanup() override
    {
        std::filesystem::remove_all(inputDir_);
    }

  private:
    RunConfig cfg_;
    std::string inputDir_;
    std::string ckptDir_;
    std::string probeDir_;
    std::vector<StreamDesc> half_;
    std::vector<StreamDesc> full_;
    std::unique_ptr<ServingEngine> phaseA_;
    std::unique_ptr<ServingEngine> phaseB_;
    ServeResult lastA_;
    ServeResult lastB_;
    uint64_t rep_ = 0;
};

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep_paper", "serve_churn", "serve_resume"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunConfig& cfg)
{
    if (cfg.workload == "sweep_paper")
        return std::make_unique<SweepPaper>(cfg);
    if (cfg.workload == "serve_churn")
        return std::make_unique<ServeChurn>(cfg);
    if (cfg.workload == "serve_resume")
        return std::make_unique<ServeResume>(cfg);
    return nullptr;
}

} // namespace perfbench
