#include "sim/experiment.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace tagecon {

namespace {

/** Records per predictMany() call. */
constexpr size_t kChunk = 512;

} // namespace

ReplayStep::ReplayStep()
    : pcs_(kChunk), taken_(kChunk), insns_(kChunk), preds_(kChunk)
{
}

ReplayOutcome
ReplayStep::run(TraceSource& trace, GradedPredictor& predictor,
                uint64_t limit, ClassStats& stats,
                BinaryConfidenceMetrics& confusion,
                ObserverList* observers)
{
    ReplayOutcome outcome;
    BranchRecord rec;
    while (outcome.served < limit) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(kChunk, limit - outcome.served));
        size_t n = 0;
        while (n < want && trace.next(rec)) {
            pcs_[n] = rec.pc;
            taken_[n] = rec.taken ? 1 : 0;
            insns_[n] = uint64_t{rec.instructionsBefore} + 1;
            ++n;
        }
        if (n == 0)
            break;
        predictor.predictMany(std::span<const uint64_t>(pcs_.data(), n),
                              std::span<const uint8_t>(taken_.data(), n),
                              std::span<Prediction>(preds_.data(), n));
        for (size_t k = 0; k < n; ++k) {
            const bool taken = taken_[k] != 0;
            const bool mispredicted = preds_[k].taken != taken;
            stats.record(preds_[k].cls, mispredicted, insns_[k]);
            confusion.record(preds_[k].confidence == ConfidenceLevel::High,
                             !mispredicted);
            if (observers == nullptr)
                continue;
            const ObservedPrediction observed{pcs_[k],   preds_[k],
                                              taken,     mispredicted,
                                              insns_[k], outcome.served + k};
            for (auto& observer : *observers)
                observer->onPrediction(observed);
        }
        outcome.served += n;
        if (n < want)
            break;
    }
    if (const Err* e = trace.lastError())
        outcome.error = *e;
    return outcome;
}

RunResult
runTrace(TraceSource& trace, GradedPredictor& predictor,
         const AnalysisConfig& analysis)
{
    RunResult result;
    result.traceName = trace.name();
    result.configName = predictor.name();

    ObserverList observers = buildObservers(analysis);
    ReplayStep step;
    ReplayOutcome outcome =
        step.run(trace, predictor, std::numeric_limits<uint64_t>::max(),
                 result.stats, result.confusion,
                 observers.empty() ? nullptr : &observers);
    for (auto& observer : observers)
        observer->finish(result.analysis);
    result.traceError = std::move(outcome.error);

    result.finalLog2Prob = predictor.satLog2Prob();
    result.allocations = predictor.allocations();
    result.storageBits = predictor.storageBits();
    return result;
}

} // namespace tagecon
