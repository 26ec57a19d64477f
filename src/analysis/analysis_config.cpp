#include "analysis/analysis_config.hpp"

#include "analysis/observers.hpp"
#include "sim/spec_params.hpp"
#include "util/text.hpp"

namespace tagecon {

namespace {

/** The selectable observers, sorted. */
const char* const kObserverNames[] = {"burst", "histogram", "intervals",
                                      "perbranch", "warmup"};

/** Split "name[:params]" and parse the parameter list. */
bool
splitObserverSpec(const std::string& item, std::string& name,
                  SpecParams& params, std::string& error)
{
    const std::string lowered = toLower(item);
    const size_t colon = lowered.find(':');
    name = lowered.substr(0, colon);
    if (name.empty()) {
        error = "malformed analysis spec '" + item + "': empty name";
        return false;
    }
    if (colon == std::string::npos)
        return true;
    const std::string param_text = lowered.substr(colon + 1);
    if (!SpecParams::parse(param_text, params, error)) {
        error = "analysis spec '" + item + "': " + error;
        return false;
    }
    return true;
}

/** Reject unread keys / malformed values once @p p has been read. */
bool
checkConsumed(const std::string& item, const SpecParams& p,
              std::string& error)
{
    if (!p.error().empty()) {
        error = "analysis spec '" + item + "': " + p.error();
        return false;
    }
    const auto unknown = p.unrecognizedKeys();
    if (!unknown.empty()) {
        error = "analysis spec '" + item + "': unknown parameter '" +
                unknown.front() + "'";
        return false;
    }
    return true;
}

} // namespace

bool
parseAnalysisSpecs(const std::vector<std::string>& items,
                   AnalysisConfig& out, std::string& error)
{
    for (const auto& item : items) {
        std::string name;
        SpecParams params;
        if (!splitObserverSpec(item, name, params, error))
            return false;

        if (name == "intervals") {
            out.intervals = true;
            out.intervalLength = static_cast<uint64_t>(params.getInt(
                "len", static_cast<int64_t>(out.intervalLength), 1,
                int64_t{1} << 40));
        } else if (name == "histogram") {
            out.histogram = true;
        } else if (name == "burst") {
            out.burst = true;
            out.burstMaxDistance = static_cast<uint64_t>(params.getInt(
                "max", static_cast<int64_t>(out.burstMaxDistance), 1,
                1 << 20));
        } else if (name == "perbranch") {
            out.perBranch = true;
            out.perBranchTopN = static_cast<uint64_t>(params.getInt(
                "top", static_cast<int64_t>(out.perBranchTopN), 1,
                1 << 20));
        } else if (name == "warmup") {
            out.warmup = true;
            out.warmupIntervalLength = static_cast<uint64_t>(
                params.getInt(
                    "len",
                    static_cast<int64_t>(out.warmupIntervalLength), 1,
                    int64_t{1} << 40));
            out.warmupThresholdMkp = static_cast<double>(params.getInt(
                "mkp",
                static_cast<int64_t>(out.warmupThresholdMkp), 1,
                1000));
        } else {
            error = "unknown analysis observer '" + name + "' (known: ";
            bool first = true;
            for (const auto& known : registeredRunObservers()) {
                error += (first ? "" : ", ") + known;
                first = false;
            }
            error += ")";
            return false;
        }
        if (!checkConsumed(item, params, error))
            return false;
    }
    return true;
}

ObserverList
buildObservers(const AnalysisConfig& config)
{
    ObserverList observers;
    if (config.intervals)
        observers.push_back(
            std::make_unique<IntervalObserver>(config.intervalLength));
    if (config.histogram)
        observers.push_back(
            std::make_unique<ConfidenceHistogramObserver>());
    if (config.burst)
        observers.push_back(
            std::make_unique<BurstObserver>(config.burstMaxDistance));
    if (config.perBranch)
        observers.push_back(
            std::make_unique<PerBranchObserver>(config.perBranchTopN));
    if (config.warmup)
        observers.push_back(std::make_unique<WarmupObserver>(
            config.warmupIntervalLength, config.warmupThresholdMkp));
    return observers;
}

std::vector<std::string>
registeredRunObservers()
{
    return {std::begin(kObserverNames), std::end(kObserverNames)};
}

} // namespace tagecon
