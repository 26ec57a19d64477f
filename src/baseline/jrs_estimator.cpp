#include "baseline/jrs_estimator.hpp"

#include <algorithm>

#include "util/bit_utils.hpp"
#include "util/logging.hpp"
#include "util/saturating_counter.hpp"

namespace tagecon {

JrsEstimator::JrsEstimator(std::unique_ptr<GradedPredictor> host,
                           Config cfg)
    : host_(std::move(host)), cfg_(cfg)
{
    if (cfg_.logEntries < 1 || cfg_.logEntries > 24)
        fatal("JRS: bad table size");
    if (cfg_.ctrBits < 1 || cfg_.ctrBits > 16)
        fatal("JRS: bad counter width");
    if (cfg_.threshold > ((1u << cfg_.ctrBits) - 1))
        fatal("JRS: threshold exceeds counter range");
    if (cfg_.historyBits < 1 || cfg_.historyBits > 32)
        fatal("JRS: bad history length");
    table_.resize(size_t{1} << cfg_.logEntries);
}

uint32_t
JrsEstimator::indexFor(uint64_t pc, bool predicted_taken) const
{
    uint64_t idx = pc ^ (history_ & maskBits(cfg_.historyBits));
    if (cfg_.indexWithPrediction)
        idx = (idx << 1) | (predicted_taken ? 1 : 0);
    return static_cast<uint32_t>(idx & maskBits(cfg_.logEntries));
}

Prediction
JrsEstimator::predict(uint64_t pc)
{
    Prediction p = host_->predict(pc);
    p.confidence = table_[indexFor(pc, p.taken)] >= cfg_.threshold
                       ? ConfidenceLevel::High
                       : ConfidenceLevel::Low;
    p.cls = representativeClass(p.confidence);
    return p;
}

void
JrsEstimator::update(uint64_t pc, const Prediction& p, bool taken)
{
    uint16_t& ctr = table_[indexFor(pc, p.taken)];
    // Resetting counter: saturating increment when correct, zero on a
    // misprediction.
    ctr = p.taken == taken ? static_cast<uint16_t>(
                                 packed::unsignedInc(ctr, cfg_.ctrBits))
                           : uint16_t{0};
    history_ = (history_ << 1) | (taken ? 1 : 0);
    host_->update(pc, p, taken);
}

uint64_t
JrsEstimator::tableBits() const
{
    return (uint64_t{1} << cfg_.logEntries) *
           static_cast<uint64_t>(cfg_.ctrBits);
}

uint64_t
JrsEstimator::storageBits() const
{
    return host_->storageBits() + tableBits();
}

void
JrsEstimator::reset()
{
    host_->reset();
    std::fill(table_.begin(), table_.end(), uint16_t{0});
    history_ = 0;
}

bool
JrsEstimator::snapshot(StateWriter& out, std::string& error) const
{
    (void)out;
    error = stateIoError();
    return false;
}

bool
JrsEstimator::restore(StateReader& in, std::string& error)
{
    (void)in;
    error = stateIoError();
    return false;
}

std::string
JrsEstimator::stateIoError() const
{
    return name() + ": checkpoint/restore is not supported with the "
                    "stateful '" +
           token() + "' estimator";
}

std::string
JrsEstimator::token() const
{
    return cfg_.indexWithPrediction ? "jrsg" : "jrs";
}

std::string
JrsEstimator::defaultName() const
{
    return host_->name() + "+" + token();
}

} // namespace tagecon
