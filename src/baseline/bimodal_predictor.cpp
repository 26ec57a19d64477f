#include "baseline/bimodal_predictor.hpp"

#include "util/bit_utils.hpp"
#include "util/logging.hpp"

namespace tagecon {

BimodalPredictor::BimodalPredictor(int log_entries, int ctr_bits)
    : logEntries_(log_entries), ctrBits_(ctr_bits)
{
    if (log_entries < 1 || log_entries > 24)
        fatal("bimodal: bad table size");
    if (ctr_bits < 1 || ctr_bits > 8)
        fatal("bimodal: bad counter width");
    table_.assign(size_t{1} << log_entries,
                  static_cast<uint8_t>(1u << (ctr_bits - 1)));
}

uint32_t
BimodalPredictor::indexFor(uint64_t pc) const
{
    return static_cast<uint32_t>(pc & maskBits(logEntries_));
}

bool
BimodalPredictor::predict(uint64_t pc)
{
    return packed::unsignedTaken(table_[indexFor(pc)], ctrBits_);
}

void
BimodalPredictor::update(uint64_t pc, bool taken)
{
    uint8_t& ctr = table_[indexFor(pc)];
    ctr = static_cast<uint8_t>(packed::unsignedUpdate(ctr, ctrBits_, taken));
}

uint64_t
BimodalPredictor::storageBits() const
{
    return (uint64_t{1} << logEntries_) * static_cast<uint64_t>(ctrBits_);
}

bool
BimodalPredictor::highConfidence(uint64_t pc) const
{
    return !packed::unsignedWeak(table_[indexFor(pc)], ctrBits_);
}

unsigned
BimodalPredictor::counterFor(uint64_t pc) const
{
    return table_[indexFor(pc)];
}

void
BimodalPredictor::saveState(StateWriter& out) const
{
    out.u8(static_cast<uint8_t>(logEntries_));
    out.u8(static_cast<uint8_t>(ctrBits_));
    out.bytes(table_.data(), table_.size());
}

bool
BimodalPredictor::loadState(StateReader& in, std::string& error)
{
    if (in.u8() != static_cast<uint8_t>(logEntries_) ||
        in.u8() != static_cast<uint8_t>(ctrBits_)) {
        error = in.ok() ? "bimodal state was written with a different "
                          "geometry"
                        : "bimodal state is truncated";
        return false;
    }
    std::vector<uint8_t> table(table_.size());
    if (!in.bytes(table.data(), table.size())) {
        error = "bimodal state is truncated";
        return false;
    }
    table_ = std::move(table);
    return true;
}

} // namespace tagecon
