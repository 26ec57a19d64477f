#include "tage/tage_config.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace tagecon {

std::vector<int>
TageConfig::geometricHistories(int min_hist, int max_hist, int n)
{
    TAGECON_ASSERT(n >= 1, "need at least one tagged table");
    TAGECON_ASSERT(min_hist >= 1 && max_hist >= min_hist,
                   "bad history bounds");
    std::vector<int> lengths(static_cast<size_t>(n));
    if (n == 1) {
        lengths[0] = max_hist;
        return lengths;
    }
    const double ratio =
        std::pow(static_cast<double>(max_hist) / min_hist,
                 1.0 / static_cast<double>(n - 1));
    double l = min_hist;
    int prev = 0;
    for (int i = 0; i < n; ++i) {
        int li = static_cast<int>(l + 0.5);
        // Keep the series strictly increasing even after rounding.
        li = std::max(li, prev + 1);
        lengths[static_cast<size_t>(i)] = li;
        prev = li;
        l *= ratio;
    }
    lengths.back() = max_hist;
    return lengths;
}

TageConfig
TageConfig::fromGeometry(std::string name, const TageGeometry& g)
{
    TageConfig cfg;
    cfg.name = std::move(name);
    cfg.logBimodalEntries = g.logBimodalEntries;
    const auto lengths = TageConfig::geometricHistories(
        g.minHistory, g.maxHistory, g.numTables);
    cfg.tagged.reserve(static_cast<size_t>(g.numTables));
    for (int i = 0; i < g.numTables; ++i) {
        cfg.tagged.push_back(TageTableConfig{
            g.logEntries, g.tagBits, lengths[static_cast<size_t>(i)]});
    }
    cfg.validate();
    return cfg;
}

TageGeometry
TageConfig::geometry16K()
{
    // 1024x2b bimodal + 4 x 256 x (8b tag + 3b ctr + 2b u) = 15.0 Kbit.
    return TageGeometry{10, 4, 8, 8, 3, 80};
}

TageGeometry
TageConfig::geometry64K()
{
    // 4096x2b bimodal + 7 x 512 x (10+3+2) = 60.5 Kbit.
    return TageGeometry{12, 7, 9, 10, 5, 130};
}

TageGeometry
TageConfig::geometry256K()
{
    // 4096x2b bimodal + 8 x 2048 x (10+3+2) = 248 Kbit.
    return TageGeometry{12, 8, 11, 10, 5, 300};
}

TageConfig
TageConfig::small16K()
{
    return fromGeometry("16K", geometry16K());
}

TageConfig
TageConfig::medium64K()
{
    return fromGeometry("64K", geometry64K());
}

TageConfig
TageConfig::large256K()
{
    return fromGeometry("256K", geometry256K());
}

std::vector<TageConfig>
TageConfig::paperConfigs()
{
    return {small16K(), medium64K(), large256K()};
}

uint64_t
TageConfig::storageBits() const
{
    uint64_t bits = (uint64_t{1} << logBimodalEntries) *
                    static_cast<uint64_t>(bimodalCtrBits);
    for (const auto& t : tagged) {
        bits += (uint64_t{1} << t.logEntries) *
                static_cast<uint64_t>(t.tagBits + taggedCtrBits +
                                      usefulBits);
    }
    return bits;
}

int
TageConfig::maxHistoryLength() const
{
    int m = 0;
    for (const auto& t : tagged)
        m = std::max(m, t.historyLength);
    return m;
}

void
TageConfig::validate() const
{
    if (tagged.empty())
        fatal("TAGE config '" + name + "': needs at least one tagged table");
    if (tagged.size() > static_cast<size_t>(kMaxTaggedTables))
        fatal("TAGE config '" + name + "': too many tagged tables");
    if (logBimodalEntries < 1 || logBimodalEntries > 24)
        fatal("TAGE config '" + name + "': bad bimodal size");
    if (bimodalCtrBits < 1 || bimodalCtrBits > 8)
        fatal("TAGE config '" + name + "': bad bimodal counter width");
    if (taggedCtrBits < 2 || taggedCtrBits > 8)
        fatal("TAGE config '" + name + "': bad tagged counter width");
    if (usefulBits < 1 || usefulBits > 8)
        fatal("TAGE config '" + name + "': bad useful counter width");
    if (taggedCtrBits + usefulBits > 8)
        fatal("TAGE config '" + name + "': tagged ctr and useful "
              "counters must pack into one byte (ctr + u bits <= 8)");
    if (pathHistoryBits < 1 || pathHistoryBits > 32)
        fatal("TAGE config '" + name + "': bad path history width");
    if (useAltOnNaBits < 1 || useAltOnNaBits > 15)
        fatal("TAGE config '" + name +
              "': bad USE_ALT_ON_NA counter width");
    if (satLog2Prob > 15)
        fatal("TAGE config '" + name + "': satLog2Prob too large");
    int prev = 0;
    for (const auto& t : tagged) {
        if (t.logEntries < 1 || t.logEntries > 24)
            fatal("TAGE config '" + name + "': bad tagged table size");
        if (t.tagBits < 2 || t.tagBits > 16)
            fatal("TAGE config '" + name + "': bad tag width");
        if (t.historyLength <= prev)
            fatal("TAGE config '" + name +
                  "': history lengths must strictly increase");
        prev = t.historyLength;
    }
}

TageConfig
TageConfig::withProbabilisticSaturation(unsigned log2_prob) const
{
    TageConfig cfg = *this;
    cfg.probabilisticSaturation = true;
    cfg.satLog2Prob = log2_prob;
    return cfg;
}

} // namespace tagecon
