// The campaign section: one Table-4 supervised cell (32x32, Change RTT),
// one Table-5 SimCLR cell and one Table-3 GBT cell (flowpic input), run on
// one thread — a researcher's unit of work.
//
// run_cell() times the library's own runners (core::run_ucdavis_*; the GBT
// cell has no runner, so it is composed here from gbt::GbtClassifier exactly
// as bench/table3_ml_baseline does).  run_cell_traced() rebuilds the same
// cell from public functions with a span around every call into a layer;
// with identical seeds it must reproduce the runner's accuracies bit for bit.
#pragma once

#include "trace.hpp"

#include "fptc/core/campaign.hpp"

#include <array>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct CampaignSeeds {
    std::uint64_t data = 0;      ///< UCDAVIS19 generator seed
    std::uint64_t split = 0;     ///< 100-per-class split
    std::uint64_t train = 0;     ///< supervised train/validation + init
    std::uint64_t pretrain = 0;  ///< SimCLR pre-training
    std::uint64_t finetune = 0;  ///< SimCLR fine-tuning
    std::uint64_t gbt = 0;       ///< GBT 80% subsample
};

/// The first cell of each table (split 0, seed 0 of bench/table3, table4 and
/// table5) on the generator's default dataset.  These do not move with the
/// benchmark seed.  Between splits, a cell's human accuracy moves by 15-20 %
/// (the paper's own intervals are that wide), which would drown a
/// regression.  Fixed, every accuracy is bit-reproducible, so any change in
/// it is a change in the arithmetic.
inline constexpr CampaignSeeds kCampaignSeeds{
    .data = 19, .split = 1000, .train = 50, .pretrain = 70, .finetune = 90, .gbt = 0};

struct CellResult {
    double wall_s = 0.0;
    double script_acc = 0.0;   ///< % on the script partition
    double human_acc = 0.0;    ///< % on the human partition
    double leftover_acc = 0.0; ///< % on leftover (supervised cell only)
    int retries = 0;           ///< divergence rollbacks the training loops recovered from
    bool degraded = false;     ///< threw, or had to quarantine corrupt samples
};

enum class CellKind { sup, simclr, gbt };
inline constexpr std::array<CellKind, 3> kCells = {CellKind::sup, CellKind::simclr,
                                                   CellKind::gbt};
[[nodiscard]] const char* cell_name(CellKind kind) noexcept;

struct CampaignResult {
    std::array<CellResult, 3> cells;

    [[nodiscard]] CellResult& operator[](CellKind kind) { return cells[static_cast<int>(kind)]; }
    [[nodiscard]] const CellResult& operator[](CellKind kind) const
    {
        return cells[static_cast<int>(kind)];
    }
};

/// Work counts the traced run needs to turn span totals into per-item times.
using Tally = std::map<std::string, double>;

[[nodiscard]] CellResult run_cell(CellKind kind, const fptc::core::UcdavisData& data,
                                  const CampaignSeeds& seeds);

[[nodiscard]] CellResult run_cell_traced(CellKind kind, const fptc::core::UcdavisData& data,
                                         const CampaignSeeds& seeds, SpanRecorder& recorder,
                                         Tally& tally);

} // namespace perfbench
