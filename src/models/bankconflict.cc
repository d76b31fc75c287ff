#include "cimloop/models/bankconflict.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "cimloop/common/error.hh"

namespace cimloop::models {

using workload::Dim;
using workload::DimSizes;
using workload::TensorKind;
using workload::dimIndex;

namespace {

/**
 * Tile extent and requester count of one physical rank. Inputs fold the
 * R/S reduction loops into the halo'd P/Q extents, matching the tensor
 * projection Inputs[n][c][p + r][q + s][ib].
 */
void
foldRank(TensorKind t, Dim d, const DimSizes& below,
         const DimSizes& parallel, std::int64_t& extent, std::int64_t& fan)
{
    extent = below[dimIndex(d)];
    fan = parallel[dimIndex(d)];
    if (t == TensorKind::Input && d == Dim::P) {
        extent = below[dimIndex(Dim::P)] + below[dimIndex(Dim::R)] - 1;
        fan = parallel[dimIndex(Dim::P)] * parallel[dimIndex(Dim::R)];
    } else if (t == TensorKind::Input && d == Dim::Q) {
        extent = below[dimIndex(Dim::Q)] + below[dimIndex(Dim::S)] - 1;
        fan = parallel[dimIndex(Dim::Q)] * parallel[dimIndex(Dim::S)];
    }
}

} // namespace

double
bankConflictSlowdown(const layout::TensorLayout& tl, const DimSizes& below,
                     const DimSizes& parallel)
{
    // Runs per (sample, layout candidate, node, tensor) in a co-search,
    // so it works in fixed-size arrays: no heap allocation.
    static const std::array<std::vector<Dim>, 3> kCanonical = {
        layout::tensorRankDims(TensorKind::Input),
        layout::tensorRankDims(TensorKind::Weight),
        layout::tensorRankDims(TensorKind::Output)};
    const std::vector<Dim>& canonical =
        kCanonical[static_cast<std::size_t>(spec::tensorIndex(tl.tensor))];
    // Unlisted canonical ranks plus the listed ones (LayoutSpec::validate
    // keeps the latter distinct ranks of the tensor).
    constexpr std::size_t kMaxRanks = 2 * workload::kNumDims;
    CIM_ASSERT(tl.rankOrder.size() <= workload::kNumDims,
               "rank_order lists more dims than a layer has");

    // Physical rank order: canonical ranks not listed stay outermost (in
    // canonical order); listed ranks move innermost, last listed fastest.
    std::array<Dim, kMaxRanks> physical{};
    std::size_t nr = 0;
    for (Dim d : canonical) {
        if (std::find(tl.rankOrder.begin(), tl.rankOrder.end(), d) ==
            tl.rankOrder.end())
            physical[nr++] = d;
    }
    for (Dim d : tl.rankOrder)
        physical[nr++] = d;

    // Element stride of each rank: product of the extents inside it.
    std::array<std::int64_t, kMaxRanks> extent{}, fan{}, stride{};
    std::int64_t cum = 1;
    for (std::size_t r = nr; r-- > 0;) {
        foldRank(tl.tensor, physical[r], below, parallel, extent[r],
                 fan[r]);
        stride[r] = cum;
        cum *= std::max<std::int64_t>(extent[r], 1);
    }

    double requesters = 1.0;
    for (std::size_t r = 0; r < nr; ++r)
        requesters *= static_cast<double>(std::max<std::int64_t>(fan[r], 1));
    if (requesters <= 1.0)
        return 1.0; // a lone requester never conflicts

    // Distinct banks the requesters spread over. Parallel instances
    // along one rank own contiguous sub-tiles, so their base addresses
    // are separated by stride x sub-tile elements; the bank of element
    // a is floor(a / interleave) mod banks. Ranks are independent, so
    // the joint spread is the product, capped by the bank count (and by
    // the requester count — you cannot occupy more banks than requests).
    const std::int64_t banks = std::max<std::int64_t>(tl.banks, 1);
    const std::int64_t il = std::max<std::int64_t>(tl.interleave, 1);
    double distinct = 1.0;
    // One bit per bank, up to LayoutSpec::validate's cap of 4096 banks.
    CIM_ASSERT(banks <= 4096, "layout has more than 4096 banks");
    std::array<std::uint64_t, 4096 / 64> seen;
    const std::size_t words = static_cast<std::size_t>((banks + 63) / 64);
    for (std::size_t r = 0; r < nr && distinct < requesters; ++r) {
        if (fan[r] <= 1)
            continue;
        std::int64_t sep =
            stride[r] * std::max<std::int64_t>(extent[r] / fan[r], 1);
        // Bank k is floor(k * sep / il) mod banks, which repeats once
        // k * sep is a multiple of a whole bank line set (il x banks):
        // requesters past that period touch no new bank.
        std::int64_t span = fan[r];
        if (il <= std::numeric_limits<std::int64_t>::max() / banks) {
            const std::int64_t lines = il * banks;
            span = std::min(span, lines / std::gcd(sep, lines));
        }
        std::fill(seen.begin(), seen.begin() + words, 0);
        std::int64_t touched = 0;
        for (std::int64_t k = 0; k < span; ++k) {
            const std::uint64_t bank =
                static_cast<std::uint64_t>((k * sep / il) % banks);
            const std::uint64_t bit = std::uint64_t{1} << (bank & 63);
            if (!(seen[bank >> 6] & bit)) {
                seen[bank >> 6] |= bit;
                if (++touched == banks)
                    break; // all banks covered; no more spread possible
            }
        }
        distinct *= static_cast<double>(touched);
    }
    distinct = std::min(distinct, static_cast<double>(banks));
    distinct = std::min(distinct, requesters);

    // Serialize the worst bank: ceil(R / D) extra-cycle multiplier.
    double slowdown =
        static_cast<double>(static_cast<std::int64_t>(
            (requesters + distinct - 1.0) / distinct));
    return std::max(slowdown, 1.0);
}

spec::PerTensor<double>
bankConflictSlowdowns(const layout::ResolvedLayout& layout,
                      const spec::Hierarchy& hierarchy,
                      std::size_t node_index,
                      const mapping::Mapping& mapping)
{
    CIM_ASSERT(mapping.levels.size() == hierarchy.nodes.size(),
               "mapping does not match the hierarchy");
    spec::PerTensor<double> slow = {1.0, 1.0, 1.0};
    if (node_index >= layout.slots.size() || !layout.nodeAny(node_index))
        return slow;

    // Tile extents covered inside the node, and the spatial fanout that
    // makes the concurrent requesters (same decomposition the nest
    // analysis uses for tile sizing).
    DimSizes below = workload::onesDims();
    DimSizes parallel = workload::onesDims();
    for (std::size_t j = node_index + 1; j < mapping.levels.size(); ++j) {
        const mapping::LevelMapping& lm = mapping.levels[j];
        for (Dim d : workload::kAllDims) {
            below[dimIndex(d)] *=
                lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
            parallel[dimIndex(d)] *= lm.spatial[dimIndex(d)];
        }
    }

    for (TensorKind t : workload::kAllTensors) {
        const layout::TensorLayout* tl = layout.at(node_index, t);
        if (tl)
            slow[spec::tensorIndex(t)] =
                bankConflictSlowdown(*tl, below, parallel);
    }
    return slow;
}

} // namespace cimloop::models
