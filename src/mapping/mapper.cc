#include "cimloop/mapping/mapper.hh"

#include <algorithm>

#include "cimloop/common/error.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::mapping {

using spec::SpecNode;
using spec::tensorIndex;
using workload::dimIndex;
using workload::dimRelevantTo;
using workload::kAllDims;
using workload::kAllTensors;

namespace {

/** True when node @p n permits a temporal loop over @p d. */
bool
allowsTemporal(const SpecNode& n, Dim d)
{
    return n.temporalDims.empty() ||
           std::find(n.temporalDims.begin(), n.temporalDims.end(), d) !=
               n.temporalDims.end();
}

/** Dims that @p node may map spatially: its spatial_dims constraint and
 *  the hard wire-sharing rule. */
DimList
allowedSpatialDims(const SpecNode& node)
{
    DimList allowed;
    for (Dim d : kAllDims) {
        if (!node.spatialDims.empty() &&
            std::find(node.spatialDims.begin(), node.spatialDims.end(), d) ==
                node.spatialDims.end()) {
            continue;
        }
        bool conflict = false;
        if (!node.flexibleSpatial) {
            for (TensorKind t : kAllTensors) {
                if (node.spatialReuse[tensorIndex(t)] &&
                    dimRelevantTo(t, d)) {
                    conflict = true; // shared wire cannot carry distinct data
                }
            }
        }
        if (!conflict)
            allowed.dims[allowed.size++] = d;
    }
    return allowed;
}

} // namespace

Mapper::Mapper(const spec::Hierarchy& h, const Layer& l, MapperOptions opts)
    : hierarchy(h), layer(l), options(opts), rng(opts.seed ? opts.seed : 1)
{
    CIM_ASSERT(!hierarchy.nodes.empty(), "mapper needs a hierarchy");
    // Temporal loops live at the storage nodes, and at node 0 as the
    // fallback host when it stores nothing.
    for (int i = 0; i < static_cast<int>(hierarchy.nodes.size()); ++i) {
        const SpecNode& node = hierarchy.nodes[i];
        spatial_dims.push_back(allowedSpatialDims(node));
        bool stores_any = false;
        for (TensorKind t : kAllTensors)
            stores_any = stores_any || node.stores(t);
        if (stores_any || i == 0)
            temporal_hosts.push_back(i);
    }
    for (Dim d : kAllDims) {
        rest_taker[dimIndex(d)] = -1;
        for (int i : temporal_hosts) {
            if (allowsTemporal(hierarchy.nodes[i], d)) {
                rest_taker[dimIndex(d)] = i;
                break;
            }
        }
    }
}

Mapping
Mapper::greedy() const
{
    Mapping m = Mapping::identity(hierarchy);
    DimSizes remaining = layer.dims;

    const int num_nodes = static_cast<int>(hierarchy.nodes.size());

    // Spatial: innermost mesh first, largest allowed divisors.
    for (int i = num_nodes - 1; i >= 0; --i) {
        const SpecNode& node = hierarchy.nodes[i];
        std::int64_t budget = node.spatialFanout();
        if (budget <= 1)
            continue;
        for (Dim d : spatial_dims[i]) {
            if (budget <= 1)
                break;
            std::int64_t rem = remaining[dimIndex(d)];
            if (rem <= 1)
                continue;
            // Largest divisor of rem that fits the budget.
            const std::vector<std::int64_t>& divs = divisorsOf(rem);
            const std::int64_t best =
                *(std::upper_bound(divs.begin(), divs.end(), budget) - 1);
            if (best > 1) {
                m.levels[i].spatial[dimIndex(d)] = best;
                remaining[dimIndex(d)] /= best;
                budget /= best;
            }
        }
    }

    // Temporal: each leftover dimension goes to the outermost storage
    // node whose temporal_dims constraint permits it (node 0 as the
    // fallback host when it stores nothing).
    for (Dim d : kAllDims) {
        if (remaining[dimIndex(d)] <= 1)
            continue;
        const int host = rest_taker[dimIndex(d)];
        if (host < 0) {
            CIM_FATAL("no storage node permits a temporal loop over ",
                      workload::dimName(d), " for layer '", layer.name,
                      "' on hierarchy '", hierarchy.name, "'");
        }
        m.levels[host].temporal[dimIndex(d)] = remaining[dimIndex(d)];
    }

    // Weight-stationary loop order everywhere: weight-relevant dims
    // outermost so the innermost block of weight-irrelevant loops
    // (N, P, Q, IB) keeps the array's weights resident.
    for (int i : temporal_hosts) {
        m.levels[i].order = {Dim::C, Dim::K, Dim::R, Dim::S, Dim::WB,
                             Dim::N, Dim::P, Dim::Q, Dim::IB};
    }

    m.validate(hierarchy, layer);
    return m;
}

void
Mapper::sample(Rng& rng, Mapping& m) const
{
    const int num_nodes = static_cast<int>(hierarchy.nodes.size());
    // Start from the identity mapping, keeping the order buffers.
    m.levels.resize(num_nodes);
    for (LevelMapping& lm : m.levels) {
        lm.temporal = workload::onesDims();
        lm.spatial = workload::onesDims();
        lm.order.clear();
    }
    DimSizes remaining = layer.dims;

    // Spatial factors, innermost first. Bias toward high utilization
    // (the published macros' mappers do the same) but keep the space open.
    for (int i = num_nodes - 1; i >= 0; --i) {
        std::int64_t budget = hierarchy.nodes[i].spatialFanout();
        if (budget <= 1)
            continue;
        DimList allowed = spatial_dims[i];
        // Visit allowed dims in random order.
        for (int a = allowed.size; a > 1; --a)
            std::swap(allowed.dims[a - 1], allowed.dims[rng.below(a)]);
        for (Dim d : allowed) {
            if (budget <= 1)
                break;
            std::int64_t rem = remaining[dimIndex(d)];
            if (rem <= 1)
                continue;
            // The divisors that fit the budget: a prefix of the
            // ascending list, never empty (1 fits).
            const std::vector<std::int64_t>& divs = divisorsOf(rem);
            const std::size_t fitting =
                std::upper_bound(divs.begin(), divs.end(), budget) -
                divs.begin();
            const std::int64_t f =
                rng.uniform() < 0.7
                    ? divs[fitting - 1] // largest fitting divisor
                    : divs[rng.below(fitting)];
            if (f > 1) {
                m.levels[i].spatial[dimIndex(d)] = f;
                remaining[dimIndex(d)] /= f;
                budget /= f;
            }
        }
    }

    // Temporal factors: split what remains of each dim across the loop
    // hosts (inner ones take random divisors; the outermost host
    // permitting the dim takes the rest).
    for (Dim d : kAllDims) {
        std::int64_t rem = remaining[dimIndex(d)];
        if (rem <= 1)
            continue;
        const int taker = rest_taker[dimIndex(d)];
        if (taker < 0)
            return; // unmappable dim; caller's check() rejects it
        // Walk the hosts innermost-first, peeling random factors.
        for (auto it = temporal_hosts.rbegin(); it != temporal_hosts.rend();
             ++it) {
            int i = *it;
            if (i == taker) {
                m.levels[i].temporal[dimIndex(d)] *= rem;
                rem = 1;
                break;
            }
            if (!allowsTemporal(hierarchy.nodes[i], d))
                continue;
            const std::vector<std::int64_t>& divs = divisorsOf(rem);
            std::int64_t f = divs[rng.below(divs.size())];
            if (f > 1) {
                m.levels[i].temporal[dimIndex(d)] = f;
                rem /= f;
            }
            if (rem == 1)
                break;
        }
        CIM_ASSERT(rem == 1, "temporal split left factor ", rem,
                   " unassigned for dim ", workload::dimName(d));
    }

    // Random permutation per node over the dims with temporal loops.
    for (LevelMapping& lm : m.levels) {
        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] > 1)
                lm.order.push_back(d);
        }
        for (std::size_t a = lm.order.size(); a > 1; --a)
            std::swap(lm.order[a - 1], lm.order[rng.below(a)]);
    }
}

namespace {

/** Recursion state for exhaustive enumeration. */
struct Enumerator
{
    const spec::Hierarchy& hierarchy;
    const Layer& layer;
    std::size_t limit;
    std::vector<Mapping>& out;
    std::vector<int> eligible; //!< temporal-loop hosts, outermost first

    void
    emit(Mapping& m)
    {
        if (m.check(hierarchy, layer).empty()) {
            if (out.size() >= limit) {
                CIM_FATAL("mapspace exceeds the exhaustive limit of ",
                          limit, " mappings; use random search");
            }
            out.push_back(m);
        }
    }

    /** Permutations of each node's active temporal dims, innermost
     *  choice last: recurse over eligible nodes. */
    void
    permutations(Mapping& m, std::size_t who)
    {
        if (who == eligible.size()) {
            emit(m);
            return;
        }
        int node = eligible[who];
        std::vector<Dim> active;
        for (Dim d : kAllDims) {
            if (m.levels[node].temporal[dimIndex(d)] > 1)
                active.push_back(d);
        }
        if (active.size() <= 1) {
            m.levels[node].order = active;
            permutations(m, who + 1);
            return;
        }
        std::sort(active.begin(), active.end());
        do {
            m.levels[node].order = active;
            permutations(m, who + 1);
        } while (std::next_permutation(active.begin(), active.end()));
    }

    /** Splits dim d's remaining extent across the eligible nodes. */
    void
    temporalSplit(Mapping& m, const DimSizes& remaining, int dim_idx)
    {
        if (dim_idx == workload::kNumDims) {
            permutations(m, 0);
            return;
        }
        Dim d = kAllDims[dim_idx];
        std::int64_t rem = remaining[dimIndex(d)];
        if (rem == 1) {
            temporalSplit(m, remaining, dim_idx + 1);
            return;
        }
        // Ordered factorizations of rem over the eligible nodes.
        splitOver(m, remaining, dim_idx, 0, rem);
    }

    void
    splitOver(Mapping& m, const DimSizes& remaining, int dim_idx,
              std::size_t who, std::int64_t rem)
    {
        Dim d = kAllDims[dim_idx];
        if (who == eligible.size()) {
            if (rem == 1)
                temporalSplit(m, remaining, dim_idx + 1);
            return;
        }
        int node = eligible[who];
        bool allowed = allowsTemporal(hierarchy.nodes[node], d);
        for (std::int64_t f : divisorsOf(rem)) {
            if (f > 1 && !allowed)
                break; // divisors ascend; only f == 1 is permitted
            m.levels[node].temporal[dimIndex(d)] = f;
            splitOver(m, remaining, dim_idx, who + 1, rem / f);
        }
        m.levels[node].temporal[dimIndex(d)] = 1;
    }

    /** Assigns spatial factors node by node, innermost first. */
    void
    spatial(Mapping& m, DimSizes remaining, int node_rev)
    {
        int num_nodes = static_cast<int>(hierarchy.nodes.size());
        if (node_rev == num_nodes) {
            temporalSplit(m, remaining, 0);
            return;
        }
        int node = num_nodes - 1 - node_rev;
        std::int64_t budget = hierarchy.nodes[node].spatialFanout();
        if (budget <= 1) {
            spatial(m, remaining, node_rev + 1);
            return;
        }
        spatialDims(m, remaining, node_rev, node, 0, budget);
    }

    void
    spatialDims(Mapping& m, DimSizes remaining, int node_rev, int node,
                int dim_idx, std::int64_t budget)
    {
        if (dim_idx == workload::kNumDims) {
            spatial(m, remaining, node_rev + 1);
            return;
        }
        Dim d = kAllDims[dim_idx];
        std::int64_t rem = remaining[dimIndex(d)];
        for (std::int64_t f : divisorsOf(rem)) {
            if (f > budget)
                break;
            m.levels[node].spatial[dimIndex(d)] = f;
            remaining[dimIndex(d)] = rem / f;
            spatialDims(m, remaining, node_rev, node, dim_idx + 1,
                        budget / f);
        }
        m.levels[node].spatial[dimIndex(d)] = 1;
        remaining[dimIndex(d)] = rem;
    }
};

} // namespace

std::vector<Mapping>
Mapper::exhaustive(std::size_t limit)
{
    std::vector<Mapping> out;
    Enumerator en{hierarchy, layer, limit, out, temporal_hosts};
    Mapping m = Mapping::identity(hierarchy);
    en.spatial(m, layer.dims, 0);
    return out;
}

std::optional<Mapping>
Mapper::next()
{
    int rejected = 0;
    std::optional<Mapping> m = next(rng, rejected);
    if (m)
        ++num_generated;
    return m;
}

std::optional<Mapping>
Mapper::next(Rng& rng, int& rejected) const
{
    Mapping m;
    if (!next(rng, rejected, m))
        return std::nullopt;
    return m;
}

bool
Mapper::next(Rng& rng, int& rejected, Mapping& out) const
{
    static obs::Counter& samples = obs::counter("mapping.mapper.samples");
    for (int attempt = 0; attempt < options.maxAttempts; ++attempt) {
        samples.add();
        sample(rng, out);
        if (out.check(hierarchy, layer).empty())
            return true;
        ++rejected;
    }
    return false;
}

} // namespace cimloop::mapping
