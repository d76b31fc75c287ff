#include "cimloop/mapping/nest.hh"

#include <algorithm>

#include "cimloop/common/error.hh"

namespace cimloop::mapping {

using spec::SpecNode;
using spec::TemporalDirective;
using spec::tensorIndex;
using workload::dimIndex;
using workload::dimRelevantTo;
using workload::kAllDims;
using workload::kAllTensors;

namespace {

/** Product of node @p lm's spatial factors over the dims irrelevant to
 *  tensor @p t: the copies of one datum its mesh fans out. */
std::int64_t
spatialIrrelevant(const LevelMapping& lm, TensorKind t)
{
    std::int64_t irr = 1;
    for (Dim d : kAllDims) {
        if (!dimRelevantTo(t, d))
            irr *= lm.spatial[dimIndex(d)];
    }
    return irr;
}

/**
 * Permutation-aware temporal eviction product for tensor @p t stored at
 * node @p b: the number of times node b's tile is (re)fetched due to the
 * temporal loops outside its storage (nodes 0..b, including b's own
 * temporal loops, which iterate over successive tiles).
 *
 * A relevant loop always multiplies (each iteration is new data). An
 * irrelevant loop multiplies only when a relevant temporal loop sits
 * strictly inside it — below it in its own node's order, or at any node
 * between it and the storage node — because then the tile sequence
 * repeats and must be refetched. Otherwise the tile is stationary.
 */
double
temporalEvictions(const Mapping& mapping, TensorKind t, int b)
{
    // The innermost node in 0..b holding a relevant temporal loop: a
    // relevant loop lies inside node j's loops exactly when j is above it.
    int innermost_relevant = -1;
    for (int j = b; j >= 0 && innermost_relevant < 0; --j) {
        for (Dim d : kAllDims) {
            if (dimRelevantTo(t, d) &&
                mapping.levels[j].temporal[dimIndex(d)] > 1) {
                innermost_relevant = j;
                break;
            }
        }
    }

    double product = 1.0;
    for (int j = 0; j <= b; ++j) {
        const LevelMapping& lm = mapping.levels[j];
        const DimList order = lm.effectiveOrder(); // outermost first
        // Walk this node's loops innermost-first, tracking whether a
        // relevant loop lies inside the current position.
        bool relevant_below = innermost_relevant > j;
        for (int k = order.size - 1; k >= 0; --k) {
            Dim d = order.dims[k];
            std::int64_t f = lm.temporal[dimIndex(d)];
            if (dimRelevantTo(t, d)) {
                product *= static_cast<double>(f);
                relevant_below = true;
            } else if (relevant_below) {
                product *= static_cast<double>(f);
            }
            // else: stationary tile; no refetch from this loop.
        }
    }
    return product;
}

/** True when tensor @p t can be multicast/reduced across node @p j. */
bool
reusesSpatially(const SpecNode& node, TensorKind t)
{
    return node.spatialReuse[tensorIndex(t)] || node.flexibleSpatial;
}

} // namespace

void
analyzeNest(const spec::Hierarchy& hierarchy, const Mapping& mapping,
            const Layer& layer, NestResult& result)
{
    result.valid = false;
    result.invalidReason = mapping.check(hierarchy, layer);
    if (!result.invalidReason.empty()) {
        result.nodes.clear();
        return;
    }

    const int num_nodes = static_cast<int>(hierarchy.nodes.size());
    result.nodes.assign(num_nodes, NodeCounts{});

    // Tiles at storage nodes (per instance, slice units), from the
    // extents covered strictly inside each node.
    DimSizes below = workload::onesDims();
    for (int i = num_nodes - 1; i >= 0; --i) {
        for (TensorKind t : kAllTensors) {
            if (hierarchy.nodes[i].stores(t)) {
                result.nodes[i].tensors[tensorIndex(t)].tile =
                    Layer::tensorTile(t, below);
            }
        }
        const LevelMapping& lm = mapping.levels[i];
        for (Dim d : kAllDims)
            below[dimIndex(d)] *=
                lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
    }

    // Capacity checks, before any traffic is counted: per-instance
    // stored tiles must fit an 'entries' attribute when present.
    static const std::string kEntries = "entries";
    for (int i = 0; i < num_nodes; ++i) {
        const SpecNode& node = hierarchy.nodes[i];
        const auto attr = node.attributes.find(kEntries);
        if (attr == node.attributes.end())
            continue;
        const std::int64_t entries = attr->second.asInt();
        std::int64_t occupied = 0;
        for (TensorKind t : kAllTensors) {
            if (node.stores(t))
                occupied += result.nodes[i].tensors[tensorIndex(t)].tile;
        }
        if (occupied > entries) {
            // About half of a random search's samples stop here: format
            // into the result's own buffer, without a stream.
            result.invalidReason.assign("node '")
                .append(node.name)
                .append("': tile of ")
                .append(std::to_string(occupied))
                .append(" entries exceeds capacity ")
                .append(std::to_string(entries));
            return;
        }
    }

    result.steps = mapping.totalSteps();
    result.totalOps = 1.0;
    for (Dim d : kAllDims)
        result.totalOps *= static_cast<double>(layer.size(d));

    // Instance counts: node i is replicated by the spatial factors of all
    // nodes scoping it (indices < i) and by its own mesh.
    std::int64_t used = 1, total = 1;
    for (int i = 0; i < num_nodes; ++i) {
        used *= mapping.levels[i].spatialUsed();
        total *= hierarchy.nodes[i].spatialFanout();
        result.nodes[i].usedInstances = used;
        result.nodes[i].totalInstances = total;
        result.nodes[i].utilization =
            static_cast<double>(used) / static_cast<double>(total);
    }
    result.innermostParallelism = result.nodes[num_nodes - 1].usedInstances;

    // Per-tensor traffic analysis. Demand segments run from each source
    // (compute, or a storage node) up to the next outer storage node (the
    // sink, or the top), innermost first. Segments cover disjoint node
    // ranges, so each count is written by exactly one segment.
    for (TensorKind t : kAllTensors) {
        const int ti = tensorIndex(t);
        for (int source = num_nodes; source >= 0;) {
            // source: node index of the source; num_nodes = compute.
            // sink: node index of the sink; -1 = top.
            int sink = source - 1;
            while (sink >= 0 && !hierarchy.nodes[sink].stores(t))
                --sink;
            CIM_ASSERT(source < num_nodes || sink >= 0,
                       "the hierarchy guarantees storage for ",
                       workload::tensorName(t));
            double stream;
            double pending = 1.0; // unmerged spatial partials (Outputs)

            if (source == num_nodes) {
                // Compute demand: every unit op touches the tensor once.
                // All mapping factors are already included in totalOps.
                stream = result.totalOps;
            } else {
                // Demand the source storage places on its parent side,
                // measured at its instance boundary (one term per
                // instance, copies included): tile x every spatial factor
                // at or outside the source x temporal evictions.
                const TensorCounts& tc = result.nodes[source].tensors[ti];
                stream = static_cast<double>(tc.tile);
                for (int j = 0; j <= source; ++j) {
                    stream *= static_cast<double>(
                        mapping.levels[j].spatialUsed());
                }
                stream *= temporalEvictions(mapping, t, source);
            }

            // Walk node boundaries from the source's own mesh boundary
            // outward to the sink.
            int start = (source == num_nodes) ? num_nodes - 1 : source;
            for (int k = start; k > sink; --k) {
                const SpecNode& node = hierarchy.nodes[k];
                const LevelMapping& lm = mapping.levels[k];
                std::int64_t s_irr = spatialIrrelevant(lm, t);

                // Crossing node k's mesh boundary: a shared wire
                // multicasts (Inputs/Weights) or sums (Outputs) the
                // s_irr same-datum crossings into one. Without reuse the
                // copies stay in flight; coalescers track them via
                // `pending`.
                if (s_irr > 1) {
                    if (reusesSpatially(node, t))
                        stream /= static_cast<double>(s_irr);
                    else
                        pending *= static_cast<double>(s_irr);
                }

                if (k == source) {
                    // Traffic on the wire directly above the source: its
                    // fills (Inputs/Weights) or writebacks (Outputs).
                    result.nodes[source].tensors[ti].fills = stream;
                    continue;
                }

                TemporalDirective dir = node.directiveFor(t);
                if (dir == TemporalDirective::NoCoalesce) {
                    result.nodes[k].tensors[ti].actions += stream;
                } else if (dir == TemporalDirective::Coalesce) {
                    result.nodes[k].tensors[ti].actions += stream;
                    stream /= pending;
                    pending = 1.0;
                }
            }

            if (sink >= 0) {
                // The sink serves this segment's demand on its child side
                // (reads for Inputs/Weights, arriving updates for
                // Outputs).
                result.nodes[sink].tensors[ti].reads += stream;
            }
            source = sink;
        }
    }

    result.valid = true;
}

NestResult
analyzeNest(const spec::Hierarchy& hierarchy, const Mapping& mapping,
            const Layer& layer)
{
    NestResult result;
    analyzeNest(hierarchy, mapping, layer, result);
    return result;
}

} // namespace cimloop::mapping
