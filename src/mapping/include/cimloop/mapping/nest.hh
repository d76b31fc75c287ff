/**
 * @file
 * Nest analysis: given (hierarchy, mapping, layer), compute how many times
 * every component moves each tensor, accounting for temporal reuse,
 * spatial multicast/reduction, coalescing, and bypass (paper Sec. III-B1).
 *
 * Counting model (dense workloads; paper Sec. III-D3 assumes mappings are
 * regular loop nests):
 *
 *  - Demand starts at compute: every unit operation (MAC x input-slice x
 *    weight-slice) uses one slice of each operand and emits one partial
 *    output.
 *  - A storage node (temporal_reuse) for tensor T filters demand: its
 *    parent-side traffic ("fills" for Inputs/Weights, "writebacks" for
 *    Outputs) is tile x copies x evictions, where evictions follow the
 *    permutation-aware rule: an outer temporal loop over a T-irrelevant
 *    dimension forces refetch only when a T-relevant temporal loop sits
 *    inside it; the innermost contiguous block of irrelevant loops leaves
 *    the tile stationary.
 *  - Crossing a node with spatial_reuse for T divides the stream by the
 *    irrelevant spatial fan (multicast for Inputs/Weights, wired
 *    reduction for Outputs).
 *  - A coalesce node merges all spatially-pending partial outputs into
 *    one value per datum.
 *  - A no_coalesce node performs one action per datum streamed through it.
 *
 * All counts are whole-layer, system-wide totals (summed over instances).
 */
#ifndef CIMLOOP_MAPPING_NEST_HH
#define CIMLOOP_MAPPING_NEST_HH

#include <string>
#include <vector>

#include "cimloop/mapping/mapping.hh"

namespace cimloop::mapping {

/** Per-node, per-tensor access counts. */
struct TensorCounts
{
    /** Storage: accesses served to the child side (reads for
     *  Inputs/Weights; for Outputs this counts arriving updates). */
    double reads = 0.0;

    /** Storage: traffic on the parent side — fills for Inputs/Weights,
     *  writebacks for Outputs. */
    double fills = 0.0;

    /** Pass-through (coalesce / no_coalesce): actions performed
     *  (converts, adds, transfers). */
    double actions = 0.0;

    /** Per-instance tile footprint, in slice units. */
    std::int64_t tile = 0;
};

/** Counts and occupancy for one hierarchy node. */
struct NodeCounts
{
    spec::PerTensor<TensorCounts> tensors = {};

    /** Instances of this node that the mapping uses, system-wide. */
    std::int64_t usedInstances = 1;

    /** Instances physically present, system-wide. */
    std::int64_t totalInstances = 1;

    /** usedInstances / totalInstances. */
    double utilization = 1.0;
};

/** The result of analyzing one (hierarchy, mapping, layer) triple. */
struct NestResult
{
    bool valid = false;
    std::string invalidReason;

    std::vector<NodeCounts> nodes; //!< parallel to hierarchy.nodes

    /** Total unit operations (MACs x input slices x weight slices). */
    double totalOps = 0.0;

    /** Total temporal steps (product of all temporal factors). */
    std::int64_t steps = 1;

    /** Used instances of the innermost node (peak spatial parallelism). */
    std::int64_t innermostParallelism = 1;
};

/**
 * Runs the nest analysis. Returns an invalid result (with a reason) when
 * the mapping fails validation or a storage capacity ("entries"
 * attribute) is exceeded; never throws for mapping-shaped problems.
 * Capacity is checked from the tiles alone, before any traffic is
 * counted, so an invalid result's counts are unspecified.
 */
NestResult analyzeNest(const spec::Hierarchy& hierarchy,
                       const Mapping& mapping, const Layer& layer);

/**
 * analyzeNest() into a caller-owned @p result, reusing its node buffer:
 * a search loop that keeps one scratch result allocates nothing per
 * sample.
 */
void analyzeNest(const spec::Hierarchy& hierarchy, const Mapping& mapping,
                 const Layer& layer, NestResult& result);

} // namespace cimloop::mapping

#endif // CIMLOOP_MAPPING_NEST_HH
