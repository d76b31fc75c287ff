/**
 * @file
 * The CiMLoop evaluation engine.
 *
 * Fast statistical pipeline (paper Sec. III-D):
 *  1. precompute() profiles the layer's operand PMFs, applies the
 *     architecture's encodings and slicing, and asks every component
 *     plug-in for its average per-action energy — ONCE per (arch, layer).
 *  2. evaluate() runs the nest analysis for a mapping and multiplies
 *     per-action energies by action counts — no per-value work, so its
 *     cost is independent of tensor sizes and array dimensions, and the
 *     step-1 cost amortizes over thousands of mappings.
 */
#ifndef CIMLOOP_ENGINE_EVALUATE_HH
#define CIMLOOP_ENGINE_EVALUATE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cimloop/common/cancel.hh"
#include "cimloop/dist/operands.hh"
#include "cimloop/engine/arch.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/mapping/nest.hh"
#include "cimloop/models/component.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::engine {

/** Mapping-invariant per-action energies for one (arch, layer) pair. */
struct PerActionTable
{
    workload::Layer extLayer;       //!< layer with IB/WB dims set
    dist::OperandProfile profile;   //!< operand PMFs used
    std::vector<models::ComponentEstimate> nodes; //!< per hierarchy node
};

/**
 * Computes the per-action table (paper Algorithm 1, lines 3-7).
 * @p profile_override replaces the synthesized operand PMFs; the paper's
 * validation sweeps (Figs. 7, 11) drive macros with specific small/large
 * data values this way.
 */
PerActionTable precompute(const Arch& arch, const workload::Layer& layer,
                          const dist::OperandProfile* profile_override
                          = nullptr);

/**
 * Thread-safe, process-wide cache in front of precompute() (synthesized
 * PMFs only; profile overrides bypass it). The key fingerprints everything
 * the table depends on — the serialized hierarchy, representation spec,
 * operating point, and the layer's identity (network, index, dims, bits) —
 * so repeated searches over the same (arch, layer), e.g. voltage sweeps
 * re-evaluating a network or per-layer searches inside evaluateNetwork,
 * stop re-synthesizing PMFs and re-running plugin estimation. Entries are
 * immutable and shared; they stay alive while any caller holds the pointer
 * even across clearPerActionCache() and LRU eviction.
 *
 * When the calling thread carries a RequestStats context (see
 * cimloop/common/request_context.hh — `cimloop serve` installs one per
 * request, and parallelFor propagates it into workers), every lookup
 * additionally bumps that block's cacheHits/cacheMisses, giving the
 * daemon per-client cache accounting next to the global counters.
 */
std::shared_ptr<const PerActionTable>
cachedPrecompute(const Arch& arch, const workload::Layer& layer);

/**
 * Arms (or, with 0, disarms) a byte budget on the per-action cache,
 * turning it into an explicitly bounded cross-request cache: whenever
 * completed entries exceed the budget, least-recently-used entries are
 * evicted until it fits (entries still being computed are pinned; a hit
 * refreshes recency). Eviction only drops the cache's reference — a
 * caller holding the shared_ptr keeps its table. A re-request of an
 * evicted key is a fresh miss, so with a budget armed the
 * "misses == unique keys" invariant holds only while the working set
 * fits; the one-shot CLI and the sweep engine run unbudgeted (0, the
 * default) and keep the strict invariant. Under concurrent requests the
 * eviction *order* depends on completion timing; with sequential
 * requests it is pinned (pure LRU), which the serve cache tests rely
 * on. Setting a budget below the current footprint evicts immediately.
 */
void setPerActionCacheBudget(std::size_t bytes);

/** True when @p key (a perActionKey()) is currently resident. */
bool perActionCacheContains(const std::string& key);

/** Approximate heap footprint the cache charges one table against the
 *  budget for (exposed so tests can pick byte-accurate tiny budgets). */
std::size_t perActionTableFootprint(const PerActionTable& table);

/**
 * The architecture half of the per-action cache key: everything
 * precompute() reads off the Arch (serialized hierarchy, representation,
 * operating point, fault model), at full double precision so operating
 * points one ULP apart do not alias. Two arches with equal keys produce
 * identical per-action tables for every layer. The DSE journal and the
 * sweep's cross-point cache-economy accounting reuse this fingerprint.
 */
std::string archCacheKey(const Arch& arch);

/** Full cachedPrecompute() key: archCacheKey(arch) plus the layer's
 *  identity (network, name, index, dims, bits). */
std::string perActionKey(const Arch& arch, const workload::Layer& layer);

/** Cache counters for benchmarks and tests. */
struct PerActionCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;       //!< footprint of completed entries
    std::uint64_t evictions = 0;   //!< entries dropped by the LRU budget
    std::uint64_t budgetBytes = 0; //!< armed budget (0 = unlimited)
};

/** Current cachedPrecompute() counters. */
PerActionCacheStats perActionCacheStats();

/** Drops all cached per-action tables and resets the counters. */
void clearPerActionCache();

/** Energy/area/performance results for one mapping of one layer. */
struct Evaluation
{
    bool valid = false;
    std::string invalidReason;

    double energyPj = 0.0;    //!< total layer energy
    double areaUm2 = 0.0;     //!< built area (all instances)
    double latencyNs = 0.0;   //!< layer execution time
    double macs = 0.0;        //!< workload MACs (slice dims excluded)
    std::int64_t steps = 1;   //!< temporal steps
    double utilization = 1.0; //!< innermost-mesh utilization

    /**
     * Extra serialized accesses charged by the bank-conflict model,
     * summed over storage nodes (per instance). Exactly 0 when no
     * layout is in effect or the layout is conflict-free.
     */
    double bankConflictCycles = 0.0;

    /** Per-node energy breakdown, parallel to hierarchy nodes. */
    std::vector<double> nodeEnergyPj;

    /** Per-node built area (all instances), parallel to hierarchy nodes. */
    std::vector<double> nodeAreaUm2;

    /** Energy per MAC, pJ. */
    double energyPerMacPj() const;

    /** TOPS/W counting 2 ops per MAC. */
    double topsPerWatt() const;

    /** MACs per second. */
    double macsPerSecond() const;

    /** TOPS/mm^2 counting 2 ops per MAC. */
    double topsPerMm2() const;
};

/**
 * Scores an analyzed mapping (Algorithm 1, lines 8-10): multiplies the
 * per-action energies by @p nest's action counts (with the idle-cell
 * penalty), sums area, sets the step time by the slowest component —
 * stretched by the bank-conflict slowdowns of @p layout (nullptr = no
 * layout) — and charges leakage over the resulting latency. An invalid
 * @p nest gives an invalid Evaluation with its reason. Dynamic energy
 * never depends on the layout, so one nest analysis serves every layout
 * candidate: the co-search scores each sample under all of them this way.
 */
Evaluation scoreNest(const Arch& arch, const PerActionTable& table,
                     const mapping::Mapping& mapping,
                     const mapping::NestResult& nest,
                     const layout::ResolvedLayout* layout);

/**
 * Evaluates one mapping using a precomputed table: analyzeNest(), then
 * scoreNest(). When arch.layout is non-empty it is resolved against the
 * hierarchy and the bank-conflict slowdown folds into the latency;
 * per-action energies never depend on the layout.
 */
Evaluation evaluate(const Arch& arch, const PerActionTable& table,
                    const mapping::Mapping& mapping);

/**
 * Same, with an already-resolved layout (nullptr = none). The search
 * loop resolves each layout candidate once and reuses it across every
 * sample; the three-argument overload resolves arch.layout per call.
 */
Evaluation evaluate(const Arch& arch, const PerActionTable& table,
                    const mapping::Mapping& mapping,
                    const layout::ResolvedLayout* layout);

/** Search objective. */
enum class Objective { Energy, Edp, Delay };

/** Outcome of a mapping search for one layer. */
struct SearchResult
{
    mapping::Mapping bestMapping;
    Evaluation best;
    int evaluated = 0; //!< valid mappings evaluated
    int invalid = 0;   //!< samples evaluated but structurally invalid
    int rejected = 0;  //!< mapper samples that failed validation
    int exhausted = 0; //!< shards that gave up before spending their budget

    /**
     * Layout of the winning evaluation: the fixed arch.layout, the
     * winning co-search candidate, or empty when layouts are off.
     */
    layout::LayoutSpec bestLayout;

    /** Layout candidates considered (1 fixed, N co-search, 0 off). */
    int layoutsEvaluated = 0;
};

/**
 * Searches @p num_mappings random mappings (plus the greedy heuristic)
 * and returns the best under @p objective. Fatal when no valid mapping is
 * found at all.
 *
 * The sample budget is split over a fixed set of shards, each drawing
 * from its own counter-derived RNG stream (Rng::forStream(seed, shard)),
 * and shard-local bests merge under the total order (objective value,
 * shard, sample index) with the greedy heuristic ordered before every
 * shard. Shards run on up to @p threads workers; because the shard
 * decomposition and the merge order are independent of scheduling, the
 * returned best mapping, objective value, and sample counters are
 * bit-identical for any thread count, including 1.
 *
 * With arch.layoutSearch, every shard scores each sample it draws (one
 * Mapper::next, one analyzeNest) under every layout candidate, keeping
 * one best per (layout, shard); bests merge under (value, layout, shard,
 * sample) — still bit-identical at any thread count. A fixed arch.layout
 * is the one-candidate special case. The evaluated/invalid/exhausted
 * counts are per (layout, shard) unit, the rejected count per draw.
 *
 * With a @p cancel token, shards poll it between samples. A search is
 * all-or-nothing: a token that fires mid-search abandons the whole
 * search with CancelledError rather than returning a best from fewer
 * samples — a partial search result would not be byte-identical to an
 * uninterrupted run's.
 */
SearchResult searchMappings(const Arch& arch, const workload::Layer& layer,
                            int num_mappings, std::uint64_t seed = 1,
                            Objective objective = Objective::Energy,
                            int threads = 1,
                            const CancelToken* cancel = nullptr);

/**
 * One captured per-layer failure from a keep-going network evaluation:
 * which layer failed, how (user error vs. internal bug), and the message.
 */
struct LayerDiagnostic
{
    std::size_t layerIndex = 0; //!< position in network.layers
    std::string layer;          //!< layer name
    std::string kind;   //!< "fatal" | "panic" | "exception" | "cancelled"
    std::string message;        //!< the exception's what()
};

/** Whole-network evaluation: best mapping per layer, then totals. */
struct NetworkEvaluation
{
    std::vector<SearchResult> layers; //!< parallel to network.layers
    double energyPj = 0.0;            //!< total (respecting layer counts)
    double latencyNs = 0.0;
    double macs = 0.0;
    double areaUm2 = 0.0;             //!< max over layers (same hardware)

    /**
     * Per-layer failures captured under keep-going evaluation, in layer
     * order. Empty on a fully successful run. A failed layer's
     * SearchResult slot stays default-constructed (best.valid == false)
     * and contributes nothing to the totals.
     */
    std::vector<LayerDiagnostic> diagnostics;

    /**
     * Observability snapshot taken when the totals were folded: every
     * registered counter plus span aggregates (spans only when timing
     * was enabled). Counter values are process-cumulative — call
     * obs::resetAll() before the run for per-run numbers, as the CLI
     * does. Counters are deterministic at fixed seed for any thread
     * count; span times are wall-clock and are not.
     */
    obs::MetricsSnapshot metrics;

    /** True when every layer evaluated successfully. */
    bool complete() const { return diagnostics.empty(); }

    double energyPerMacPj() const;
    double topsPerWatt() const;
};

/**
 * Runs searchMappings for every layer of @p network.
 *
 * With @p keep_going, a layer whose search fails (unmappable layer, bad
 * spec, internal bug) is captured as a LayerDiagnostic and evaluation
 * continues with the remaining layers — the production-sweep behavior
 * where one broken layer must not abort a large design-space run.
 * Without it, the first failure propagates as before.
 *
 * With a @p cancel token, the layer loop polls it between layers —
 * layers already searched keep their byte-identical results. A fired
 * token throws CancelledError; under keep_going the remaining layers
 * are instead recorded as kind-"cancelled" diagnostics and the totals
 * fold only the completed layers.
 */
NetworkEvaluation evaluateNetwork(const Arch& arch,
                                  const workload::Network& network,
                                  int mappings_per_layer = 200,
                                  std::uint64_t seed = 1,
                                  Objective objective = Objective::Energy,
                                  bool keep_going = false,
                                  const CancelToken* cancel = nullptr);

/**
 * Same as evaluateNetwork but distributes the work over @p threads worker
 * threads: layers fan out first (independent searches), and when the
 * network has fewer distinct layers than threads (e.g. one repeated
 * transformer block), the leftover threads split each layer's sample
 * budget via the sharded intra-layer search. Results are bit-identical to
 * the sequential version for the same seed. threads <= 1 falls through to
 * evaluateNetwork. A worker that hits an unmappable layer does not
 * terminate the process: without @p keep_going every captured worker
 * exception is aggregated and rethrown (the same FatalError surface the
 * serial path gives, now listing every failing layer); with it, failures
 * become per-layer diagnostics and every remaining layer still runs.
 */
NetworkEvaluation evaluateNetworkParallel(
    const Arch& arch, const workload::Network& network, int threads,
    int mappings_per_layer = 200, std::uint64_t seed = 1,
    Objective objective = Objective::Energy, bool keep_going = false,
    const CancelToken* cancel = nullptr);

/**
 * Renders a per-node report of one evaluation: energy share, accesses
 * served, area — the Accelergy-style output table.
 */
std::string formatReport(const Arch& arch, const Evaluation& ev);

/** One nondominated mapping from an energy/latency exploration. */
struct ParetoPoint
{
    mapping::Mapping mapping;
    Evaluation eval;
};

/**
 * Samples @p num_mappings mappings (plus the greedy heuristic) and
 * returns the energy/latency Pareto frontier, sorted by ascending
 * energy (therefore descending latency). Design-space explorations use
 * this to expose the trade space rather than a single optimum.
 */
std::vector<ParetoPoint> paretoFrontier(const Arch& arch,
                                        const workload::Layer& layer,
                                        int num_mappings,
                                        std::uint64_t seed = 1);

/**
 * Serializes a network evaluation as CSV (one row per layer plus a
 * totals row) for plotting: layer, macs, energy_pj, latency_ns,
 * utilization, tops_per_watt.
 */
std::string toCsv(const NetworkEvaluation& ev,
                  const workload::Network& network);

/**
 * Renders the per-action energy table as YAML — Accelergy's "energy
 * reference table" (ERT). One entry per hierarchy node with its
 * per-tensor read/fill/action energies (pJ), area, latency, and static
 * power, so users can inspect exactly what the statistical pipeline
 * computed for an (architecture, layer) pair.
 */
std::string toYamlErt(const Arch& arch, const PerActionTable& table);

} // namespace cimloop::engine

#endif // CIMLOOP_ENGINE_EVALUATE_HH
