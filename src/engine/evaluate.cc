#include "cimloop/engine/evaluate.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "cimloop/common/arena.hh"
#include "cimloop/common/error.hh"
#include "cimloop/common/log.hh"
#include "cimloop/common/parallel.hh"
#include "cimloop/common/request_context.hh"
#include "cimloop/common/util.hh"
#include "cimloop/faults/faults.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/models/bankconflict.hh"
#include "cimloop/obs/obs.hh"

namespace cimloop::engine {

using dist::EncodedTensor;
using spec::tensorIndex;
using workload::TensorKind;

namespace {

constexpr int kI = tensorIndex(TensorKind::Input);
constexpr int kW = tensorIndex(TensorKind::Weight);
constexpr int kO = tensorIndex(TensorKind::Output);

} // namespace

PerActionTable
precompute(const Arch& arch, const workload::Layer& layer,
           const dist::OperandProfile* profile_override)
{
    CIM_SPAN("engine.precompute");
    // Precompute is the heaviest Pmf churn site (three encodes, two slice
    // mixtures, fault perturbation): one arena scope bounds all the
    // lattice-kernel scratch the nested dist calls allocate, so the
    // thread's arena is rewound in one step when the table is built.
    ArenaScope scratch(scratchArena());
    PerActionTable table;
    table.extLayer = arch.extendLayer(layer);

    if (profile_override) {
        table.profile = *profile_override;
    } else {
        const std::string network =
            layer.network.empty() ? layer.name : layer.network;
        table.profile = dist::synthesizeOperands(
            network, layer.index,
            std::max(layer.networkLayers, layer.index + 1),
            arch.inputBitsFor(layer), arch.weightBitsFor(layer));
    }

    // Encode at full precision, then slice per the representation spec.
    EncodedTensor in_full = dist::encodeOperands(
        table.profile.inputs, arch.rep.inputEncoding,
        arch.inputBitsFor(layer));
    EncodedTensor wt_full = dist::encodeOperands(
        table.profile.weights, arch.rep.weightEncoding,
        arch.weightBitsFor(layer));
    EncodedTensor out_full = dist::encodeOperands(
        table.profile.outputs, dist::Encoding::TwosComplement,
        arch.rep.outputBits);

    EncodedTensor in_sliced = dist::sliceMixture(in_full, arch.rep.dacBits);
    EncodedTensor wt_sliced = dist::sliceMixture(wt_full, arch.rep.cellBits);

    // Device faults perturb what the ANALOG domain sees: the weight-slice
    // codes gain stuck-at atoms and variance-inflated levels. Digital
    // storage (buffers, DRAM, shift-add) keeps the ideal representation —
    // faults live in the array, not in what was written to it.
    EncodedTensor wt_faulty = wt_sliced;
    if (arch.faults.cellFaultsEnabled()) {
        wt_faulty.codes = faults::perturbedCellCodes(
            arch.faults, wt_sliced.codes, wt_sliced.maxCode());
    }

    models::PluginRegistry& registry = models::PluginRegistry::instance();
    table.nodes.reserve(arch.hierarchy.nodes.size());

    for (const spec::SpecNode& node : arch.hierarchy.nodes) {
        std::string klass = node.klass.empty() ? "Wire" : node.klass;
        std::string klass_lower = toLower(klass);
        bool analog = klass_lower == "sramcell" ||
                      klass_lower == "reramcell" ||
                      klass_lower == "capacitormac" ||
                      klass_lower == "analogadder" ||
                      klass_lower == "analogaccumulator" ||
                      klass_lower == "adc";

        models::ComponentContext ctx;
        ctx.node = &node;
        ctx.technologyNm = arch.technologyNm;
        ctx.supplyVoltage = arch.supplyVoltage;

        // Input/weight traffic is counted in slice units everywhere (the
        // IB/WB dims are tensor-relevant), so every component sees the
        // per-slice representation; output traffic is whole partial
        // words. The ADC digitizes column sums at its own resolution.
        ctx.tensors[kI] = in_sliced;
        ctx.tensors[kW] = analog ? wt_faulty : wt_sliced;
        ctx.tensors[kO] = out_full;
        if (klass_lower == "adc") {
            // Out-of-range resolutions fail below, in the ADC model.
            const int res = static_cast<int>(
                std::clamp<std::int64_t>(node.attrInt("resolution", 8), 1,
                                         32));
            ctx.tensors[kO] = dist::encodeOperands(
                table.profile.outputs, dist::Encoding::Offset, res);
            if (arch.faults.adcFaultsEnabled()) {
                ctx.tensors[kO].codes = faults::perturbedAdcCodes(
                    arch.faults, ctx.tensors[kO].codes,
                    ctx.tensors[kO].maxCode());
            }
        }

        table.nodes.push_back(registry.require(klass).estimate(ctx));
    }
    return table;
}

std::string
archCacheKey(const Arch& arch)
{
    std::ostringstream oss;
    oss.precision(17);
    oss << arch.name << '\x1f' << arch.hierarchy.toYamlText() << '\x1f'
        << static_cast<int>(arch.rep.inputEncoding) << ' '
        << static_cast<int>(arch.rep.weightEncoding) << ' '
        << arch.rep.inputBits << ' ' << arch.rep.weightBits << ' '
        << arch.rep.outputBits << ' ' << arch.rep.dacBits << ' '
        << arch.rep.cellBits << ' ' << arch.technologyNm << ' '
        << arch.supplyVoltage << ' ' << arch.includeLeakage << '\x1f'
        << arch.faults.stuckOffRate << ' ' << arch.faults.stuckOnRate << ' '
        << arch.faults.conductanceSigma << ' ' << arch.faults.adcOffset
        << ' ' << arch.faults.adcNoiseSigma << ' ' << arch.faults.seed;
    return oss.str();
}

std::string
perActionKey(const Arch& arch, const workload::Layer& layer)
{
    std::ostringstream oss;
    oss << archCacheKey(arch) << '\x1f'
        << layer.network << '\x1f' << layer.name << '\x1f' << layer.index
        << ' ' << layer.networkLayers << ' ' << layer.inputBits << ' '
        << layer.weightBits << ' ' << layer.outputBits;
    for (std::int64_t d : layer.dims)
        oss << ' ' << d;
    return oss.str();
}

std::size_t
perActionTableFootprint(const PerActionTable& table)
{
    // Approximate heap bytes: the three operand PMFs dominate (16 bytes
    // per support point), plus the component estimates and the layer's
    // strings. The constant covers map-node and future overhead; the
    // budget is a capacity-planning knob, not an allocator audit.
    std::size_t bytes = 256;
    bytes += 16 * (table.profile.inputs.size() +
                   table.profile.weights.size() +
                   table.profile.outputs.size());
    bytes += table.nodes.size() * sizeof(models::ComponentEstimate);
    bytes += table.extLayer.name.size() + table.extLayer.network.size();
    return bytes;
}

namespace {

struct PerActionCache
{
    struct Entry
    {
        // Single-flight: the entry is a shared future so concurrent
        // misses on one key compute the table exactly once (the claimer)
        // while racers wait on the result. Besides deduplicating work,
        // this makes hit and miss counts scheduling-invariant
        // (misses == unique keys while nothing is evicted), which the
        // metrics determinism test relies on.
        std::shared_future<std::shared_ptr<const PerActionTable>> future;
        std::uint64_t lastUsed = 0; //!< recency tick (hits refresh it)
        std::size_t bytes = 0;      //!< footprint once completed
        bool ready = false;         //!< completed (evictable) vs in flight
    };

    std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t tick = 0;        //!< monotonic recency clock
    std::size_t totalBytes = 0;    //!< sum over completed entries
    std::size_t budgetBytes = 0;   //!< 0 = unlimited

    /** Evicts completed LRU entries until the budget fits. Caller holds
     *  the mutex. In-flight entries are pinned (their size is unknown
     *  and a waiter holds the future anyway). */
    void enforceBudgetLocked()
    {
        static obs::Counter& obs_evictions =
            obs::counter("engine.per_action_cache.evictions");
        if (budgetBytes == 0)
            return;
        while (totalBytes > budgetBytes) {
            auto victim = entries.end();
            for (auto it = entries.begin(); it != entries.end(); ++it) {
                if (!it->second.ready)
                    continue;
                if (victim == entries.end() ||
                    it->second.lastUsed < victim->second.lastUsed)
                    victim = it;
            }
            if (victim == entries.end())
                break; // everything resident is still in flight
            totalBytes -= victim->second.bytes;
            entries.erase(victim);
            ++evictions;
            obs_evictions.add();
        }
    }
};

PerActionCache&
perActionCache()
{
    static PerActionCache cache;
    return cache;
}

} // namespace

std::shared_ptr<const PerActionTable>
cachedPrecompute(const Arch& arch, const workload::Layer& layer)
{
    static obs::Counter& obs_hits =
        obs::counter("engine.per_action_cache.hits");
    static obs::Counter& obs_misses =
        obs::counter("engine.per_action_cache.misses");
    PerActionCache& cache = perActionCache();
    const std::string key = perActionKey(arch, layer);
    std::promise<std::shared_ptr<const PerActionTable>> promise;
    std::shared_future<std::shared_ptr<const PerActionTable>> future;
    RequestStats* request_stats = currentRequestStats();
    bool claimed = false;
    {
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto [it, inserted] = cache.entries.try_emplace(key);
        it->second.lastUsed = ++cache.tick;
        if (inserted) {
            it->second.future = promise.get_future().share();
            claimed = true;
            ++cache.misses;
            obs_misses.add();
            if (request_stats)
                request_stats->cacheMisses.fetch_add(
                    1, std::memory_order_relaxed);
        } else {
            ++cache.hits;
            obs_hits.add();
            if (request_stats)
                request_stats->cacheHits.fetch_add(
                    1, std::memory_order_relaxed);
        }
        future = it->second.future;
    }
    if (claimed) {
        // Synthesize outside the lock; waiters block on the future.
        std::size_t bytes = 64 + key.size();
        try {
            auto table = std::make_shared<const PerActionTable>(
                precompute(arch, layer));
            bytes += perActionTableFootprint(*table);
            promise.set_value(std::move(table));
        } catch (...) {
            // Keep the poisoned entry: the inputs are immutable, so a
            // retry would fail identically, and dropping it would make
            // hit/miss counts depend on whether a second caller arrived
            // before or after the failure — breaking the
            // misses == unique keys invariant sweeps over failing
            // design points rely on. Later callers rethrow the cached
            // exception (and count as hits).
            promise.set_exception(std::current_exception());
        }
        // Mark the entry completed and charge its footprint; the entry
        // may already be gone when clearPerActionCache() raced with the
        // computation. Eviction runs only now that the size is known.
        std::lock_guard<std::mutex> lock(cache.mutex);
        auto it = cache.entries.find(key);
        if (it != cache.entries.end() && !it->second.ready) {
            it->second.ready = true;
            it->second.bytes = bytes;
            cache.totalBytes += bytes;
            cache.enforceBudgetLocked();
        }
    }
    return future.get();
}

void
setPerActionCacheBudget(std::size_t bytes)
{
    PerActionCache& cache = perActionCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.budgetBytes = bytes;
    cache.enforceBudgetLocked();
}

bool
perActionCacheContains(const std::string& key)
{
    PerActionCache& cache = perActionCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return cache.entries.find(key) != cache.entries.end();
}

PerActionCacheStats
perActionCacheStats()
{
    PerActionCache& cache = perActionCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    return {cache.hits,      cache.misses,      cache.entries.size(),
            cache.totalBytes, cache.evictions,
            static_cast<std::uint64_t>(cache.budgetBytes)};
}

void
clearPerActionCache()
{
    PerActionCache& cache = perActionCache();
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.entries.clear();
    cache.hits = 0;
    cache.misses = 0;
    cache.evictions = 0;
    cache.totalBytes = 0;
    // The budget is configuration, not state: it survives a clear.
}

double
Evaluation::energyPerMacPj() const
{
    return macs > 0.0 ? energyPj / macs : 0.0;
}

double
Evaluation::topsPerWatt() const
{
    // TOPS/W = (2 ops/MAC x MACs) / (energy in pJ) exactly.
    return energyPj > 0.0 ? 2.0 * macs / energyPj : 0.0;
}

double
Evaluation::macsPerSecond() const
{
    return latencyNs > 0.0 ? macs / (latencyNs * 1e-9) : 0.0;
}

double
Evaluation::topsPerMm2() const
{
    double tops = 2.0 * macsPerSecond() / 1e12;
    double mm2 = areaUm2 / 1e6;
    return mm2 > 0.0 ? tops / mm2 : 0.0;
}

Evaluation
evaluate(const Arch& arch, const PerActionTable& table,
         const mapping::Mapping& mapping)
{
    if (arch.layout.empty())
        return evaluate(arch, table, mapping, nullptr);
    layout::ResolvedLayout resolved =
        layout::resolveLayout(arch.hierarchy, arch.layout);
    return evaluate(arch, table, mapping, &resolved);
}

namespace {

/**
 * The one scoring path behind scoreNest() and the search loop. Writes
 * into @p ev, reusing its per-node buffers: the search scores every
 * sample under every layout candidate into one scratch Evaluation, so
 * only an improving sample costs an allocation.
 */
void
scoreInto(Evaluation& ev, const Arch& arch, const PerActionTable& table,
          const mapping::Mapping& mapping, const mapping::NestResult& nest,
          const layout::ResolvedLayout* layout)
{
    // Start from a default Evaluation but keep the buffers' capacity.
    Evaluation fresh;
    fresh.nodeEnergyPj.swap(ev.nodeEnergyPj);
    fresh.nodeAreaUm2.swap(ev.nodeAreaUm2);
    ev = std::move(fresh);
    if (!nest.valid) {
        ev.nodeEnergyPj.clear();
        ev.nodeAreaUm2.clear();
        ev.invalidReason = nest.invalidReason;
        return;
    }

    const std::size_t n = arch.hierarchy.nodes.size();
    CIM_ASSERT(table.nodes.size() == n,
               "per-action table does not match the hierarchy");

    ev.valid = true;
    ev.steps = nest.steps;
    ev.utilization = nest.nodes.back().utilization;
    ev.nodeEnergyPj.assign(n, 0.0);
    ev.nodeAreaUm2.assign(n, 0.0);

    std::int64_t slice_ops = table.extLayer.size(workload::Dim::IB) *
                             table.extLayer.size(workload::Dim::WB);
    ev.macs = nest.totalOps / static_cast<double>(slice_ops);

    double step_time_ns = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const models::ComponentEstimate& est = table.nodes[i];
        const mapping::NodeCounts& counts = nest.nodes[i];

        double node_energy = 0.0;
        double node_actions = 0.0;
        for (TensorKind t : workload::kAllTensors) {
            int ti = tensorIndex(t);
            const mapping::TensorCounts& tc = counts.tensors[ti];
            node_energy += tc.reads * est.readEnergyPj[ti];
            node_energy += tc.fills * est.fillEnergyPj[ti];
            node_energy += tc.actions * est.actionEnergyPj[ti];
            node_actions += tc.reads + tc.fills + tc.actions;
        }

        // Analog arrays activate whole rows/columns: cells the mapping
        // leaves idle still conduct at a fraction of the active-cell
        // cost. This is what makes oversized arrays lose at the macro
        // level when tensors underutilize them (paper Fig. 2a).
        // (The attribute lookup runs only for partly idle nodes: every
        // sample is scored once per layout candidate.)
        const double idle_fraction =
            counts.usedInstances < counts.totalInstances
                ? arch.hierarchy.nodes[i].attrDouble("idle_fraction", 0.0)
                : 0.0;
        if (idle_fraction > 0.0) {
            double idle_ratio =
                static_cast<double>(counts.totalInstances) /
                    static_cast<double>(std::max<std::int64_t>(
                        counts.usedInstances, 1)) -
                1.0;
            node_energy *= 1.0 + idle_fraction * idle_ratio;
        }
        ev.nodeEnergyPj[i] = node_energy;
        ev.energyPj += node_energy;

        ev.nodeAreaUm2[i] =
            est.areaUm2 * static_cast<double>(counts.totalInstances);
        ev.areaUm2 += ev.nodeAreaUm2[i];

        // Physical layouts serialize bank-conflicting accesses: the node
        // issues extra cycles to serve the same traffic, so its timing
        // demand (not its energy) scales by the per-tensor slowdown.
        double timed_actions = node_actions;
        if (layout && layout->any && layout->nodeAny(i)) {
            spec::PerTensor<double> slow = models::bankConflictSlowdowns(
                *layout, arch.hierarchy, i, mapping);
            timed_actions = 0.0;
            for (TensorKind t : workload::kAllTensors) {
                int ti = tensorIndex(t);
                const mapping::TensorCounts& tc = counts.tensors[ti];
                timed_actions +=
                    (tc.reads + tc.fills + tc.actions) * slow[ti];
            }
            ev.bankConflictCycles +=
                (timed_actions - node_actions) /
                static_cast<double>(
                    std::max<std::int64_t>(counts.usedInstances, 1));
        }

        // Throughput: every component must keep pace; the step time is
        // set by the slowest (latency x actions per step per instance).
        if (est.latencyNs > 0.0 && timed_actions > 0.0) {
            double per_step_per_instance =
                timed_actions /
                (static_cast<double>(nest.steps) *
                 static_cast<double>(std::max<std::int64_t>(
                     counts.usedInstances, 1)));
            step_time_ns = std::max(step_time_ns,
                                    est.latencyNs * per_step_per_instance);
        }
    }
    ev.latencyNs = static_cast<double>(nest.steps) * step_time_ns;

    // Leakage: static power of every built instance over the execution
    // time (uW x ns = fJ). Charged per node so breakdowns include it.
    if (arch.includeLeakage && ev.latencyNs > 0.0) {
        for (std::size_t i = 0; i < n; ++i) {
            double leak_pj = table.nodes[i].staticPowerUw *
                             static_cast<double>(
                                 nest.nodes[i].totalInstances) *
                             ev.latencyNs * 1e-3;
            ev.nodeEnergyPj[i] += leak_pj;
            ev.energyPj += leak_pj;
        }
    }
}

} // namespace

Evaluation
scoreNest(const Arch& arch, const PerActionTable& table,
          const mapping::Mapping& mapping, const mapping::NestResult& nest,
          const layout::ResolvedLayout* layout)
{
    Evaluation ev;
    scoreInto(ev, arch, table, mapping, nest, layout);
    return ev;
}

Evaluation
evaluate(const Arch& arch, const PerActionTable& table,
         const mapping::Mapping& mapping,
         const layout::ResolvedLayout* layout)
{
    return scoreNest(
        arch, table, mapping,
        mapping::analyzeNest(arch.hierarchy, mapping, table.extLayer),
        layout);
}

namespace {

double
objectiveValue(Objective obj, const Evaluation& ev)
{
    switch (obj) {
      case Objective::Energy:
        return ev.energyPj;
      case Objective::Edp:
        return ev.energyPj * ev.latencyNs;
      case Objective::Delay:
        return ev.latencyNs;
    }
    CIM_PANIC("unknown objective");
}

/**
 * Shards per search. Fixed (never a function of the thread count or the
 * budget split) so the sampled mapspace — and therefore the winner — is
 * the same no matter how shards are scheduled over threads.
 */
constexpr int kSearchShards = 16;

/** Shards a budget of @p num_mappings samples splits over. */
int
searchShards(int num_mappings)
{
    return std::min(kSearchShards, std::max(num_mappings, 0));
}

/** What one shard's sample stream did, beyond the samples it drew. */
struct ShardDraw
{
    int rejected = 0;       //!< mapper samples that failed validation
    bool exhausted = false; //!< gave up before spending its budget
};

/**
 * The sample stream of shard @p shard, shared by every search consumer:
 * draws the shard's share of @p num_mappings (an even split, the
 * remainder going to the first shards) from Rng::forStream(seed, shard)
 * through Mapper::next, runs the nest analysis once per drawn mapping,
 * and hands (mapping, nest) to @p visit in sample order.
 */
template <typename Visit>
ShardDraw
drawShard(const Arch& arch, const PerActionTable& table,
          const mapping::Mapper& mapper, std::uint64_t seed,
          int num_mappings, int shard, const CancelToken* cancel,
          Visit&& visit)
{
    ShardDraw draw;
    Rng rng = Rng::forStream(seed, static_cast<std::uint64_t>(shard));
    const int shards = searchShards(num_mappings);
    const int budget =
        num_mappings / shards + (shard < num_mappings % shards ? 1 : 0);
    // One scratch mapping and nest result for the whole shard: a draw
    // reuses their buffers instead of allocating.
    mapping::Mapping m;
    mapping::NestResult nest;
    for (int i = 0; i < budget; ++i) {
        // Poll between samples, not mid-evaluation. The shard just stops
        // drawing; searchMappings notices the token after the join and
        // abandons the whole search, so a cancelled search never leaks a
        // best computed from a truncated sample set.
        if (cancel && cancel->cancelled())
            break;
        if (!mapper.next(rng, draw.rejected, m)) {
            draw.exhausted = true;
            break;
        }
        mapping::analyzeNest(arch.hierarchy, m, table.extLayer, nest);
        visit(m, nest);
    }
    return draw;
}

/** One (layout, shard) best under the (value, shard, sample) order. */
struct LayoutBest
{
    bool have = false;
    double value = 0.0;
    mapping::Mapping best;
    Evaluation eval;
};

/** One shard's outcome: a best per layout candidate, plus counts. */
struct ShardOutcome
{
    std::vector<LayoutBest> bests; //!< parallel to the layout candidates
    int evaluated = 0; //!< valid samples (each valid under every layout)
    int invalid = 0;   //!< invalid samples (invalid under every layout)
    ShardDraw draw;
};

/**
 * Runs one shard: each sample is drawn and analyzed once, then scored
 * under every layout candidate (nullptr = no layout). Only the
 * bank-conflict step time, and through it leakage, differ per layout.
 */
ShardOutcome
runSearchShard(const Arch& arch, const PerActionTable& table,
               const mapping::Mapper& mapper, Objective objective,
               std::uint64_t seed, int num_mappings, int shard,
               const std::vector<const layout::ResolvedLayout*>& layouts,
               const CancelToken* cancel)
{
    ShardOutcome out;
    out.bests.resize(layouts.size());
    Evaluation scratch;
    out.draw = drawShard(
        arch, table, mapper, seed, num_mappings, shard, cancel,
        [&](const mapping::Mapping& m, const mapping::NestResult& nest) {
            if (!nest.valid) {
                ++out.invalid;
                return;
            }
            ++out.evaluated;
            for (std::size_t l = 0; l < layouts.size(); ++l) {
                scoreInto(scratch, arch, table, m, nest, layouts[l]);
                double value = objectiveValue(objective, scratch);
                LayoutBest& b = out.bests[l];
                // Strict < keeps the lowest sample index among equals.
                if (!b.have || value < b.value) {
                    b.have = true;
                    b.value = value;
                    std::swap(b.eval, scratch);
                    b.best = m;
                }
            }
        });
    return out;
}

} // namespace

SearchResult
searchMappings(const Arch& arch, const workload::Layer& layer,
               int num_mappings, std::uint64_t seed, Objective objective,
               int threads, const CancelToken* cancel)
{
    CIM_SPAN("engine.search_layer");
    if (cancel)
        cancel->throwIfCancelled("mapping search for layer '" + layer.name +
                                 "'");
    std::shared_ptr<const PerActionTable> table =
        cachedPrecompute(arch, layer);
    const mapping::Mapper mapper(arch.hierarchy, table->extLayer,
                                 {.seed = seed});

    // Layout candidates: the co-search's outer enumeration, the single
    // fixed arch.layout, or the single empty "no layout" spec. The
    // candidate order is fixed (part of the determinism contract) and
    // every candidate is resolved once, up front.
    std::vector<layout::LayoutSpec> candidates;
    if (arch.layoutSearch)
        candidates = layout::enumerateLayouts(arch.hierarchy);
    if (candidates.empty())
        candidates.push_back(arch.layout);
    const bool layouts_active = arch.layoutSearch || !arch.layout.empty();
    std::vector<layout::ResolvedLayout> resolved;
    resolved.reserve(candidates.size());
    for (const layout::LayoutSpec& c : candidates)
        resolved.push_back(layout::resolveLayout(arch.hierarchy, c));
    std::vector<const layout::ResolvedLayout*> layouts;
    for (const layout::ResolvedLayout& r : resolved)
        layouts.push_back(r.any ? &r : nullptr);

    SearchResult result;
    bool have_best = false;
    double best_value = 0.0;
    std::size_t best_layout = 0;

    const std::size_t num_layouts = candidates.size();
    const int shards = searchShards(num_mappings);

    // One work unit per shard. A shard draws its Rng stream (seed,
    // shard) once and scores every sample under every layout candidate,
    // so all candidates rank the identical sample set and the winner is
    // a joint optimum over layout x mapping. The shard decomposition is
    // scheduling-independent, so results stay bit-identical for any
    // thread count; more than `shards` threads add nothing.
    std::vector<ShardOutcome> outcomes(static_cast<std::size_t>(shards));
    parallelFor(threads, outcomes.size(),
                [&](std::size_t s) {
                    outcomes[s] = runSearchShard(
                        arch, *table, mapper, objective, seed, num_mappings,
                        static_cast<int>(s), layouts, cancel);
                },
                cancel);

    // All-or-nothing: a token observed mid-search (by a shard's sample
    // loop, after parallelFor's own poll let every shard start) abandons
    // the search before any counter bumps, so cancelled searches leave no
    // trace in the deterministic obs counters.
    if (cancel)
        cancel->throwIfCancelled("mapping search for layer '" + layer.name +
                                 "'");

    // Deterministic merge realizing the (value, layout, shard, sample)
    // total order: layouts ascending; within a layout the greedy
    // heuristic ahead of every shard (it wins ties), then shards
    // ascending; strict improvement only. The evaluated/invalid/exhausted
    // counts are per (layout, shard) unit; the mapper's rejections are
    // per drawn sample.
    const mapping::Mapping greedy = mapper.greedy();
    const mapping::NestResult greedy_nest =
        mapping::analyzeNest(arch.hierarchy, greedy, table->extLayer);
    for (const ShardOutcome& out : outcomes)
        result.rejected += out.draw.rejected;
    for (std::size_t l = 0; l < num_layouts; ++l) {
        Evaluation ev = scoreNest(arch, *table, greedy, greedy_nest,
                                  layouts[l]);
        if (ev.valid) {
            ++result.evaluated;
            double value = objectiveValue(objective, ev);
            if (!have_best || value < best_value) {
                have_best = true;
                best_value = value;
                best_layout = l;
                result.best = std::move(ev);
                result.bestMapping = greedy;
            }
        } else {
            ++result.invalid;
        }
        for (ShardOutcome& out : outcomes) {
            result.evaluated += out.evaluated;
            result.invalid += out.invalid;
            result.exhausted += out.draw.exhausted ? 1 : 0;
            LayoutBest& b = out.bests[l];
            if (b.have && (!have_best || b.value < best_value)) {
                have_best = true;
                best_value = b.value;
                best_layout = l;
                result.best = std::move(b.eval);
                result.bestMapping = std::move(b.best);
            }
        }
    }
    if (layouts_active) {
        result.layoutsEvaluated = static_cast<int>(num_layouts);
        if (have_best)
            result.bestLayout = candidates[best_layout];
    }

    // Counted once, post-merge, so the totals are scheduling-invariant.
    static obs::Counter& c_eval = obs::counter("mapping.search.evaluated");
    static obs::Counter& c_invalid = obs::counter("mapping.search.invalid");
    static obs::Counter& c_rej = obs::counter("mapping.search.rejected");
    static obs::Counter& c_exh =
        obs::counter("mapping.search.exhausted_shards");
    c_eval.add(static_cast<std::uint64_t>(result.evaluated));
    c_invalid.add(static_cast<std::uint64_t>(result.invalid));
    c_rej.add(static_cast<std::uint64_t>(result.rejected));
    c_exh.add(static_cast<std::uint64_t>(result.exhausted));
    // The layout counters register lazily, like engine.cancelled_layers:
    // layout-free runs keep their golden-pinned counter set byte-for-byte.
    if (layouts_active) {
        static obs::Counter& c_layouts =
            obs::counter("mapping.layouts_evaluated");
        static obs::Counter& c_conflict =
            obs::counter("engine.bank_conflict_cycles");
        c_layouts.add(static_cast<std::uint64_t>(num_layouts));
        c_conflict.add(static_cast<std::uint64_t>(std::llround(
            std::max(result.best.bankConflictCycles, 0.0))));
    }

    if (result.exhausted > 0) {
        // Reported in drawn samples: every candidate scores the same draw.
        const int units = static_cast<int>(num_layouts);
        warn("mapping search for layer '", layer.name, "' on arch '",
             arch.name, "' stopped early in ", result.exhausted / units,
             " of ", shards, " shards: drew ",
             (result.evaluated + result.invalid) / units, " of ",
             num_mappings + 1, " budgeted samples (", result.rejected,
             " rejected by the mapper)");
    }
    if (!have_best) {
        CIM_FATAL("no valid mapping found for layer '", layer.name,
                  "' on arch '", arch.name, "' (", result.invalid,
                  " invalid samples, ", result.rejected, " rejected)");
    }
    return result;
}

namespace {

/** Classifies a captured exception for a LayerDiagnostic. */
LayerDiagnostic
classifyLayerError(std::size_t index, const workload::Layer& layer,
                   std::exception_ptr error)
{
    LayerDiagnostic diag;
    diag.layerIndex = index;
    diag.layer = layer.name;
    try {
        std::rethrow_exception(error);
    } catch (const FatalError& e) {
        diag.kind = "fatal";
        diag.message = e.what();
    } catch (const PanicError& e) {
        diag.kind = "panic";
        diag.message = e.what();
    } catch (const CancelledError& e) {
        diag.kind = "cancelled";
        diag.message = e.what();
    } catch (const std::exception& e) {
        diag.kind = "exception";
        diag.message = e.what();
    } catch (...) {
        diag.kind = "exception";
        diag.message = "unknown exception";
    }
    return diag;
}

/** Folds per-layer results (skipping invalid slots) into totals. */
NetworkEvaluation
accumulateNetwork(const workload::Network& network,
                  std::vector<SearchResult> results,
                  std::vector<LayerDiagnostic> diagnostics)
{
    static obs::Counter& c_ok = obs::counter("engine.layers.evaluated");
    static obs::Counter& c_failed = obs::counter("engine.layers.failed");
    NetworkEvaluation net;
    net.layers.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].best.valid) {
            c_ok.add();
            double reps = static_cast<double>(network.layers[i].count);
            net.energyPj += results[i].best.energyPj * reps;
            net.latencyNs += results[i].best.latencyNs * reps;
            net.macs += results[i].best.macs * reps;
            net.areaUm2 = std::max(net.areaUm2, results[i].best.areaUm2);
        }
        net.layers.push_back(std::move(results[i]));
    }
    // Cancelled layers are not failures: they would have succeeded given
    // time. Counting them apart keeps engine.layers.failed meaningful,
    // and the cancelled counter registers lazily so it never appears in
    // the (golden-pinned) counter set of uncancelled runs.
    std::size_t cancelled = 0;
    for (const LayerDiagnostic& d : diagnostics)
        cancelled += d.kind == "cancelled" ? 1 : 0;
    c_failed.add(diagnostics.size() - cancelled);
    if (cancelled > 0) {
        static obs::Counter& c_cancelled =
            obs::counter("engine.cancelled_layers");
        c_cancelled.add(cancelled);
    }
    net.diagnostics = std::move(diagnostics);
    // Library users get the run's metrics without going through the CLI.
    net.metrics = obs::snapshot();
    return net;
}

} // namespace

NetworkEvaluation
evaluateNetwork(const Arch& arch, const workload::Network& network,
                int mappings_per_layer, std::uint64_t seed,
                Objective objective, bool keep_going,
                const CancelToken* cancel)
{
    CIM_SPAN("engine.evaluate_network");
    std::vector<SearchResult> results(network.layers.size());
    std::vector<LayerDiagnostic> diagnostics;
    for (std::size_t i = 0; i < network.layers.size(); ++i) {
        const workload::Layer& layer = network.layers[i];
        // The layer boundary is where cancellation acts: layers already
        // searched keep their byte-identical results; this layer and the
        // rest are abandoned whole.
        if (cancel && cancel->cancelled()) {
            if (!keep_going)
                cancel->throwIfCancelled("network evaluation at layer '" +
                                         layer.name + "'");
            for (std::size_t j = i; j < network.layers.size(); ++j) {
                diagnostics.push_back(classifyLayerError(
                    j, network.layers[j],
                    std::make_exception_ptr(CancelledError(
                        cancel->reason(),
                        "layer '" + network.layers[j].name + "'"))));
            }
            break;
        }
        if (!keep_going) {
            results[i] = searchMappings(arch, layer, mappings_per_layer,
                                        seed + layer.index, objective, 1,
                                        cancel);
            continue;
        }
        try {
            results[i] = searchMappings(arch, layer, mappings_per_layer,
                                        seed + layer.index, objective, 1,
                                        cancel);
        } catch (...) {
            diagnostics.push_back(classifyLayerError(
                i, layer, std::current_exception()));
        }
    }
    return accumulateNetwork(network, std::move(results),
                             std::move(diagnostics));
}

NetworkEvaluation
evaluateNetworkParallel(const Arch& arch, const workload::Network& network,
                        int threads, int mappings_per_layer,
                        std::uint64_t seed, Objective objective,
                        bool keep_going, const CancelToken* cancel)
{
    if (threads <= 1 || network.layers.empty())
        return evaluateNetwork(arch, network, mappings_per_layer, seed,
                               objective, keep_going, cancel);

    // Layers fan out first; when the network has fewer distinct layers
    // than threads (one repeated transformer block, say), the leftover
    // threads split each layer's sample budget instead of idling.
    const std::size_t n = network.layers.size();
    const int outer = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(threads), n));
    const int inner = std::max(1, threads / outer);

    std::vector<SearchResult> results(n);
    auto work = [&](std::size_t i) {
        const workload::Layer& layer = network.layers[i];
        results[i] = searchMappings(arch, layer, mappings_per_layer,
                                    seed + layer.index, objective, inner,
                                    cancel);
    };

    std::vector<LayerDiagnostic> diagnostics;
    if (keep_going) {
        // Every layer runs regardless of failures; each failure becomes
        // a diagnostic on the result instead of an exception. A fired
        // cancel token makes the unrun layers come back as CancelledError
        // worker errors, which classify as kind-"cancelled" diagnostics.
        for (const WorkerError& we : parallelForAll(outer, n, work, cancel)) {
            diagnostics.push_back(classifyLayerError(
                we.index, network.layers[we.index], we.error));
        }
    } else {
        // parallelFor aggregates the captured worker exceptions and
        // rethrows after joining, so unmappable layers surface as the
        // same FatalError surface the serial path gives instead of
        // std::terminate.
        parallelFor(outer, n, work, cancel);
    }

    return accumulateNetwork(network, std::move(results),
                             std::move(diagnostics));
}

std::string
formatReport(const Arch& arch, const Evaluation& ev)
{
    std::ostringstream oss;
    oss << "=== " << arch.name << " ===\n";
    if (!ev.valid) {
        oss << "invalid mapping: " << ev.invalidReason << "\n";
        return oss.str();
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%-20s %14s %8s %12s\n", "component",
                  "energy (pJ)", "share", "area (um^2)");
    oss << line;
    for (std::size_t i = 0; i < arch.hierarchy.nodes.size(); ++i) {
        const spec::SpecNode& node = arch.hierarchy.nodes[i];
        if (node.kind == spec::SpecNode::Kind::Container &&
            ev.nodeEnergyPj[i] == 0.0) {
            continue; // free structural nodes clutter the report
        }
        double share = ev.energyPj > 0.0
            ? 100.0 * ev.nodeEnergyPj[i] / ev.energyPj
            : 0.0;
        double area = i < ev.nodeAreaUm2.size() ? ev.nodeAreaUm2[i] : 0.0;
        std::snprintf(line, sizeof(line), "%-20s %14.4g %7.1f%% %12.4g\n",
                      node.name.c_str(), ev.nodeEnergyPj[i], share, area);
        oss << line;
    }
    std::snprintf(line, sizeof(line),
                  "total: %.4g pJ | %.4g pJ/MAC | %.4g TOPS/W | "
                  "%.4g mm^2 | %.4g ms | util %.0f%%\n",
                  ev.energyPj, ev.energyPerMacPj(), ev.topsPerWatt(),
                  ev.areaUm2 / 1e6, ev.latencyNs / 1e6,
                  100.0 * ev.utilization);
    oss << line;
    return oss.str();
}

std::vector<ParetoPoint>
paretoFrontier(const Arch& arch, const workload::Layer& layer,
               int num_mappings, std::uint64_t seed)
{
    std::shared_ptr<const PerActionTable> table =
        cachedPrecompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table->extLayer, {.seed = seed});

    const layout::ResolvedLayout resolved =
        layout::resolveLayout(arch.hierarchy, arch.layout);
    const layout::ResolvedLayout* lay = resolved.any ? &resolved : nullptr;

    std::vector<ParetoPoint> points;
    auto consider = [&](const mapping::Mapping& m,
                        const mapping::NestResult& nest) {
        Evaluation ev = scoreNest(arch, *table, m, nest, lay);
        if (ev.valid)
            points.push_back({m, std::move(ev)});
    };
    const mapping::Mapping greedy = mapper.greedy();
    consider(greedy,
             mapping::analyzeNest(arch.hierarchy, greedy, table->extLayer));
    // The search's own shard streams, so for one seed the frontier
    // explores exactly the sample set the search ranks.
    for (int shard = 0; shard < searchShards(num_mappings); ++shard)
        drawShard(arch, *table, mapper, seed, num_mappings, shard, nullptr,
                  consider);
    if (points.empty())
        CIM_FATAL("no valid mapping found for layer '", layer.name,
                  "' on arch '", arch.name, "'");

    std::sort(points.begin(), points.end(),
              [](const ParetoPoint& a, const ParetoPoint& b) {
                  if (a.eval.energyPj != b.eval.energyPj)
                      return a.eval.energyPj < b.eval.energyPj;
                  return a.eval.latencyNs < b.eval.latencyNs;
              });
    // Sweep in energy order keeping strict latency improvements.
    std::vector<ParetoPoint> frontier;
    double best_latency = std::numeric_limits<double>::infinity();
    for (ParetoPoint& p : points) {
        if (p.eval.latencyNs < best_latency) {
            best_latency = p.eval.latencyNs;
            frontier.push_back(std::move(p));
        }
    }
    return frontier;
}

std::string
toCsv(const NetworkEvaluation& ev, const workload::Network& network)
{
    CIM_ASSERT(ev.layers.size() == network.layers.size(),
               "evaluation does not match the network");
    std::ostringstream oss;
    oss << "layer,count,macs,energy_pj,latency_ns,utilization,"
           "tops_per_watt\n";
    char line[256];
    for (std::size_t i = 0; i < ev.layers.size(); ++i) {
        const Evaluation& e = ev.layers[i].best;
        std::snprintf(line, sizeof(line),
                      "%s,%lld,%.0f,%.6g,%.6g,%.4f,%.6g\n",
                      network.layers[i].name.c_str(),
                      static_cast<long long>(network.layers[i].count),
                      e.macs, e.energyPj, e.latencyNs, e.utilization,
                      e.topsPerWatt());
        oss << line;
    }
    std::snprintf(line, sizeof(line),
                  "TOTAL,,%.0f,%.6g,%.6g,,%.6g\n", ev.macs, ev.energyPj,
                  ev.latencyNs, ev.topsPerWatt());
    oss << line;
    return oss.str();
}

std::string
toYamlErt(const Arch& arch, const PerActionTable& table)
{
    CIM_ASSERT(table.nodes.size() == arch.hierarchy.nodes.size(),
               "per-action table does not match the hierarchy");
    std::ostringstream oss;
    oss << "# energy reference table for arch '" << arch.name
        << "', layer '" << table.extLayer.name << "'\n";
    oss << "ert:\n";
    char line[160];
    for (std::size_t i = 0; i < table.nodes.size(); ++i) {
        const spec::SpecNode& node = arch.hierarchy.nodes[i];
        const models::ComponentEstimate& est = table.nodes[i];
        oss << "  - node: " << node.name << "\n";
        if (!node.klass.empty())
            oss << "    class: " << node.klass << "\n";
        auto emit = [&](const char* action,
                        const spec::PerTensor<double>& e) {
            for (workload::TensorKind t : workload::kAllTensors) {
                double pj = e[spec::tensorIndex(t)];
                if (pj <= 0.0)
                    continue;
                std::snprintf(line, sizeof(line),
                              "    %s_%s_pj: %.6g\n", action,
                              toLower(workload::tensorName(t)).c_str(),
                              pj);
                oss << line;
            }
        };
        emit("read", est.readEnergyPj);
        emit("fill", est.fillEnergyPj);
        emit("action", est.actionEnergyPj);
        if (est.areaUm2 > 0.0) {
            std::snprintf(line, sizeof(line), "    area_um2: %.6g\n",
                          est.areaUm2);
            oss << line;
        }
        if (est.latencyNs > 0.0) {
            std::snprintf(line, sizeof(line), "    latency_ns: %.6g\n",
                          est.latencyNs);
            oss << line;
        }
        if (est.staticPowerUw > 0.0) {
            std::snprintf(line, sizeof(line), "    static_uw: %.6g\n",
                          est.staticPowerUw);
            oss << line;
        }
    }
    return oss.str();
}

double
NetworkEvaluation::energyPerMacPj() const
{
    return macs > 0.0 ? energyPj / macs : 0.0;
}

double
NetworkEvaluation::topsPerWatt() const
{
    return energyPj > 0.0 ? 2.0 * macs / energyPj : 0.0;
}

} // namespace cimloop::engine
