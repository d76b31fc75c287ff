/**
 * @file
 * The `search` and `cosearch` workloads: one operation is one
 * engine::searchMappings call for one layer, with the per-action cache
 * warm. `search` covers every built-in macro on four networks of
 * different tensor shapes; `cosearch` turns Arch::layoutSearch on for a
 * smaller set, so the layout candidates and the bank-conflict model run
 * on every sample.
 */
#include <cmath>
#include <optional>
#include <stdexcept>

#include "bench.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/mapping/nest.hh"
#include "cimloop/models/bankconflict.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/spec/hierarchy.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

namespace cimbench {

namespace {

using namespace cimloop;

/** Mapping budget per layer search (the CLI's --mappings). */
constexpr int kBudget = 500;

/** Sample streams a search splits its budget over (kSearchShards in
 *  src/engine/evaluate.cc, which the library does not export). */
constexpr int kShards = 16;

double
objectiveOf(engine::Objective o, const engine::Evaluation& ev)
{
    switch (o) {
      case engine::Objective::Energy:
        return ev.energyPj;
      case engine::Objective::Edp:
        return ev.energyPj * ev.latencyNs;
      case engine::Objective::Delay:
        return ev.latencyNs;
    }
    return NAN;
}

class SearchWorkload : public Workload
{
  public:
    SearchWorkload(std::uint64_t seed, bool cosearch)
        : cosearch_(cosearch),
          objective_(cosearch ? engine::Objective::Edp
                              : engine::Objective::Energy)
    {
        std::vector<std::string> macros =
            cosearch ? std::vector<std::string>{"base", "A"}
                     : std::vector<std::string>{"base", "A", "B", "C", "D",
                                                "digital"};
        std::vector<std::string> nets =
            cosearch ? std::vector<std::string>{"resnet18", "mobilenetv3"}
                     : std::vector<std::string>{"resnet18", "mobilenetv3",
                                                "vit", "gpt2"};
        // The specs the set-up parses, and what it must parse them into.
        for (const std::string& m : macros) {
            engine::Arch arch = macros::macroByName(m);
            arch.layoutSearch = cosearch;
            archText_.push_back(arch.hierarchy.toYamlText());
            archTemplate_.push_back(arch);
        }
        for (const std::string& n : nets) {
            workload::Network net = workload::networkByName(n);
            netText_.push_back(networkYaml(net));
            netExpected_.push_back(net);
        }
        // Each search draws from its own seed: layers of equal shape would
        // otherwise score the same samples.
        for (std::size_t a = 0; a < macros.size(); ++a)
            for (std::size_t n = 0; n < nets.size(); ++n)
                for (std::size_t l = 0; l < netExpected_[n].layers.size();
                     ++l)
                    items_.push_back(
                        {a, n, l,
                         Rng::forStream(seed, items_.size()).next()});
        results_.resize(items_.size());

        setup(nullptr);
        for (std::size_t a = 0; a < archs_.size(); ++a)
            if (engine::archCacheKey(archs_[a]) !=
                engine::archCacheKey(archTemplate_[a]))
                throw std::runtime_error("parsed spec of macro " +
                                         macros[a] + " differs from the "
                                         "built one");
        for (std::size_t n = 0; n < nets_.size(); ++n)
            for (std::size_t l = 0; l < nets_[n].layers.size(); ++l)
                if (engine::perActionKey(archs_[0], nets_[n].layers[l]) !=
                    engine::perActionKey(archs_[0],
                                         netExpected_[n].layers[l]))
                    throw std::runtime_error("parsed network " + nets[n] +
                                             " differs from the built one");
    }

    void setup(Tracer* tr) override
    {
        engine::clearPerActionCache();
        archs_.clear();
        nets_.clear();
        tables_.clear();
        for (std::size_t a = 0; a < archText_.size(); ++a) {
            yaml::Node doc = timed(tr, "yaml.parse_us", [&] {
                return yaml::parse(archText_[a]);
            });
            engine::Arch arch = archTemplate_[a];
            arch.hierarchy = timed(tr, "spec.build_us", [&] {
                return spec::Hierarchy::fromYaml(doc,
                                                 archTemplate_[a].name);
            });
            archs_.push_back(std::move(arch));
        }
        for (const std::string& text : netText_) {
            yaml::Node doc =
                timed(tr, "yaml.parse_us", [&] { return yaml::parse(text); });
            nets_.push_back(timed(tr, "spec.build_us", [&] {
                return workload::networkFromYaml(doc);
            }));
        }
        for (const Item& it : items_) {
            const engine::Arch& arch = archs_[it.arch];
            const workload::Layer& layer = nets_[it.net].layers[it.layer];
            if (tr)
                traceColdPrecompute(arch, layer, *tr);
            tables_.push_back(engine::cachedPrecompute(arch, layer));
        }
    }

    std::size_t roundSize() const override { return items_.size(); }

    void run(std::size_t i, Tracer* tr) override
    {
        const engine::Arch& arch = archs_[items_[i].arch];
        const workload::Layer& layer = layerOf(i);
        static obs::Counter& samples = obs::counter("mapping.mapper.samples");
        if (tr)
            timed(tr, "engine.cache_hit_us", [&] {
                return engine::cachedPrecompute(arch, layer);
            });
        std::uint64_t s0 = samples.value();
        results_[i] = timed(tr, "engine.search_layer_ms", [&] {
            return engine::searchMappings(arch, layer, kBudget,
                                          items_[i].seed, objective_, 1);
        });
        if (!tr)
            return;
        tr->addRatio("engine.samples_per_mapping",
                     static_cast<double>(samples.value() - s0), kBudget);
        if (!cosearch_) {
            replay(arch, *tables_[i], items_[i].seed, nullptr, *tr);
            return;
        }
        for (const layout::LayoutSpec& c :
             layout::enumerateLayouts(arch.hierarchy)) {
            layout::ResolvedLayout r = timed(tr, "layout.resolve_us", [&] {
                return layout::resolveLayout(arch.hierarchy, c);
            });
            replay(arch, *tables_[i], items_[i].seed, r.any ? &r : nullptr,
                   *tr);
        }
    }

    std::string check(std::size_t i) override
    {
        const engine::Arch& arch = archs_[items_[i].arch];
        const workload::Layer& layer = layerOf(i);
        const engine::PerActionTable& table = *tables_[i];
        const engine::SearchResult& r = results_[i];
        if (!r.best.valid)
            return "no valid best mapping";

        // Best is no worse than the greedy mapping, scored here (under
        // the default layout for co-search).
        engine::Arch plain = arch;
        plain.layoutSearch = false;
        if (cosearch_)
            plain.layout = layout::defaultLayout(arch.hierarchy);
        mapping::Mapping greedy =
            mapping::Mapper(arch.hierarchy, table.extLayer).greedy();
        engine::Evaluation g = engine::evaluate(plain, table, greedy);
        double best = objectiveOf(objective_, r.best);
        double ref = objectiveOf(objective_, g);
        if (!g.valid || !(best <= ref))
            return "best objective " + std::to_string(best) +
                   " above greedy " + std::to_string(ref);

        // Re-evaluating the winner reproduces it.
        engine::Arch winner = plain;
        winner.layout = r.bestLayout;
        engine::Evaluation again =
            engine::evaluate(winner, table, r.bestMapping);
        if (relDiff(again.energyPj, r.best.energyPj) > 1e-12 ||
            relDiff(again.latencyNs, r.best.latencyNs) > 1e-12)
            return "re-evaluation of the best mapping differs";

        double sum = 0.0;
        for (double e : r.best.nodeEnergyPj)
            sum += e;
        if (relDiff(sum, r.best.energyPj) > 1e-9)
            return "energy is not the sum of node energies";

        double macs = 1.0;
        for (workload::Dim d :
             {workload::Dim::N, workload::Dim::C, workload::Dim::K,
              workload::Dim::P, workload::Dim::Q, workload::Dim::R,
              workload::Dim::S})
            macs *= static_cast<double>(layer.size(d));
        if (r.best.macs != macs)
            return "macs " + std::to_string(r.best.macs) + " != " +
                   std::to_string(macs);

        if (cosearch_) {
            // Without leakage (charged over latency), a layout changes
            // no energy and never shortens the layer.
            engine::Arch laid = winner;
            laid.includeLeakage = false;
            engine::Arch ideal = laid;
            ideal.layout = {};
            engine::Evaluation el =
                engine::evaluate(laid, table, r.bestMapping);
            engine::Evaluation ei =
                engine::evaluate(ideal, table, r.bestMapping);
            if (relDiff(el.energyPj, ei.energyPj) > 1e-12)
                return "layout changed dynamic energy";
            if (el.latencyNs < ei.latencyNs * (1.0 - 1e-12))
                return "layout lowered latency";
        }
        logRatioSum_ += std::log(best / ref);
        ++checked_;
        return "";
    }

    double work(std::size_t) const override { return kBudget; }

    /** Geometric mean of best / greedy objective. */
    double quality() const override
    {
        return checked_ ? std::exp(logRatioSum_ / checked_) : NAN;
    }

  private:
    struct Item
    {
        std::size_t arch, net, layer;
        std::uint64_t seed;
    };

    const workload::Layer& layerOf(std::size_t i) const
    {
        return nets_[items_[i].net].layers[items_[i].layer];
    }

    /** Times a cold engine::precompute and the dist calls it makes. */
    static void traceColdPrecompute(const engine::Arch& arch,
                                    const workload::Layer& layer,
                                    Tracer& tr)
    {
        engine::PerActionTable t = timed(&tr, "engine.precompute_us", [&] {
            return engine::precompute(arch, layer);
        });
        dist::EncodedTensor in = timed(&tr, "dist.encode_us", [&] {
            return dist::encodeOperands(t.profile.inputs,
                                        arch.rep.inputEncoding,
                                        arch.inputBitsFor(layer));
        });
        dist::EncodedTensor wt = timed(&tr, "dist.encode_us", [&] {
            return dist::encodeOperands(t.profile.weights,
                                        arch.rep.weightEncoding,
                                        arch.weightBitsFor(layer));
        });
        timed(&tr, "dist.slice_mixture_us",
              [&] { return dist::sliceMixture(in, arch.rep.dacBits); });
        timed(&tr, "dist.slice_mixture_us",
              [&] { return dist::sliceMixture(wt, arch.rep.cellBits); });
    }

    /**
     * Replays one search through the public calls it makes, timing each:
     * the greedy mapping's evaluate, then every shard's samples as
     * searchMappings draws them (kShards streams Rng::forStream(seed,
     * shard), the budget split evenly with the remainder on the first
     * shards) through Mapper::next, analyzeNest, evaluate and, with a
     * layout, bankConflictSlowdowns.
     */
    static void replay(const engine::Arch& arch,
                       const engine::PerActionTable& t, std::uint64_t seed,
                       const layout::ResolvedLayout* lay, Tracer& tr)
    {
        mapping::Mapper mapper(arch.hierarchy, t.extLayer, {.seed = seed});
        const char* eval_name =
            lay ? "engine.evaluate_layout_us" : "engine.evaluate_us";
        mapping::Mapping greedy = mapper.greedy();
        timed(&tr, eval_name,
              [&] { return engine::evaluate(arch, t, greedy, lay); });
        int rejected = 0;
        double accepted = 0.0, valid = 0.0;
        for (int shard = 0; shard < kShards; ++shard) {
            Rng rng = Rng::forStream(seed, static_cast<std::uint64_t>(shard));
            int budget = kBudget / kShards + (shard < kBudget % kShards);
            for (int s = 0; s < budget; ++s) {
                std::optional<mapping::Mapping> m =
                    timed(&tr, "mapping.sample_us",
                          [&] { return mapper.next(rng, rejected); });
                if (!m)
                    break;
                ++accepted;
                mapping::NestResult nest = timed(&tr, "mapping.nest_us", [&] {
                    return mapping::analyzeNest(arch.hierarchy, *m,
                                                t.extLayer);
                });
                if (!nest.valid)
                    continue;
                ++valid;
                timed(&tr, eval_name,
                      [&] { return engine::evaluate(arch, t, *m, lay); });
                if (!lay)
                    continue;
                for (std::size_t n = 0; n < arch.hierarchy.nodes.size(); ++n)
                    if (lay->nodeAny(n))
                        timed(&tr, "models.bank_conflict_us", [&] {
                            return models::bankConflictSlowdowns(
                                *lay, arch.hierarchy, n, *m);
                        });
            }
        }
        tr.addRatio("mapping.valid_ratio", valid, accepted + rejected);
    }

    bool cosearch_;
    engine::Objective objective_;

    std::vector<std::string> archText_, netText_;
    std::vector<engine::Arch> archTemplate_;
    std::vector<workload::Network> netExpected_;
    std::vector<Item> items_;

    std::vector<engine::Arch> archs_;
    std::vector<workload::Network> nets_;
    std::vector<std::shared_ptr<const engine::PerActionTable>> tables_;
    std::vector<engine::SearchResult> results_;

    double logRatioSum_ = 0.0;
    std::size_t checked_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSearch(std::uint64_t seed, bool cosearch)
{
    return std::make_unique<SearchWorkload>(seed, cosearch);
}

} // namespace cimbench
