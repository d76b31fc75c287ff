/**
 * @file
 * The `sweep` workload: one operation is one dse::runSweep over a grid
 * of base-macro designs on ResNet18 with a small mapper budget, started
 * from a cold per-action cache. Cold precompute is most of each point;
 * the `mappings` axis makes half the lookups cross-point cache hits.
 */
#include <algorithm>
#include <cmath>
#include <sstream>

#include "bench.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

namespace cimbench {

namespace {

using namespace cimloop;

/** Grid axes; every design maps, so no point fails by design. */
const std::vector<std::pair<std::string, std::vector<double>>> kAxes = {
    {"array", {64, 128, 256, 512}},
    {"dac_bits", {1, 2, 4}},
    {"cell_bits", {1, 2}},
    {"voltage", {0.9, 1.1}},
    {"mappings", {2, 4}},
};

class SweepWorkload : public Workload
{
  public:
    explicit SweepWorkload(std::uint64_t seed)
    {
        std::ostringstream y;
        y << "sweep:\n  name: cimbench-grid\n  macro: base\n"
             "  network: resnet18\n  objective: energy\n  seed: "
          << seed << "\n  pareto: [energy_per_mac, latency]\n  axes:\n";
        for (const auto& [field, values] : kAxes) {
            y << "    - field: " << field << "\n      values: [";
            for (std::size_t v = 0; v < values.size(); ++v)
                y << (v ? ", " : "") << values[v];
            y << "]\n";
        }
        text_ = y.str();
        layers_ = workload::resnet18().layers.size();
    }

    void setup(Tracer* tr) override
    {
        yaml::Node doc =
            timed(tr, "yaml.parse_us", [&] { return yaml::parse(text_); });
        spec_ = timed(tr, "spec.build_us",
                      [&] { return dse::SweepSpec::fromYaml(doc); });
    }

    std::size_t roundSize() const override { return 1; }

    void prepare(std::size_t) override { engine::clearPerActionCache(); }

    void run(std::size_t, Tracer* tr) override
    {
        static obs::Counter& hits =
            obs::counter("engine.per_action_cache.hits");
        static obs::Counter& misses =
            obs::counter("engine.per_action_cache.misses");
        std::uint64_t h0 = hits.value(), m0 = misses.value();
        result_ = dse::runSweep(spec_);
        liveHits_ = hits.value() - h0;
        liveMisses_ = misses.value() - m0;
        if (tr)
            replay(*tr);
    }

    std::string check(std::size_t) override
    {
        const dse::SweepResult& r = result_;
        std::size_t expected = 1;
        for (const auto& axis : kAxes)
            expected *= axis.second.size();
        if (r.totalPoints != expected || r.points.size() != expected)
            return "point count " + std::to_string(r.points.size()) +
                   " != " + std::to_string(expected);
        if (r.evaluated != expected)
            return std::to_string(expected - r.evaluated) +
                   " points did not evaluate";

        // The frontier by an all-pairs non-dominance pass.
        std::vector<std::size_t> frontier;
        for (const dse::PointResult& a : r.points) {
            bool dominated = false;
            for (const dse::PointResult& b : r.points)
                dominated |= b.energyPerMacPj <= a.energyPerMacPj &&
                             b.latencyNs <= a.latencyNs &&
                             (b.energyPerMacPj < a.energyPerMacPj ||
                              b.latencyNs < a.latencyNs);
            if (!dominated)
                frontier.push_back(a.point.index);
        }
        if (frontier != r.frontier)
            return "frontier differs from the all-pairs pass";

        std::size_t best = 0;
        for (std::size_t p = 1; p < r.points.size(); ++p)
            if (r.points[p].energyPerMacPj < r.points[best].energyPerMacPj)
                best = p;
        if (r.bestIndex != r.points[best].point.index)
            return "best point is not the energy_per_mac argmin";

        if (r.cacheHits + r.cacheMisses != expected * layers_ ||
            r.cacheHits != liveHits_ || r.cacheMisses != liveMisses_)
            return "cache economy " + std::to_string(r.cacheHits) + "+" +
                   std::to_string(r.cacheMisses) + " (live " +
                   std::to_string(liveHits_) + "+" +
                   std::to_string(liveMisses_) + ") != points x layers";

        // Every point's energy is no worse than its greedy mappings'.
        logRatioSum_ = 0.0;
        for (const dse::PointResult& p : r.points) {
            engine::Arch arch =
                macros::macroByName(p.point.macroName, p.point.params);
            double greedy = 0.0;
            for (const workload::Layer& l : workload::resnet18().layers) {
                auto t = engine::cachedPrecompute(arch, l);
                engine::Evaluation ev = engine::evaluate(
                    arch, *t,
                    mapping::Mapper(arch.hierarchy, t->extLayer).greedy());
                greedy += ev.energyPj * static_cast<double>(l.count);
            }
            if (!(p.energyPj <= greedy * (1.0 + 1e-12)))
                return "point " + std::to_string(p.point.index) +
                       " energy above its greedy mappings'";
            logRatioSum_ += std::log(p.energyPj / greedy);
        }
        logRatioSum_ /= static_cast<double>(r.points.size());
        return "";
    }

    double work(std::size_t) const override
    {
        return static_cast<double>(result_.totalPoints);
    }

    /** Geometric mean over points of energy / greedy-mapping energy. */
    double quality() const override { return std::exp(logRatioSum_); }

  private:
    /** Times the per-point calls the sweep makes: materializePoint,
     *  ParetoFront::insert, cold precompute and cache hits. */
    void replay(Tracer& tr) const
    {
        dse::ParetoFront front(2);
        for (const dse::PointResult& p : result_.points) {
            dse::SweepPoint pt = timed(&tr, "dse.materialize_us", [&] {
                return dse::materializePoint(spec_, p.point.index);
            });
            timed(&tr, "dse.pareto_insert_us", [&] {
                return front.insert(pt.index,
                                    {p.energyPerMacPj, p.latencyNs});
            });
            engine::Arch arch = macros::macroByName(pt.macroName, pt.params);
            for (const workload::Layer& l : workload::resnet18().layers) {
                timed(&tr, "engine.cache_hit_us",
                      [&] { return engine::cachedPrecompute(arch, l); });
                if (pt.coords.back() == 0) // one cold precompute per design
                    timed(&tr, "engine.precompute_us",
                          [&] { return engine::precompute(arch, l); });
            }
        }
    }

    std::string text_;
    std::size_t layers_ = 0;
    dse::SweepSpec spec_;
    dse::SweepResult result_;
    std::uint64_t liveHits_ = 0, liveMisses_ = 0;
    double logRatioSum_ = NAN;
};

} // namespace

std::unique_ptr<Workload>
makeSweep(std::uint64_t seed)
{
    return std::make_unique<SweepWorkload>(seed);
}

} // namespace cimbench
