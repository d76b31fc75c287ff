/**
 * @file
 * The `refsim` workload: one operation simulates one layer value by value
 * (refsim::simulateValueLevel) and then estimates it statistically from
 * the recorded operand PMFs; the last layer of a round also runs the
 * fixed-energy baseline for every layer. It is the one workload that
 * measures the model's accuracy (paper Fig. 6).
 */
#include <algorithm>
#include <cmath>

#include "bench.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/refsim/refsim.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

namespace cimbench {

namespace {

using namespace cimloop;

/** Paper Fig. 6 bounds on the statistical model's error. */
constexpr double kMaxAvgErr = 0.03;
constexpr double kMaxLayerErr = 0.07;

class RefsimWorkload : public Workload
{
  public:
    explicit RefsimWorkload(std::uint64_t seed)
    {
        cfg_.rows = 128;
        cfg_.cols = 128;
        cfg_.adcBits = 5;
        cfg_.maxVectors = 32;
        cfg_.seed = seed;
        cfg_.threads = 1;

        // ResNet18 from conv1 through the first 256-channel layer, with
        // output planes cut to 7x7: value-level cost grows with the values
        // and weights simulated, and the deeper layers would take seconds
        // each. Eleven layers, an odd count, keep the median operation one
        // layer's time.
        workload::Network full = workload::resnet18();
        workload::Network net;
        net.name = full.name;
        for (std::size_t i = 0; i < 11; ++i) {
            workload::Layer l = full.layers[i];
            for (workload::Dim d : {workload::Dim::P, workload::Dim::Q})
                l.dims[workload::dimIndex(d)] =
                    std::min<std::int64_t>(l.size(d), 7);
            net.layers.push_back(l);
        }
        text_ = networkYaml(net);
        setup(nullptr);
        std::size_t n = net_.layers.size();
        truth_.resize(n);
        stat_.resize(n);
        fixed_.resize(n);
        profiles_.resize(n);
        vectors_.resize(n);
    }

    void setup(Tracer* tr) override
    {
        yaml::Node doc =
            timed(tr, "yaml.parse_us", [&] { return yaml::parse(text_); });
        net_ = timed(tr, "spec.build_us",
                     [&] { return workload::networkFromYaml(doc); });
    }

    std::size_t roundSize() const override { return net_.layers.size(); }

    void run(std::size_t i, Tracer* tr) override
    {
        static obs::Counter& vectors =
            obs::counter("refsim.vectors.simulated");
        const workload::Layer& layer = net_.layers[i];
        std::uint64_t v0 = vectors.value();
        truth_[i] = timed(tr, "refsim.value_level_ms", [&] {
            return refsim::simulateValueLevel(cfg_, layer, &profiles_[i]);
        });
        vectors_[i] = static_cast<double>(vectors.value() - v0);
        stat_[i] = timed(tr, "refsim.statistical_us", [&] {
            return refsim::estimateStatistical(cfg_, layer, profiles_[i]);
        });
        if (i + 1 < roundSize())
            return;
        dist::OperandProfile avg = refsim::averageProfiles(profiles_);
        for (std::size_t j = 0; j < roundSize(); ++j)
            fixed_[j] =
                refsim::estimateFixedEnergy(cfg_, net_.layers[j], avg);
    }

    std::string check(std::size_t i) override
    {
        const refsim::RefSimResult& t = truth_[i];
        for (double c : {t.dacPj, t.cellPj, t.adcPj, t.digitalPj,
                         t.bufferPj})
            if (!(c >= 0.0) || !std::isfinite(c))
                return "value-level component " + std::to_string(c);
        double parts = t.dacPj + t.cellPj + t.adcPj + t.digitalPj +
                       t.bufferPj;
        if (!(t.totalPj() > 0.0) || relDiff(t.totalPj(), parts) > 1e-12)
            return "value-level total is not the sum of its components";
        if (vectors_[i] < 1.0)
            return "no vectors simulated";
        double err = relDiff(stat_[i].totalPj(), t.totalPj());
        if (!(err <= kMaxLayerErr))
            return "statistical error " + std::to_string(100 * err) +
                   "% above " + std::to_string(100 * kMaxLayerErr) + "%";
        if (i + 1 < roundSize())
            return "";

        double stat_sum = 0.0, fixed_sum = 0.0;
        for (std::size_t j = 0; j < roundSize(); ++j) {
            stat_sum += relDiff(stat_[j].totalPj(), truth_[j].totalPj());
            fixed_sum += relDiff(fixed_[j].totalPj(), truth_[j].totalPj());
        }
        avgErr_ = stat_sum / static_cast<double>(roundSize());
        if (!(avgErr_ <= kMaxAvgErr))
            return "average statistical error " +
                   std::to_string(100 * avgErr_) + "% above 3%";
        if (!(stat_sum < fixed_sum))
            return "statistical model no better than fixed-energy";
        return "";
    }

    double work(std::size_t i) const override { return vectors_[i]; }

    /** Mean relative error of the statistical model vs value level. */
    double quality() const override { return avgErr_; }

  private:
    refsim::RefSimConfig cfg_;
    std::string text_;
    workload::Network net_;
    std::vector<refsim::RefSimResult> truth_, stat_, fixed_;
    std::vector<dist::OperandProfile> profiles_;
    std::vector<double> vectors_;
    double avgErr_ = NAN;
};

} // namespace

std::unique_ptr<Workload>
makeRefsim(std::uint64_t seed)
{
    return std::make_unique<RefsimWorkload>(seed);
}

} // namespace cimbench
