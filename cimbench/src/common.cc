#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cimbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    double hi = v[mid];
    if (v.size() % 2)
        return hi;
    double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

double
relDiff(double a, double b)
{
    double d = std::fabs(a - b);
    return b == 0.0 ? d : d / std::fabs(b);
}

double
Tracer::medianNs(const std::string& name) const
{
    auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
}

double
Tracer::ratio(const std::string& name) const
{
    auto it = ratios_.find(name);
    if (it == ratios_.end() || it->second.second == 0.0)
        return 0.0;
    return it->second.first / it->second.second;
}

std::string
networkYaml(const cimloop::workload::Network& net)
{
    using namespace cimloop::workload;
    std::ostringstream out;
    out << "name: " << net.name << "\nlayers:\n";
    for (const Layer& l : net.layers) {
        out << "  - name: " << l.name << "\n    dims: {";
        for (int d = 0; d < kNumDims; ++d)
            out << (d ? ", " : "") << dimName(kAllDims[d]) << ": "
                << l.dims[d];
        out << "}\n    input_bits: " << l.inputBits
            << "\n    weight_bits: " << l.weightBits
            << "\n    output_bits: " << l.outputBits
            << "\n    count: " << l.count << "\n";
    }
    return out.str();
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, std::uint64_t seed)
{
    if (name == "search")
        return makeSearch(seed, false);
    if (name == "cosearch")
        return makeSearch(seed, true);
    if (name == "sweep")
        return makeSweep(seed);
    if (name == "refsim")
        return makeRefsim(seed);
    return nullptr;
}

} // namespace cimbench
