#include "cimloop/workload/layer.hh"

#include <sstream>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::workload {

const char*
dimName(Dim d)
{
    switch (d) {
      case Dim::N: return "N";
      case Dim::C: return "C";
      case Dim::K: return "K";
      case Dim::P: return "P";
      case Dim::Q: return "Q";
      case Dim::R: return "R";
      case Dim::S: return "S";
      case Dim::IB: return "IB";
      case Dim::WB: return "WB";
    }
    return "?";
}

Dim
dimFromString(const std::string& name)
{
    std::string n = toLower(name);
    if (n == "n")
        return Dim::N;
    if (n == "c")
        return Dim::C;
    if (n == "k")
        return Dim::K;
    if (n == "p")
        return Dim::P;
    if (n == "q")
        return Dim::Q;
    if (n == "r")
        return Dim::R;
    if (n == "s")
        return Dim::S;
    if (n == "ib")
        return Dim::IB;
    if (n == "wb")
        return Dim::WB;
    CIM_FATAL("unknown dimension name '", name, "'");
}

const char*
tensorName(TensorKind t)
{
    switch (t) {
      case TensorKind::Input: return "Inputs";
      case TensorKind::Weight: return "Weights";
      case TensorKind::Output: return "Outputs";
    }
    return "?";
}

TensorKind
tensorFromString(const std::string& name)
{
    std::string n = toLower(name);
    if (n == "input" || n == "inputs")
        return TensorKind::Input;
    if (n == "weight" || n == "weights")
        return TensorKind::Weight;
    if (n == "output" || n == "outputs")
        return TensorKind::Output;
    CIM_FATAL("unknown tensor name '", name, "'");
}

bool
isReductionDim(Dim d)
{
    return d == Dim::C || d == Dim::R || d == Dim::S || d == Dim::IB ||
           d == Dim::WB;
}

std::int64_t
Layer::macs() const
{
    std::int64_t total = 1;
    for (std::int64_t s : dims)
        total *= s;
    return total;
}

std::int64_t
Layer::tensorSize(TensorKind t) const
{
    return tensorTile(t, dims);
}

std::int64_t
Layer::tensorTile(TensorKind t, const DimSizes& ext)
{
    auto at = [&ext](Dim d) { return ext[dimIndex(d)]; };
    switch (t) {
      case TensorKind::Input:
        // Measured in slices: one element spans IB input-bit slices.
        return at(Dim::N) * at(Dim::C) * (at(Dim::P) + at(Dim::R) - 1) *
               (at(Dim::Q) + at(Dim::S) - 1) * at(Dim::IB);
      case TensorKind::Weight:
        // Measured in slices: one element spans WB weight-bit slices.
        return at(Dim::C) * at(Dim::K) * at(Dim::R) * at(Dim::S) *
               at(Dim::WB);
      case TensorKind::Output:
        // Outputs accumulate across IB/WB; footprint is unaffected.
        return at(Dim::N) * at(Dim::K) * at(Dim::P) * at(Dim::Q);
    }
    CIM_PANIC("unreachable tensor kind");
}

std::string
Layer::shapeString() const
{
    std::ostringstream oss;
    for (Dim d : kAllDims)
        oss << dimName(d) << size(d) << " ";
    std::string s = oss.str();
    if (!s.empty())
        s.pop_back();
    return s;
}

std::int64_t
Network::totalMacs() const
{
    std::int64_t total = 0;
    for (const Layer& l : layers)
        total += l.macs() * l.count;
    return total;
}

Layer
convLayer(const std::string& name, std::int64_t n, std::int64_t c,
          std::int64_t k, std::int64_t p, std::int64_t q, std::int64_t r,
          std::int64_t s)
{
    CIM_ASSERT(n >= 1 && c >= 1 && k >= 1 && p >= 1 && q >= 1 && r >= 1 &&
                   s >= 1,
               "layer '", name, "' has a non-positive dimension");
    Layer l;
    l.name = name;
    l.dims[dimIndex(Dim::N)] = n;
    l.dims[dimIndex(Dim::C)] = c;
    l.dims[dimIndex(Dim::K)] = k;
    l.dims[dimIndex(Dim::P)] = p;
    l.dims[dimIndex(Dim::Q)] = q;
    l.dims[dimIndex(Dim::R)] = r;
    l.dims[dimIndex(Dim::S)] = s;
    return l;
}

Layer
matmulLayer(const std::string& name, std::int64_t m,
            std::int64_t k_reduction, std::int64_t n_out)
{
    return convLayer(name, 1, k_reduction, n_out, m, 1, 1, 1);
}

} // namespace cimloop::workload
