/**
 * @file
 * DNN workload model: layers as extended-Einsum tensor operations.
 *
 * Following Timeloop, every layer is expressed over seven canonical
 * dimensions (the CNN-layer form; matrix multiplies set the unused spatial
 * dims to 1):
 *
 *   N  batch
 *   C  input channels (reduction)
 *   K  output channels
 *   P  output rows
 *   Q  output columns
 *   R  filter rows (reduction)
 *   S  filter columns (reduction)
 *
 * plus two *representation* dimensions that expose bit slicing to the
 * mapper (paper Sec. III-C1b: "Computations across multiple slices are
 * exposed to the Timeloop mapper"):
 *
 *   IB input-bit slices (relevant to Inputs; a reduction for Outputs)
 *   WB weight-bit slices (relevant to Weights; a reduction for Outputs)
 *
 * Tensor projections (stride 1):
 *   Weights[k][c][r][s][wb],  Outputs[n][k][p][q],
 *   Inputs[n][c][p + r][q + s][ib]  (halo: H = P + R - 1, W = Q + S - 1).
 *
 * Workload layers default IB = WB = 1; the engine sets them from the
 * architecture's representation choices (DAC resolution, cell bits).
 */
#ifndef CIMLOOP_WORKLOAD_LAYER_HH
#define CIMLOOP_WORKLOAD_LAYER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cimloop::workload {

/** The seven Einsum dimensions plus the two bit-slice dimensions. */
enum class Dim { N, C, K, P, Q, R, S, IB, WB };

/** Number of Einsum dimensions. */
constexpr int kNumDims = 9;

/** All dimensions, for iteration. */
constexpr std::array<Dim, kNumDims> kAllDims = {
    Dim::N, Dim::C, Dim::K, Dim::P, Dim::Q, Dim::R, Dim::S, Dim::IB,
    Dim::WB};

/** Single-letter name of a dimension. */
const char* dimName(Dim d);

/** Parses a dimension name ("N", "C", ..., "IB", "WB"); fatal if unknown. */
Dim dimFromString(const std::string& name);

/** Index of a dimension in a DimSizes array. */
constexpr int
dimIndex(Dim d)
{
    return static_cast<int>(d);
}

/** Per-dimension extents (sizes, tile extents, loop factors, ...). */
using DimSizes = std::array<std::int64_t, kNumDims>;

/** DimSizes filled with ones. */
constexpr DimSizes
onesDims()
{
    return {1, 1, 1, 1, 1, 1, 1, 1, 1};
}

/** The three operand tensors of a layer. */
enum class TensorKind { Input, Weight, Output };

/** Number of tensors. */
constexpr int kNumTensors = 3;

/** All tensors, for iteration. */
constexpr std::array<TensorKind, kNumTensors> kAllTensors = {
    TensorKind::Input, TensorKind::Weight, TensorKind::Output};

/** Name of a tensor kind ("Inputs", "Weights", "Outputs"). */
const char* tensorName(TensorKind t);

/** Parses a tensor name; accepts singular/plural, any case. */
TensorKind tensorFromString(const std::string& name);

/**
 * True when dimension @p d indexes tensor @p t (coupled dims P/R and Q/S
 * both count as relevant to Inputs). Inline: the mapper and the nest
 * analysis ask it several hundred times per sample.
 */
constexpr bool
dimRelevantTo(TensorKind t, Dim d)
{
    switch (t) {
      case TensorKind::Input:
        return d == Dim::N || d == Dim::C || d == Dim::P || d == Dim::Q ||
               d == Dim::R || d == Dim::S || d == Dim::IB;
      case TensorKind::Weight:
        return d == Dim::C || d == Dim::K || d == Dim::R || d == Dim::S ||
               d == Dim::WB;
      case TensorKind::Output:
        return d == Dim::N || d == Dim::K || d == Dim::P || d == Dim::Q;
    }
    return false;
}

/** True when @p d is a pure reduction dimension (C, R, or S). */
bool isReductionDim(Dim d);

/** One DNN layer: a shaped Einsum plus operand precisions. */
struct Layer
{
    std::string name;       //!< human-readable layer name
    std::string network;    //!< owning network name (seeds operand PMFs)
    int index = 0;          //!< position within the network
    int networkLayers = 1;  //!< total layers in the owning network
    std::int64_t count = 1; //!< repetitions (e.g. identical decoder blocks)

    DimSizes dims = onesDims();

    int inputBits = 8;
    int weightBits = 8;
    int outputBits = 8;

    /** Size of one dimension. */
    std::int64_t size(Dim d) const { return dims[dimIndex(d)]; }

    /** Total MACs in one instance of the layer. */
    std::int64_t macs() const;

    /** Full element count of one tensor. */
    std::int64_t tensorSize(TensorKind t) const;

    /**
     * Element count of a tensor tile whose per-dimension extents are
     * @p ext (Inputs use the halo formula).
     */
    static std::int64_t tensorTile(TensorKind t, const DimSizes& ext);

    /** "N1 C64 K128 P28 Q28 R3 S3" style shape string. */
    std::string shapeString() const;
};

/** A named sequence of layers. */
struct Network
{
    std::string name;
    std::vector<Layer> layers;

    /** Total MACs across all layers (respecting per-layer counts). */
    std::int64_t totalMacs() const;
};

/**
 * Builds a convolution layer. @p p and @p q are *output* spatial sizes.
 */
Layer convLayer(const std::string& name, std::int64_t n, std::int64_t c,
                std::int64_t k, std::int64_t p, std::int64_t q,
                std::int64_t r, std::int64_t s);

/**
 * Builds a matrix multiply Out[m][n_out] = sum_k In[m][k] * W[k][n_out]
 * mapped onto the conv form (M -> P, reduction K -> C, N_out -> K).
 */
Layer matmulLayer(const std::string& name, std::int64_t m,
                  std::int64_t k_reduction, std::int64_t n_out);

} // namespace cimloop::workload

// Forward declaration to avoid pulling the YAML headers in here.
namespace cimloop::yaml {
class Node;
} // namespace cimloop::yaml

namespace cimloop::workload {

/**
 * Parses one layer from a YAML mapping, e.g.
 *
 *   name: conv3_1a
 *   dims: {C: 64, K: 128, P: 28, Q: 28, R: 3, S: 3}
 *   input_bits: 8      # optional, default 8
 *   weight_bits: 8     # optional
 *   count: 1           # optional repetitions
 *
 * Unlisted dims default to 1. Fatal on unknown keys or dims; error
 * messages cite @p path (e.g. "workload.layers[3]") so the offending
 * spot in a multi-layer file is findable.
 */
Layer layerFromYaml(const yaml::Node& node,
                    const std::string& path = "workload layer");

/**
 * Parses a network from a YAML document:
 *
 *   name: mynet
 *   layers:
 *     - {name: l0, dims: {C: 64, K: 64, P: 56, Q: 56, R: 3, S: 3}}
 *     - {name: fc, dims: {C: 512, K: 1000, P: 1}}
 */
Network networkFromYaml(const yaml::Node& doc);

/** Loads a network from a YAML file. */
Network networkFromFile(const std::string& path);

} // namespace cimloop::workload

#endif // CIMLOOP_WORKLOAD_LAYER_HH
