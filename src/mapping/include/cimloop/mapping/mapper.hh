/**
 * @file
 * Mapspace search (paper Sec. III-A: Timeloop-style mapping search).
 *
 * The mapper generates valid mappings of a layer onto a hierarchy:
 *  - a greedy heuristic that maximizes array (innermost mesh) utilization
 *    and keeps weights stationary, and
 *  - seeded random sampling of the mapspace for search loops that
 *    evaluate thousands of mappings per layer (paper Sec. II-E).
 */
#ifndef CIMLOOP_MAPPING_MAPPER_HH
#define CIMLOOP_MAPPING_MAPPER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "cimloop/common/util.hh"
#include "cimloop/mapping/mapping.hh"

namespace cimloop::mapping {

/** Mapper knobs. */
struct MapperOptions
{
    std::uint64_t seed = 1;   //!< RNG seed; same seed, same mappings
    int maxAttempts = 64;     //!< resamples per next() before giving up
};

/**
 * Generates mappings for one (hierarchy, layer) pair. Spatial factors are
 * drawn only over dims each node allows (spatial_dims constraint and the
 * hard wire-sharing rule); temporal loops live at storage nodes and the
 * outermost node.
 *
 * Thread safety: the const methods (greedy() and the next()/sample()
 * overloads taking a caller-owned Rng) touch no mapper state, so one
 * Mapper may be shared by concurrent search shards as long as each shard
 * draws from its own Rng stream (see Rng::forStream). The argument-less
 * next() uses the mapper's internal stream and is single-threaded.
 */
class Mapper
{
  public:
    Mapper(const spec::Hierarchy& hierarchy, const Layer& layer,
           MapperOptions options = {});

    /**
     * Deterministic high-utilization mapping: fills every mesh innermost-
     * first with the largest allowed factors, then places leftover loops
     * temporally at the outermost storage. Fatal when even this mapping
     * is structurally invalid.
     */
    Mapping greedy() const;

    /**
     * Draws the next random valid mapping, or nullopt when maxAttempts
     * samples in a row fail validation.
     */
    std::optional<Mapping> next();

    /**
     * Thread-safe next(): draws from the caller-owned @p rng instead of
     * the mapper's internal stream, adding each sample that failed
     * validation to @p rejected. Does not advance generated().
     */
    std::optional<Mapping> next(Rng& rng, int& rejected) const;

    /**
     * next(rng, rejected) into a caller-owned @p out, reusing its
     * buffers: a search loop that keeps one scratch Mapping allocates
     * nothing per draw. Returns false (leaving the last rejected sample
     * in @p out) when maxAttempts samples in a row fail validation.
     */
    bool next(Rng& rng, int& rejected, Mapping& out) const;

    /**
     * Enumerates the COMPLETE mapspace — every valid combination of
     * spatial factors, temporal splits, and per-node loop permutations —
     * for small layers/hierarchies. Fatal when the space exceeds
     * @p limit (use random search instead). The exhaustive optimum
     * bounds what any search can achieve, which the test suite uses to
     * validate the greedy/random mappers.
     */
    std::vector<Mapping> exhaustive(std::size_t limit = 200000);

    /** Mappings drawn so far (valid ones). */
    std::int64_t generated() const { return num_generated; }

  private:
    const spec::Hierarchy& hierarchy;
    const Layer& layer;
    MapperOptions options;
    Rng rng;
    std::int64_t num_generated = 0;

    // Per-node search data, derived from the hierarchy once.
    std::vector<DimList> spatial_dims; //!< dims each node may map spatially
    std::vector<int> temporal_hosts;   //!< loop hosts, outermost first
    /** Per dim: the outermost host permitting its loop, or -1. */
    std::array<int, workload::kNumDims> rest_taker{};

    /** One random sample from @p rng into @p m (may be invalid). */
    void sample(Rng& rng, Mapping& m) const;
};

} // namespace cimloop::mapping

#endif // CIMLOOP_MAPPING_MAPPER_HH
