// Pins the random mapper's sample stream and the nest analysis of every
// drawn sample, bit for bit. Each digest folds the first 2000
// Mapper::next draws of three ResNet18 layers on one built-in macro
// (factors, literal loop orders, rejected counts) together with their
// analyzeNest results (valid flag, invalid reason and, for a valid
// result, every count, tile and instance figure). An optimisation of the
// sampler, the mapping check or the nest analysis must leave every
// digest unchanged; a digest that moves means the search would pick
// different winners. An invalid result's counts are not part of the
// contract (the analysis stops at the first violation), so only its
// flag and reason are folded in.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "cimloop/common/util.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/mapping/mapper.hh"
#include "cimloop/mapping/nest.hh"
#include "cimloop/workload/networks.hh"

namespace cimloop::mapping {
namespace {

/** Incremental FNV-1a 64 over raw bytes. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    bytes(const void* data, std::size_t size)
    {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void
    i64(std::int64_t v)
    {
        bytes(&v, sizeof v);
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        bytes(&bits, sizeof bits);
    }

    void
    str(const std::string& s)
    {
        i64(static_cast<std::int64_t>(s.size()));
        bytes(s.data(), s.size());
    }
};

void
foldMapping(Digest& dg, const Mapping& m)
{
    dg.i64(static_cast<std::int64_t>(m.levels.size()));
    for (const LevelMapping& lm : m.levels) {
        for (std::int64_t f : lm.temporal)
            dg.i64(f);
        for (std::int64_t f : lm.spatial)
            dg.i64(f);
        dg.i64(static_cast<std::int64_t>(lm.order.size()));
        for (Dim d : lm.order)
            dg.i64(static_cast<std::int64_t>(d));
    }
}

void
foldNest(Digest& dg, const NestResult& r)
{
    dg.i64(r.valid ? 1 : 0);
    dg.str(r.invalidReason);
    if (!r.valid)
        return;
    dg.f64(r.totalOps);
    dg.i64(r.steps);
    dg.i64(r.innermostParallelism);
    dg.i64(static_cast<std::int64_t>(r.nodes.size()));
    for (const NodeCounts& nc : r.nodes) {
        dg.i64(nc.usedInstances);
        dg.i64(nc.totalInstances);
        dg.f64(nc.utilization);
        for (const TensorCounts& tc : nc.tensors) {
            dg.f64(tc.reads);
            dg.f64(tc.fills);
            dg.f64(tc.actions);
            dg.i64(tc.tile);
        }
    }
}

/** What one macro's stream folded, and what it exercised. */
struct Stream
{
    std::uint64_t digest = 0;
    int valid = 0;   //!< nests that passed every check
    int invalid = 0; //!< drawn mappings the nest analysis rejected
};

/** Digest of 2000 draws on each of three ResNet18 layers of @p macro. */
Stream
streamDigest(const std::string& macro)
{
    const engine::Arch arch = macros::macroByName(macro);
    const workload::Network net = workload::resnet18();
    const std::size_t n = net.layers.size();
    Digest dg;
    Stream out;
    for (std::size_t li : {std::size_t{0}, n / 2, n - 1}) {
        const Layer layer = arch.extendLayer(net.layers[li]);
        const Mapper mapper(arch.hierarchy, layer, {.seed = 1});
        Rng rng = Rng::forStream(20240, li);
        int rejected = 0;
        for (int draw = 0; draw < 2000; ++draw) {
            std::optional<Mapping> m = mapper.next(rng, rejected);
            dg.i64(rejected);
            dg.i64(m ? 1 : 0);
            if (!m)
                continue;
            foldMapping(dg, *m);
            const NestResult nest = analyzeNest(arch.hierarchy, *m, layer);
            ++(nest.valid ? out.valid : out.invalid);
            foldNest(dg, nest);
        }
    }
    out.digest = dg.h;
    return out;
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/**
 * The macro name is held inline, not as a pointer: gtest prints the
 * parameter's bytes into each test's listed name, and a pointer would
 * make that name change with every build and every run.
 */
struct Pinned
{
    char macro[8];
    std::uint64_t digest;
};

class SampleStream : public testing::TestWithParam<Pinned>
{};

TEST_P(SampleStream, DrawsAndNestResultsAreBitIdentical)
{
    const Stream s = streamDigest(GetParam().macro);
    EXPECT_EQ(hex(s.digest), hex(GetParam().digest));
    // The stream must exercise both outcomes, or the digest pins little.
    EXPECT_GT(s.valid, 0);
    EXPECT_GT(s.invalid, 0);
}

INSTANTIATE_TEST_SUITE_P(
    BuiltinMacros, SampleStream,
    testing::Values(Pinned{"base", 0xa631cc85a6cd70fdull},
                    Pinned{"A", 0x30c287ef4e2a63efull},
                    Pinned{"B", 0x7dcc89a0e6e3d6d7ull},
                    Pinned{"C", 0xb48c0738420afdbfull},
                    Pinned{"D", 0x88599165b908cb9full},
                    Pinned{"digital", 0xb6bce3920b7b9226ull}),
    [](const testing::TestParamInfo<Pinned>& info) {
        return std::string(info.param.macro);
    });

} // namespace
} // namespace cimloop::mapping
