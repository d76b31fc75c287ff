/**
 * Physical layouts and the bank-conflict model: LayoutSpec parsing /
 * validation / presets, the closed-form slowdown (serialization on one
 * bank, conflict-free spreading, interleave and rank-order effects),
 * the conflict-free-reproduces-idealized engine property, and the
 * layout x mapping co-search determinism contract.
 */
#include "cimloop/layout/layout.hh"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/models/bankconflict.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/workload/networks.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::layout {
namespace {

using workload::Dim;
using workload::dimIndex;
using workload::DimSizes;
using workload::TensorKind;

/** Runs f, expecting a FatalError whose message contains @p needle. */
template <typename F>
void
expectFatalContaining(F f, const std::string& needle)
{
    try {
        f();
        FAIL() << "expected FatalError mentioning '" << needle << "'";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(LayoutSpec, DefaultIsEmpty)
{
    LayoutSpec spec;
    EXPECT_TRUE(spec.empty());
    EXPECT_NO_THROW(spec.validate());
}

TEST(LayoutSpec, ParsesBareMappingAndLayoutKey)
{
    const char* bare =
        "name: banked\n"
        "nodes:\n"
        "  - node: buffer\n"
        "    tensors:\n"
        "      - tensor: Inputs\n"
        "        rank_order: [C, P]\n"
        "        banks: 4\n"
        "        interleave: 2\n"
        "      - tensor: Outputs\n"
        "        banks: 8\n";
    LayoutSpec spec = LayoutSpec::fromYaml(yaml::parse(bare));
    ASSERT_EQ(spec.nodes.size(), 1u);
    EXPECT_EQ(spec.name, "banked");
    EXPECT_EQ(spec.nodes[0].node, "buffer");
    ASSERT_EQ(spec.nodes[0].tensors.size(), 2u);
    const TensorLayout& in = spec.nodes[0].tensors[0];
    EXPECT_EQ(in.tensor, TensorKind::Input);
    ASSERT_EQ(in.rankOrder.size(), 2u);
    EXPECT_EQ(in.rankOrder[0], Dim::C);
    EXPECT_EQ(in.rankOrder[1], Dim::P);
    EXPECT_EQ(in.banks, 4);
    EXPECT_EQ(in.interleave, 2);
    const TensorLayout& out = spec.nodes[0].tensors[1];
    EXPECT_EQ(out.tensor, TensorKind::Output);
    EXPECT_TRUE(out.rankOrder.empty());
    EXPECT_EQ(out.banks, 8);

    // The same body under a top-level `layout:` key parses identically.
    LayoutSpec wrapped = LayoutSpec::fromYaml(
        yaml::parse(std::string("layout:\n  name: banked\n  nodes:\n"
                                "    - node: buffer\n      tensors:\n"
                                "        - tensor: Outputs\n"
                                "          banks: 8\n")));
    ASSERT_EQ(wrapped.nodes.size(), 1u);
    EXPECT_EQ(wrapped.nodes[0].tensors[0].banks, 8);
}

TEST(LayoutSpec, ValidationNamesTheOffendingKey)
{
    LayoutSpec spec;
    spec.nodes.push_back({"buffer", {{TensorKind::Input, {}, 0, 1}}});
    expectFatalContaining([&] { spec.validate(); },
                          "layout.nodes[0].tensors[0].banks");

    spec.nodes[0].tensors[0] = {TensorKind::Input, {}, 1, 0};
    expectFatalContaining([&] { spec.validate(); },
                          "layout.nodes[0].tensors[0].interleave");

    // A rank that is not an index dim of the tensor: Weights have no P.
    spec.nodes[0].tensors[0] = {TensorKind::Weight, {Dim::P}, 1, 1};
    expectFatalContaining([&] { spec.validate(); },
                          "layout.nodes[0].tensors[0].rank_order");

    // Duplicate rank in the order.
    spec.nodes[0].tensors[0] = {TensorKind::Input, {Dim::C, Dim::C}, 1, 1};
    expectFatalContaining([&] { spec.validate(); },
                          "layout.nodes[0].tensors[0].rank_order");

    // Duplicate tensor within one node.
    spec.nodes[0].tensors = {{TensorKind::Input, {}, 1, 1},
                             {TensorKind::Input, {}, 2, 1}};
    expectFatalContaining([&] { spec.validate(); }, "duplicate");

    // Duplicate node name.
    spec.nodes[0].tensors = {{TensorKind::Input, {}, 1, 1}};
    spec.nodes.push_back(spec.nodes[0]);
    expectFatalContaining([&] { spec.validate(); }, "duplicate");
}

TEST(LayoutSpec, YamlErrors)
{
    expectFatalContaining(
        [] { LayoutSpec::fromYaml(yaml::parse("typo: 1\n")); },
        "layout.typo");
    expectFatalContaining(
        [] {
            LayoutSpec::fromYaml(yaml::parse(
                "nodes:\n  - node: b\n    tensors:\n"
                "      - tensor: Sideways\n"));
        },
        "tensor");
    EXPECT_THROW(LayoutSpec::fromFile("/nonexistent/layout.yaml"),
                 FatalError);
}

TEST(LayoutSpec, ResolvesAgainstBaseMacro)
{
    engine::Arch arch = macros::baseMacro();
    LayoutSpec spec;
    spec.nodes.push_back({"buffer", {{TensorKind::Input, {}, 4, 1}}});
    ResolvedLayout resolved = resolveLayout(arch.hierarchy, spec);
    ASSERT_EQ(resolved.slots.size(), arch.hierarchy.nodes.size());
    EXPECT_TRUE(resolved.any);
    int buffer = arch.hierarchy.indexOf("buffer");
    ASSERT_GE(buffer, 0);
    const TensorLayout* tl = resolved.at(static_cast<std::size_t>(buffer),
                                         TensorKind::Input);
    ASSERT_NE(tl, nullptr);
    EXPECT_EQ(tl->banks, 4);
    EXPECT_EQ(resolved.at(static_cast<std::size_t>(buffer),
                          TensorKind::Weight),
              nullptr);

    // Unknown node and tensor-not-stored are spec errors.
    LayoutSpec bad_node;
    bad_node.nodes.push_back({"no_such", {{TensorKind::Input, {}, 1, 1}}});
    expectFatalContaining(
        [&] { resolveLayout(arch.hierarchy, bad_node); }, "no_such");
    LayoutSpec bad_tensor;
    bad_tensor.nodes.push_back(
        {"buffer", {{TensorKind::Weight, {}, 1, 1}}});
    expectFatalContaining(
        [&] { resolveLayout(arch.hierarchy, bad_tensor); }, "Weights");
}

TEST(LayoutSpec, EnumerationOrderIsPinned)
{
    // The candidate order is part of the co-search determinism contract:
    // changing it changes which layout wins objective ties.
    engine::Arch arch = macros::baseMacro();
    std::vector<LayoutSpec> all = enumerateLayouts(arch.hierarchy);
    ASSERT_EQ(all.size(), 7u);
    const char* names[] = {"default",     "banked2",     "banked4",
                           "banked8",     "banked4-rev", "banked8-rev",
                           "banked8-i4"};
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].name, names[i]) << "candidate " << i;
        EXPECT_FALSE(all[i].empty()) << "candidate " << i;
    }
    // Candidate 0 is the naive baseline: canonical order, one bank.
    for (const NodeLayout& nl : all[0].nodes) {
        for (const TensorLayout& tl : nl.tensors) {
            EXPECT_EQ(tl.banks, 1);
            EXPECT_TRUE(tl.rankOrder.empty());
        }
    }
}

TEST(LayoutSpec, PresetsAndValueNames)
{
    engine::Arch arch = macros::baseMacro();
    LayoutSpec banked4 = presetLayout("banked4", arch.hierarchy);
    EXPECT_EQ(banked4.name, "banked4");
    EXPECT_FALSE(banked4.empty());
    EXPECT_NO_THROW(banked4.validate());
    expectFatalContaining(
        [&] { presetLayout("banked3", arch.hierarchy); }, "banked3");

    for (const char* ok : {"none", "search", "default", "banked8-i4",
                           "/tmp/x.yaml", "rel/lay.yml"})
        EXPECT_TRUE(isLayoutValueName(ok)) << ok;
    for (const char* bad : {"", "banked3", "layout.txt"})
        EXPECT_FALSE(isLayoutValueName(bad)) << bad;
}

TEST(BankConflict, LoneRequesterNeverConflicts)
{
    TensorLayout tl{TensorKind::Output, {}, 1, 1};
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 64;
    DimSizes parallel = workload::onesDims();
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(tl, below, parallel), 1.0);
}

TEST(BankConflict, SingleBankSerializesAllRequesters)
{
    // banks=1 is the naive baseline: every concurrent requester
    // serializes, so the slowdown equals the requester count.
    TensorLayout tl{TensorKind::Output, {}, 1, 1};
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 16;
    below[dimIndex(Dim::P)] = 4;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::K)] = 8;
    parallel[dimIndex(Dim::P)] = 2;
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(tl, below, parallel), 16.0);
}

TEST(BankConflict, FullySpreadBanksAreConflictFree)
{
    // 8 requesters along K, contiguous sub-tiles of 1 element each,
    // 8 banks at interleave 1: every requester owns its own bank.
    TensorLayout tl{TensorKind::Output, {}, 8, 1};
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 8;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::K)] = 8;
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(tl, below, parallel), 1.0);
}

TEST(BankConflict, InterleaveGroupsRequestersIntoOneLine)
{
    // Same spread, but one bank line now holds 8 elements: all 8
    // requesters land in line 0 of bank 0 and fully serialize.
    TensorLayout tl{TensorKind::Output, {}, 8, 8};
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 8;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::K)] = 8;
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(tl, below, parallel), 8.0);
}

TEST(BankConflict, RankOrderDecidesTheSpread)
{
    // Weights tiled K=4 (parallel) x C=4: in canonical order K is
    // outer, so the 4 requesters sit 4 elements apart — k*4 mod 4
    // banks = always bank 0, full serialization. Pulling K innermost
    // makes them adjacent and conflict-free.
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 4;
    below[dimIndex(Dim::C)] = 4;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::K)] = 4;

    TensorLayout canonical{TensorKind::Weight, {}, 4, 1};
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(canonical, below, parallel), 4.0);

    TensorLayout reordered{TensorKind::Weight, {Dim::K}, 4, 1};
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(reordered, below, parallel), 1.0);
}

TEST(BankConflict, MoreBanksNeverSlowDown)
{
    // Fully parallel tile (sub-tile = 1 element per requester), so with
    // enough banks the spread eventually covers every requester.
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::K)] = 16;
    below[dimIndex(Dim::P)] = 4;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::K)] = 16;
    parallel[dimIndex(Dim::P)] = 4;
    double prev = 1e300;
    for (std::int64_t banks : {1, 2, 4, 8, 16, 32, 64}) {
        TensorLayout tl{TensorKind::Output, {Dim::K, Dim::P}, banks, 1};
        double s = models::bankConflictSlowdown(tl, below, parallel);
        EXPECT_GE(s, 1.0);
        EXPECT_LE(s, prev) << banks << " banks";
        prev = s;
    }
    EXPECT_DOUBLE_EQ(prev, 1.0); // enough banks: fully conflict-free
}

TEST(BankConflict, InputHaloFoldsRSIntoPQ)
{
    // Inputs are indexed by halo'd P/Q, so spatial R requesters are
    // input-P requesters: with one bank the slowdown is the full
    // P x R fan, not just P.
    TensorLayout tl{TensorKind::Input, {}, 1, 1};
    DimSizes below = workload::onesDims();
    below[dimIndex(Dim::P)] = 4;
    below[dimIndex(Dim::R)] = 3;
    DimSizes parallel = workload::onesDims();
    parallel[dimIndex(Dim::P)] = 2;
    parallel[dimIndex(Dim::R)] = 3;
    EXPECT_DOUBLE_EQ(
        models::bankConflictSlowdown(tl, below, parallel), 6.0);
}

TEST(BankConflict, ConflictFreeLayoutReproducesIdealizedEngine)
{
    // The load-bearing byte-identity property: a layout whose slowdowns
    // are all exactly 1.0 must reproduce the idealized (no-layout)
    // evaluation bit-for-bit — x1.0 on the same accumulation order.
    engine::Arch arch = macros::baseMacro();
    workload::Layer layer = workload::matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    engine::PerActionTable table = engine::precompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    mapping::Mapping m = mapper.greedy();

    LayoutSpec spec;
    spec.name = "wide";
    spec.nodes.push_back({"buffer",
                          {{TensorKind::Input, {}, 4096, 1},
                           {TensorKind::Output, {}, 4096, 1}}});
    ResolvedLayout resolved = resolveLayout(arch.hierarchy, spec);

    int buffer = arch.hierarchy.indexOf("buffer");
    ASSERT_GE(buffer, 0);
    spec::PerTensor<double> slow = models::bankConflictSlowdowns(
        resolved, arch.hierarchy, static_cast<std::size_t>(buffer), m);
    for (double s : slow)
        ASSERT_DOUBLE_EQ(s, 1.0) << "fixture is not conflict-free";

    engine::Evaluation ideal = evaluate(arch, table, m, nullptr);
    engine::Evaluation laid = evaluate(arch, table, m, &resolved);
    EXPECT_EQ(ideal.valid, laid.valid);
    EXPECT_EQ(ideal.energyPj, laid.energyPj);
    EXPECT_EQ(ideal.latencyNs, laid.latencyNs);
    EXPECT_EQ(ideal.areaUm2, laid.areaUm2);
    EXPECT_EQ(ideal.macs, laid.macs);
    EXPECT_EQ(ideal.steps, laid.steps);
    EXPECT_EQ(ideal.utilization, laid.utilization);
    EXPECT_EQ(laid.bankConflictCycles, 0.0);
    ASSERT_EQ(ideal.nodeEnergyPj.size(), laid.nodeEnergyPj.size());
    for (std::size_t i = 0; i < ideal.nodeEnergyPj.size(); ++i)
        EXPECT_EQ(ideal.nodeEnergyPj[i], laid.nodeEnergyPj[i]) << i;
}

TEST(BankConflict, SingleBankLayoutStretchesLatencyOnly)
{
    engine::Arch arch = macros::baseMacro();
    workload::Layer layer = workload::matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    arch.includeLeakage = false; // leakage couples energy to latency
    engine::PerActionTable table = engine::precompute(arch, layer);
    mapping::Mapper mapper(arch.hierarchy, table.extLayer);
    mapping::Mapping m = mapper.greedy();

    engine::Evaluation ideal = evaluate(arch, table, m, nullptr);
    ResolvedLayout naive =
        resolveLayout(arch.hierarchy, defaultLayout(arch.hierarchy));
    engine::Evaluation laid = evaluate(arch, table, m, &naive);
    EXPECT_GT(laid.latencyNs, ideal.latencyNs);
    EXPECT_GT(laid.bankConflictCycles, 0.0);
    EXPECT_EQ(ideal.energyPj, laid.energyPj);
    EXPECT_EQ(ideal.areaUm2, laid.areaUm2);
}

TEST(ScoreNest, OneNestScoresEveryLayoutLikeEvaluate)
{
    // The co-search analyzes each sample once and scores that one nest
    // result under every layout candidate. That must equal a full
    // evaluate() per candidate bit for bit, with leakage (which couples
    // energy to the layout-dependent latency) on and off.
    workload::Layer layer = workload::resnet18().layers[8];
    for (const char* macro : {"base", "A"}) {
        for (bool leakage : {true, false}) {
            SCOPED_TRACE(std::string(macro) +
                         (leakage ? " with leakage" : " without leakage"));
            engine::Arch arch = macros::macroByName(macro);
            arch.includeLeakage = leakage;
            engine::PerActionTable table = engine::precompute(arch, layer);
            std::vector<ResolvedLayout> resolved;
            for (const LayoutSpec& c : enumerateLayouts(arch.hierarchy))
                resolved.push_back(resolveLayout(arch.hierarchy, c));
            ASSERT_EQ(resolved.size(), 7u);

            mapping::Mapper mapper(arch.hierarchy, table.extLayer);
            Rng rng = Rng::forStream(7, 0);
            int rejected = 0, valid = 0, conflicted = 0;
            for (int i = 0; i < 200; ++i) {
                std::optional<mapping::Mapping> m =
                    mapper.next(rng, rejected);
                ASSERT_TRUE(m.has_value());
                const mapping::NestResult nest = mapping::analyzeNest(
                    arch.hierarchy, *m, table.extLayer);
                valid += nest.valid ? 1 : 0;
                for (const ResolvedLayout& r : resolved) {
                    engine::Evaluation one =
                        engine::scoreNest(arch, table, *m, nest, &r);
                    engine::Evaluation full =
                        engine::evaluate(arch, table, *m, &r);
                    ASSERT_EQ(one.valid, full.valid) << "sample " << i;
                    EXPECT_EQ(one.invalidReason, full.invalidReason);
                    EXPECT_EQ(one.energyPj, full.energyPj) << i;
                    EXPECT_EQ(one.latencyNs, full.latencyNs) << i;
                    EXPECT_EQ(one.areaUm2, full.areaUm2) << i;
                    EXPECT_EQ(one.bankConflictCycles,
                              full.bankConflictCycles)
                        << i;
                    EXPECT_EQ(one.nodeEnergyPj, full.nodeEnergyPj) << i;
                    EXPECT_EQ(one.nodeAreaUm2, full.nodeAreaUm2) << i;
                    conflicted += one.bankConflictCycles > 0.0 ? 1 : 0;
                }
            }
            // The sample set exercises both outcomes and real conflicts.
            EXPECT_GT(valid, 0);
            EXPECT_LT(valid, 200);
            EXPECT_GT(conflicted, 0);
        }
    }
}

TEST(CoSearch, DrawsEachSampleOnce)
{
    // Every layout candidate scores the same draw, so a co-search costs
    // exactly the mapper samples of a plain search with the same budget.
    obs::Counter& samples = obs::counter("mapping.mapper.samples");
    workload::Layer layer = workload::resnet18().layers[8];
    for (const char* macro : {"base", "A"}) {
        engine::Arch plain = macros::macroByName(macro);
        engine::Arch searched = plain;
        searched.layoutSearch = true;
        std::uint64_t s0 = samples.value();
        engine::SearchResult p = engine::searchMappings(
            plain, layer, 100, 3, engine::Objective::Edp, 2);
        std::uint64_t s1 = samples.value();
        engine::SearchResult c = engine::searchMappings(
            searched, layer, 100, 3, engine::Objective::Edp, 2);
        std::uint64_t s2 = samples.value();
        EXPECT_EQ(s2 - s1, s1 - s0) << macro;
        EXPECT_GE(s1 - s0, 100u) << macro;
        EXPECT_EQ(c.rejected, p.rejected) << macro;
    }
}

TEST(CoSearch, MatchesTheBestOfOneSearchPerFixedLayout)
{
    // The joint optimum is the best of the per-candidate searches over
    // the same sample set, ties going to the earlier candidate; the
    // evaluated/invalid counts are those searches' sums.
    workload::Layer layer = workload::resnet18().layers[8];
    for (std::uint64_t seed : {1u, 2u}) {
        engine::Arch searched = macros::baseMacro();
        searched.layoutSearch = true;
        engine::SearchResult joint = engine::searchMappings(
            searched, layer, 60, seed, engine::Objective::Delay, 1);

        double best = std::numeric_limits<double>::infinity();
        engine::SearchResult winner;
        int evaluated = 0, invalid = 0;
        for (const LayoutSpec& c : enumerateLayouts(searched.hierarchy)) {
            engine::Arch fixed = macros::baseMacro();
            fixed.layout = c;
            engine::SearchResult r = engine::searchMappings(
                fixed, layer, 60, seed, engine::Objective::Delay, 1);
            evaluated += r.evaluated;
            invalid += r.invalid;
            if (r.best.latencyNs < best) {
                best = r.best.latencyNs;
                winner = r;
            }
        }
        EXPECT_EQ(joint.best.latencyNs, winner.best.latencyNs);
        EXPECT_EQ(joint.best.energyPj, winner.best.energyPj);
        EXPECT_TRUE(joint.bestMapping == winner.bestMapping) << seed;
        EXPECT_EQ(joint.bestLayout.name, winner.bestLayout.name);
        EXPECT_EQ(joint.evaluated, evaluated);
        EXPECT_EQ(joint.invalid, invalid);
    }
}

TEST(CoSearch, BitIdenticalAcrossThreadCounts)
{
    engine::Arch arch = macros::baseMacro();
    arch.layoutSearch = true;
    workload::Layer layer = workload::resnet18().layers[8];
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        engine::SearchResult serial = engine::searchMappings(
            arch, layer, 60, seed, engine::Objective::Delay, 1);
        EXPECT_EQ(serial.layoutsEvaluated, 7);
        for (int threads : {2, 8}) {
            engine::SearchResult parallel = engine::searchMappings(
                arch, layer, 60, seed, engine::Objective::Delay,
                threads);
            EXPECT_TRUE(serial.bestMapping == parallel.bestMapping)
                << "seed " << seed << ", " << threads << " threads";
            EXPECT_EQ(serial.bestLayout.name, parallel.bestLayout.name);
            EXPECT_DOUBLE_EQ(serial.best.latencyNs,
                             parallel.best.latencyNs);
            EXPECT_DOUBLE_EQ(serial.best.energyPj,
                             parallel.best.energyPj);
            EXPECT_EQ(serial.evaluated, parallel.evaluated);
            EXPECT_EQ(serial.invalid, parallel.invalid);
            EXPECT_EQ(serial.rejected, parallel.rejected);
            EXPECT_EQ(serial.layoutsEvaluated,
                      parallel.layoutsEvaluated);
        }
    }
}

TEST(CoSearch, BeatsTheDefaultLayoutOnLatency)
{
    // The acceptance property: co-searching layouts must find a layout
    // strictly faster than the naive single-bank baseline.
    engine::Arch searched = macros::baseMacro();
    searched.layoutSearch = true;
    engine::Arch fixed = macros::baseMacro();
    fixed.layout = defaultLayout(fixed.hierarchy);

    workload::Layer layer = workload::matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    engine::SearchResult best = engine::searchMappings(
        searched, layer, 40, 1, engine::Objective::Delay, 2);
    engine::SearchResult naive = engine::searchMappings(
        fixed, layer, 40, 1, engine::Objective::Delay, 2);
    EXPECT_LT(best.best.latencyNs, naive.best.latencyNs);
    EXPECT_NE(best.bestLayout.name, "default");
    EXPECT_EQ(naive.layoutsEvaluated, 1);
}

TEST(CoSearch, FixedLayoutIsTheOneCandidateCase)
{
    engine::Arch arch = macros::baseMacro();
    arch.layout = presetLayout("banked4", arch.hierarchy);
    workload::Layer layer = workload::matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    engine::SearchResult sr = engine::searchMappings(arch, layer, 20, 1);
    EXPECT_EQ(sr.layoutsEvaluated, 1);
    EXPECT_EQ(sr.bestLayout.name, "banked4");
    EXPECT_TRUE(sr.best.valid);
}

TEST(CoSearch, NoLayoutKeepsTheIdealizedEngine)
{
    engine::Arch arch = macros::baseMacro();
    workload::Layer layer = workload::matmulLayer("mvm", 64, 128, 128);
    layer.network = "mvm";
    engine::SearchResult sr = engine::searchMappings(arch, layer, 20, 1);
    EXPECT_EQ(sr.layoutsEvaluated, 0);
    EXPECT_TRUE(sr.bestLayout.empty());
    EXPECT_EQ(sr.best.bankConflictCycles, 0.0);
}

} // namespace
} // namespace cimloop::layout
