#include "cimloop/cli/cli.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"

namespace cimloop::cli {
namespace {

CliOptions
parse(std::initializer_list<const char*> args)
{
    return parseArgs(std::vector<std::string>(args.begin(), args.end()));
}

TEST(Parse, FullFlagSet)
{
    CliOptions o = parse({"--macro", "B", "--network", "mvm",
                          "--mappings", "64", "--seed", "9",
                          "--threads", "2", "--objective", "edp",
                          "--tech", "7", "--voltage", "0.65",
                          "--dac-bits", "2", "--cell-bits", "1",
                          "--input-bits", "4", "--weight-bits", "4",
                          "--csv", "/tmp/x.csv", "--report"});
    EXPECT_EQ(o.macroName, "B");
    EXPECT_EQ(o.networkName, "mvm");
    EXPECT_EQ(o.mappings, 64);
    EXPECT_EQ(o.seed, 9u);
    EXPECT_EQ(o.threads, 2);
    EXPECT_EQ(o.objective, "edp");
    EXPECT_DOUBLE_EQ(*o.technologyNm, 7.0);
    EXPECT_DOUBLE_EQ(*o.voltage, 0.65);
    EXPECT_EQ(o.dacBits, 2);
    EXPECT_EQ(o.inputBits, 4);
    EXPECT_EQ(o.csvPath, "/tmp/x.csv");
    EXPECT_TRUE(o.report);
}

TEST(Parse, Errors)
{
    EXPECT_THROW(parse({"--bogus"}), FatalError);
    EXPECT_THROW(parse({"--macro"}), FatalError); // missing value
    EXPECT_THROW(parse({"--macro", "B"}), FatalError); // no workload
    EXPECT_THROW(parse({"--network", "mvm"}), FatalError); // no arch
    EXPECT_THROW(parse({"--macro", "B", "--arch", "f.yaml", "--network",
                        "mvm"}),
                 FatalError); // both arch forms
    EXPECT_THROW(parse({"--macro", "B", "--network", "mvm", "--mappings",
                        "0"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "B", "--network", "mvm", "--mappings",
                        "ten"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "B", "--network", "mvm",
                        "--objective", "fastest"}),
                 FatalError);
}

TEST(Run, HelpExitsZero)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"--help"}, out, err), 0);
    EXPECT_NE(out.str().find("usage:"), std::string::npos);
}

TEST(Run, BadFlagsExitTwoWithUsage)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"--nope"}, out, err), 2);
    EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST(Run, BuiltinMacroAndNetwork)
{
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "20"},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    EXPECT_NE(text.find("total energy"), std::string::npos);
    EXPECT_NE(text.find("TOPS/W"), std::string::npos);
}

TEST(Run, YamlArchAndWorkloadWithCsv)
{
    const char* arch_path = "/tmp/cimloop_cli_arch.yaml";
    const char* net_path = "/tmp/cimloop_cli_net.yaml";
    const char* csv_path = "/tmp/cimloop_cli_out.csv";
    {
        std::ofstream a(arch_path);
        a << "!Component\n"
             "name: buffer\n"
             "class: SRAM\n"
             "temporal_reuse: [Inputs, Outputs]\n"
             "entries: 8192\n"
             "!Component\n"
             "name: dac\n"
             "class: DAC\n"
             "no_coalesce: [Inputs]\n"
             "resolution: 1\n"
             "!Container\n"
             "name: col\n"
             "spatial: {meshX: 16}\n"
             "spatial_reuse: [Inputs]\n"
             "spatial_dims: [K, WB]\n"
             "!Component\n"
             "name: adc\n"
             "class: ADC\n"
             "no_coalesce: [Outputs]\n"
             "resolution: 4\n"
             "!Component\n"
             "name: cells\n"
             "class: ReRAMCell\n"
             "spatial: {meshY: 16}\n"
             "temporal_reuse: [Weights]\n"
             "spatial_reuse: [Outputs]\n"
             "spatial_dims: [C, R, S]\n";
        std::ofstream n(net_path);
        n << "name: tiny\n"
             "layers:\n"
             "  - {name: l0, dims: {C: 16, K: 16, P: 32}}\n";
    }
    std::ostringstream out, err;
    int rc = run({"--arch", arch_path, "--workload", net_path,
                  "--dac-bits", "1", "--mappings", "30", "--csv",
                  csv_path, "--report"},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("l0"), std::string::npos);
    EXPECT_NE(out.str().find("cells"), std::string::npos);

    std::ifstream csv(csv_path);
    ASSERT_TRUE(csv.good());
    std::string header;
    std::getline(csv, header);
    EXPECT_NE(header.find("energy_pj"), std::string::npos);
    std::string row;
    std::getline(csv, row);
    EXPECT_EQ(row.substr(0, 3), "l0,");
}

TEST(Run, MissingFileExitsOne)
{
    std::ostringstream out, err;
    int rc = run({"--arch", "/nonexistent/a.yaml", "--network", "mvm"},
                 out, err);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.str().find("fatal"), std::string::npos);
}

TEST(Run, ErtDump)
{
    const char* ert_path = "/tmp/cimloop_cli_ert.yaml";
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "10", "--ert", ert_path},
                 out, err);
    ASSERT_EQ(rc, 0) << err.str();
    std::ifstream ert(ert_path);
    ASSERT_TRUE(ert.good());
    std::string all((std::istreambuf_iterator<char>(ert)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(all.find("ert:"), std::string::npos);
    EXPECT_NE(all.find("node: adc"), std::string::npos);
    EXPECT_NE(all.find("action_outputs_pj"), std::string::npos);
}

TEST(Run, FixedMappingReplay)
{
    const char* map_path = "/tmp/cimloop_cli_map.yaml";
    {
        std::ofstream m(map_path);
        m << "mapping:\n"
             "  - node: cells\n"
             "    spatial: {C: 128}\n"
             "  - node: column\n"
             "    spatial: {K: 16, WB: 8}\n"
             "  - node: buffer\n"
             "    temporal: {P: 1024, IB: 8, K: 16}\n"
             "    order: [K, P, IB]\n";
        std::ofstream n("/tmp/cimloop_cli_fixnet.yaml");
        n << "name: fix\nlayers:\n"
             "  - {name: l0, dims: {C: 128, K: 256, P: 1024}}\n";
    }
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--workload",
                  "/tmp/cimloop_cli_fixnet.yaml", "--mapping", map_path},
                 out, err);
    ASSERT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("replaying fixed mapping"),
              std::string::npos);

    // A mapping that does not cover the layer fails loudly.
    {
        std::ofstream m(map_path);
        m << "mapping:\n  - node: cells\n    spatial: {C: 2}\n";
    }
    std::ostringstream out2, err2;
    EXPECT_EQ(run({"--macro", "base", "--workload",
                   "/tmp/cimloop_cli_fixnet.yaml", "--mapping", map_path},
                  out2, err2),
              1);
    EXPECT_NE(err2.str().find("invalid"), std::string::npos);
}

TEST(Run, DevicePresetFlag)
{
    std::ostringstream reram_out, pcm_out, err;
    ASSERT_EQ(run({"--macro", "C", "--network", "mvm", "--mappings",
                   "15", "--device", "reram"},
                  reram_out, err),
              0);
    ASSERT_EQ(run({"--macro", "C", "--network", "mvm", "--mappings",
                   "15", "--device", "pcm"},
                  pcm_out, err),
              0);
    // Different devices, different totals.
    EXPECT_NE(reram_out.str(), pcm_out.str());
    std::ostringstream out3, err3;
    EXPECT_EQ(run({"--macro", "C", "--network", "mvm", "--device",
                   "floppy"},
                  out3, err3),
              1);
}

TEST(Parse, RefSimFlags)
{
    CliOptions o = parse({"--refsim", "--network", "mvm",
                          "--refsim-vectors", "12", "--threads", "4"});
    EXPECT_TRUE(o.refsim);
    EXPECT_EQ(o.refsimVectors, 12);
    EXPECT_EQ(o.threads, 4);
    // No architecture flag needed in refsim mode...
    EXPECT_NO_THROW(parse({"--refsim", "--network", "mvm"}));
    // ...but a workload still is, and both arch forms stay an error.
    EXPECT_THROW(parse({"--refsim"}), FatalError);
    EXPECT_THROW(parse({"--refsim", "--network", "mvm", "--macro", "B",
                        "--arch", "f.yaml"}),
                 FatalError);
    EXPECT_THROW(parse({"--refsim", "--network", "mvm",
                        "--refsim-vectors", "-2"}),
                 FatalError);
}

TEST(Run, RefSimReportsPerLayerError)
{
    std::ostringstream out, err;
    int rc = run({"--refsim", "--network", "mvm", "--refsim-vectors",
                  "8", "--threads", "2"},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    EXPECT_NE(text.find("truth (pJ)"), std::string::npos);
    EXPECT_NE(text.find("mean |error|"), std::string::npos);
}

TEST(Run, RefSimThreadsMatchSingle)
{
    std::ostringstream out1, out4, err;
    ASSERT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "8"},
                  out1, err),
              0);
    ASSERT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "8", "--threads", "4"},
                  out4, err),
              0);
    // Bit-identical numbers -> byte-identical report (modulo the header
    // line that prints the thread count).
    std::string a = out1.str(), b = out4.str();
    a.erase(0, a.find("\n\n"));
    b.erase(0, b.find("\n\n"));
    EXPECT_EQ(a, b);
}

TEST(Parse, FaultFlags)
{
    CliOptions o = parse({"--macro", "base", "--network", "mvm",
                          "--faults", "/tmp/f.yaml",
                          "--fault-stuck-rate", "0.02",
                          "--fault-sigma", "0.3", "--keep-going"});
    EXPECT_EQ(o.faultsPath, "/tmp/f.yaml");
    EXPECT_DOUBLE_EQ(o.faultStuckRate, 0.02);
    EXPECT_DOUBLE_EQ(o.faultSigma, 0.3);
    EXPECT_TRUE(o.keepGoing);

    // Defaults: flags absent, faults disabled, strict mode.
    CliOptions d = parse({"--macro", "base", "--network", "mvm"});
    EXPECT_TRUE(d.faultsPath.empty());
    EXPECT_DOUBLE_EQ(d.faultStuckRate, -1.0);
    EXPECT_DOUBLE_EQ(d.faultSigma, -1.0);
    EXPECT_FALSE(d.keepGoing);

    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--fault-stuck-rate", "1.5"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--fault-stuck-rate", "-0.5"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--fault-sigma", "-0.1"}),
                 FatalError);
}

TEST(Run, FaultSpecFileDrivesBothModes)
{
    const char* faults_path = "/tmp/cimloop_cli_faults.yaml";
    {
        std::ofstream f(faults_path);
        f << "faults:\n"
             "  stuck_off_rate: 0.02\n"
             "  conductance_sigma: 0.2\n"
             "  seed: 9\n";
    }
    std::ostringstream out, err;
    int rc = run({"--refsim", "--network", "mvm", "--refsim-vectors", "8",
                  "--faults", faults_path},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    // Fault header plus the degradation columns against the clean run.
    EXPECT_NE(text.find("stuck-off 0.02"), std::string::npos);
    EXPECT_NE(text.find("clean (pJ)"), std::string::npos);
    EXPECT_NE(text.find("dE"), std::string::npos);

    std::ostringstream out2, err2;
    rc = run({"--macro", "base", "--network", "mvm", "--mappings", "15",
              "--faults", faults_path},
             out2, err2);
    EXPECT_EQ(rc, 0) << err2.str();
    EXPECT_NE(out2.str().find("per-layer degradation vs fault-free"),
              std::string::npos);

    // A broken spec fails loudly, naming the offending key.
    {
        std::ofstream f(faults_path);
        f << "faults:\n  stuck_off_rate: 7\n";
    }
    std::ostringstream out3, err3;
    EXPECT_EQ(run({"--refsim", "--network", "mvm", "--faults",
                   faults_path},
                  out3, err3),
              1);
    EXPECT_NE(err3.str().find("faults.stuck_off_rate"),
              std::string::npos);
}

TEST(Run, ZeroRateFaultFlagsKeepOutputByteIdentical)
{
    std::ostringstream plain, zeroed, err;
    ASSERT_EQ(run({"--macro", "base", "--network", "mvm", "--mappings",
                   "20", "--seed", "5", "--threads", "2"},
                  plain, err),
              0);
    ASSERT_EQ(run({"--macro", "base", "--network", "mvm", "--mappings",
                   "20", "--seed", "5", "--threads", "2",
                   "--fault-stuck-rate", "0", "--fault-sigma", "0",
                   "--keep-going"},
                  zeroed, err),
              0);
    EXPECT_EQ(plain.str(), zeroed.str());

    std::ostringstream ref_plain, ref_zeroed;
    ASSERT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "8"},
                  ref_plain, err),
              0);
    ASSERT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "8", "--fault-stuck-rate", "0", "--fault-sigma", "0"},
                  ref_zeroed, err),
              0);
    EXPECT_EQ(ref_plain.str(), ref_zeroed.str());
}

TEST(Run, FaultyStatisticalRunStillSucceeds)
{
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "15", "--fault-stuck-rate", "0.04", "--fault-sigma",
                  "0.2", "--threads", "2"},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find("total energy"), std::string::npos);
    EXPECT_NE(out.str().find("faulty (pJ)"), std::string::npos);
}

TEST(Run, KeepGoingReportsFailedLayersAndExitsZero)
{
    const char* arch_path = "/tmp/cimloop_cli_kg_arch.yaml";
    const char* net_path = "/tmp/cimloop_cli_kg_net.yaml";
    {
        // An arch whose only temporal dims are P: the C-loop layer in
        // the middle of the network is unmappable on it.
        std::ofstream a(arch_path);
        a << "!Component\n"
             "name: dram\n"
             "class: DRAM\n"
             "temporal_reuse: [Inputs, Weights, Outputs]\n"
             "temporal_dims: [P, IB, WB]\n"
             "!Component\n"
             "name: pe\n"
             "class: DigitalMac\n"
             "temporal_reuse: [Weights]\n"
             "temporal_dims: [P, IB, WB]\n";
        std::ofstream n(net_path);
        n << "name: mixed\n"
             "layers:\n"
             "  - {name: ok1, dims: {P: 8}}\n"
             "  - {name: bad, dims: {C: 8, P: 2}}\n"
             "  - {name: ok2, dims: {P: 16}}\n";
    }
    // Strict mode aborts with exit 1...
    std::ostringstream out1, err1;
    EXPECT_EQ(run({"--arch", arch_path, "--workload", net_path,
                   "--mappings", "30"},
                  out1, err1),
              1);
    // ...keep-going completes, reports the bad layer, and exits 0.
    std::ostringstream out2, err2;
    int rc = run({"--arch", arch_path, "--workload", net_path,
                  "--mappings", "30", "--keep-going", "--threads", "4"},
                 out2, err2);
    EXPECT_EQ(rc, 0) << err2.str();
    EXPECT_NE(err2.str().find("1 of 3 layers failed"), std::string::npos)
        << err2.str();
    EXPECT_NE(err2.str().find("layer 'bad' (fatal)"), std::string::npos)
        << err2.str();
    EXPECT_NE(out2.str().find("total energy"), std::string::npos);
}

TEST(Parse, LayoutFlags)
{
    CliOptions fixed = parse({"--macro", "base", "--network", "mvm",
                              "--layout", "/tmp/l.yaml"});
    EXPECT_EQ(fixed.layoutPath, "/tmp/l.yaml");
    EXPECT_FALSE(fixed.layoutSearch);

    CliOptions eq = parse({"--macro", "base", "--network", "mvm",
                           "--layout=/tmp/l.yaml"});
    EXPECT_EQ(eq.layoutPath, "/tmp/l.yaml");

    CliOptions searched = parse(
        {"--macro", "base", "--network", "mvm", "--layout-search"});
    EXPECT_TRUE(searched.layoutSearch);
    EXPECT_TRUE(searched.layoutPath.empty());

    // Fixed layout and co-search are mutually exclusive; layouts make
    // no sense for --refsim; a fixed mapping cannot be co-searched; a
    // sweep explores layouts through its own axis instead.
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--layout", "/tmp/l.yaml", "--layout-search"}),
                 FatalError);
    EXPECT_THROW(parse({"--refsim", "--network", "mvm",
                        "--layout-search"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--mapping", "/tmp/m.yaml", "--layout-search"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--layout-search"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--layout",
                        "/tmp/l.yaml"}),
                 FatalError);
}

TEST(Parse, ObservabilityFlags)
{
    // Bare --metrics: summary table on stdout, no file.
    CliOptions o = parse({"--macro", "base", "--network", "mvm",
                          "--metrics"});
    EXPECT_TRUE(o.metrics);
    EXPECT_TRUE(o.metricsPath.empty());
    EXPECT_TRUE(o.tracePath.empty());

    // --metrics=FILE writes machine-readable JSON instead.
    CliOptions f = parse({"--macro", "base", "--network", "mvm",
                          "--metrics=/tmp/m.json"});
    EXPECT_TRUE(f.metrics);
    EXPECT_EQ(f.metricsPath, "/tmp/m.json");

    // --trace takes a path in either flag style.
    CliOptions t = parse({"--macro", "base", "--network", "mvm",
                          "--trace", "/tmp/t.json"});
    EXPECT_EQ(t.tracePath, "/tmp/t.json");
    CliOptions t2 = parse({"--macro", "base", "--network", "mvm",
                           "--trace=/tmp/t2.json"});
    EXPECT_EQ(t2.tracePath, "/tmp/t2.json");

    // Defaults: everything off.
    CliOptions d = parse({"--macro", "base", "--network", "mvm"});
    EXPECT_FALSE(d.metrics);
    EXPECT_TRUE(d.metricsPath.empty());
    EXPECT_TRUE(d.tracePath.empty());

    // Empty paths are an error, not a silent no-op.
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--metrics="}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--trace="}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--trace"}),
                 FatalError); // missing value
}

TEST(Run, MetricsSummaryTableOnStdout)
{
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "15", "--metrics"},
                 out, err);
    ASSERT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    EXPECT_NE(text.find("counter"), std::string::npos);
    EXPECT_NE(text.find("mapping.search.evaluated"), std::string::npos);
    EXPECT_NE(text.find("engine.layers.evaluated"), std::string::npos);
    // --metrics arms span timing, so the table has a span section too.
    EXPECT_NE(text.find("engine.evaluate_network"), std::string::npos);
}

TEST(Run, MetricsFileContainsCountersAndSpans)
{
    const char* path = "/tmp/cimloop_cli_metrics.json";
    std::ostringstream out, err;
    int rc = run({"--refsim", "--network", "mvm", "--refsim-vectors",
                  "4", "--metrics=" + std::string(path)},
                 out, err);
    ASSERT_EQ(rc, 0) << err.str();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(json.find("{\n"), 0u);
    EXPECT_NE(json.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(json.find("\"refsim.vectors.simulated\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"spans\": {"), std::string::npos);
    EXPECT_NE(json.find("\"refsim.simulate_layer\""), std::string::npos);
    // JSON mode keeps stdout for the report only.
    EXPECT_EQ(out.str().find("counter"), std::string::npos);
    std::remove(path);
}

TEST(Run, TraceFileIsChromeLoadable)
{
    // The fig6 workload class: value-level refsim vs the statistical
    // model. Structural validation of the Chrome trace-event format —
    // the invariants chrome://tracing / Perfetto require to load it.
    const char* path = "/tmp/cimloop_cli_trace.json";
    std::ostringstream out, err;
    int rc = run({"--refsim", "--network", "mvm", "--refsim-vectors",
                  "4", "--threads", "2",
                  "--trace=" + std::string(path)},
                 out, err);
    ASSERT_EQ(rc, 0) << err.str();
    EXPECT_NE(out.str().find(std::string("wrote ") + path),
              std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    // Top-level object with the traceEvents array.
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);

    // Every event is a complete ("ph":"X") event with the required
    // name/pid/tid/ts/dur fields; at least one refsim span shows up.
    std::size_t events = 0;
    for (std::size_t pos = json.find("{\"name\":");
         pos != std::string::npos;
         pos = json.find("{\"name\":", pos + 1)) {
        std::size_t end = json.find('}', pos);
        ASSERT_NE(end, std::string::npos);
        std::string ev = json.substr(pos, end - pos + 1);
        EXPECT_NE(ev.find("\"cat\":\"cimloop\""), std::string::npos);
        EXPECT_NE(ev.find("\"ph\":\"X\""), std::string::npos);
        EXPECT_NE(ev.find("\"pid\":1"), std::string::npos);
        EXPECT_NE(ev.find("\"tid\":"), std::string::npos);
        EXPECT_NE(ev.find("\"ts\":"), std::string::npos);
        EXPECT_NE(ev.find("\"dur\":"), std::string::npos);
        ++events;
    }
    EXPECT_GT(events, 0u);
    EXPECT_NE(json.find("\"name\":\"refsim.simulate_layer\""),
              std::string::npos);
    std::remove(path);

    // Tracing is a per-run switch: a following plain run must not
    // inherit it (the scope disarms on exit).
    std::ostringstream out2, err2;
    ASSERT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "4"},
                  out2, err2),
              0);
    EXPECT_EQ(out2.str().find("wrote"), std::string::npos);
}

namespace {

/** Writes a small sweep spec and returns its path. */
std::string
writeSweepSpec(const char* path)
{
    std::ofstream f(path);
    f << "sweep:\n"
         "  name: cli-sweep\n"
         "  network: mvm\n"
         "  mappings: 6\n"
         "  scaled_adc: true\n"
         "  axes:\n"
         "    - field: array\n"
         "      values: [64, 4096]\n"
         "    - field: dac_bits\n"
         "      values: [1, 8]\n";
    return path;
}

} // namespace

TEST(Parse, SweepFlags)
{
    CliOptions o = parse({"--sweep", "/tmp/s.yaml", "--threads", "4",
                          "--seed", "7", "--json", "/tmp/s.json"});
    EXPECT_EQ(o.sweepPath, "/tmp/s.yaml");
    EXPECT_EQ(o.jsonPath, "/tmp/s.json");
    EXPECT_EQ(o.threads, 4);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_TRUE(o.seedGiven);

    CliOptions eq = parse({"--sweep=/tmp/s.yaml"});
    EXPECT_EQ(eq.sweepPath, "/tmp/s.yaml");
    EXPECT_FALSE(eq.seedGiven);

    // The spec names the architecture and workload; the single-run
    // selection flags conflict with it.
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--macro", "base"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--network", "mvm"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--refsim"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep="}), FatalError);
    // --json is a sweep artifact; alone it is an error.
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm", "--json",
                        "/tmp/x.json"}),
                 FatalError);
}

TEST(Parse, SweepResumeFlags)
{
    CliOptions o = parse({"--sweep", "/tmp/s.yaml", "--resume",
                          "/tmp/journal", "--chunk-size", "256",
                          "--max-chunks", "3"});
    EXPECT_EQ(o.resumeDir, "/tmp/journal");
    EXPECT_EQ(o.chunkSize, 256u);
    EXPECT_EQ(o.maxChunks, 3u);

    CliOptions eq = parse({"--sweep=/tmp/s.yaml", "--resume=/tmp/j"});
    EXPECT_EQ(eq.resumeDir, "/tmp/j");

    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--resume="}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--chunk-size", "0"}),
                 FatalError);
    EXPECT_THROW(parse({"--sweep", "/tmp/s.yaml", "--max-chunks", "0"}),
                 FatalError);
    // All three ride on --sweep; alone they are errors.
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--resume", "/tmp/j"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--chunk-size", "64"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--max-chunks", "1"}),
                 FatalError);
}

TEST(Run, SweepPauseAndResumeMatchesCleanRun)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep_resume.yaml";
    const std::string dir = "/tmp/cimloop_cli_sweep_resume_journal";
    writeSweepSpec(spec_path);
    std::filesystem::remove_all(dir);

    std::ostringstream clean, err;
    ASSERT_EQ(run({"--sweep", spec_path, "--threads", "2"}, clean, err),
              0)
        << err.str();

    // Interrupted leg: one 2-point chunk of the 4-point grid.
    std::ostringstream paused;
    ASSERT_EQ(run({"--sweep", spec_path, "--threads", "2", "--resume",
                   dir.c_str(), "--chunk-size", "2", "--max-chunks",
                   "1"},
                  paused, err),
              0)
        << err.str();
    EXPECT_NE(paused.str().find("paused after 1 of 2 chunks"),
              std::string::npos)
        << paused.str();
    EXPECT_NE(paused.str().find("--resume " + dir), std::string::npos);

    // Resumed leg: picks up the journal, re-runs nothing it has, and
    // reproduces the uninterrupted report byte-for-byte.
    std::ostringstream resumed;
    ASSERT_EQ(run({"--sweep", spec_path, "--threads", "2", "--resume",
                   dir.c_str(), "--chunk-size", "2"},
                  resumed, err),
              0)
        << err.str();
    EXPECT_EQ(resumed.str(), clean.str());
    std::filesystem::remove_all(dir);
}

TEST(Run, SweepEndToEndWithArtifacts)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep.yaml";
    const char* csv_path = "/tmp/cimloop_cli_sweep.csv";
    const char* json_path = "/tmp/cimloop_cli_sweep.json";
    writeSweepSpec(spec_path);

    std::ostringstream out, err;
    int rc = run({"--sweep", spec_path, "--threads", "2", "--csv",
                  csv_path, "--json", json_path},
                 out, err);
    EXPECT_EQ(rc, 0) << err.str();
    std::string text = out.str();
    // 4 points; the (4096, dac 8) corner derives a 15-bit ADC and fails
    // as a per-point diagnostic carrying its axis values.
    EXPECT_NE(text.find("4 points (3 ok, 1 failed"), std::string::npos)
        << text;
    EXPECT_NE(text.find("array=4096, dac_bits=8"), std::string::npos);
    EXPECT_NE(text.find("pareto frontier"), std::string::npos);
    EXPECT_NE(text.find("best ("), std::string::npos);

    std::ifstream csv(csv_path);
    ASSERT_TRUE(csv.good());
    std::string header;
    std::getline(csv, header);
    EXPECT_NE(header.find("array"), std::string::npos);
    EXPECT_NE(header.find("energy_per_mac_pj"), std::string::npos);

    std::ifstream json(json_path);
    ASSERT_TRUE(json.good());
    std::string doc((std::istreambuf_iterator<char>(json)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"sweep\": \"cli-sweep\""), std::string::npos);
    EXPECT_NE(doc.find("\"failed\": 1"), std::string::npos);
    std::remove(csv_path);
    std::remove(json_path);
}

TEST(Run, SweepThreadsMatchSingle)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep_t.yaml";
    writeSweepSpec(spec_path);
    std::ostringstream out1, out8, err;
    ASSERT_EQ(run({"--sweep", spec_path, "--seed", "3"}, out1, err), 0);
    ASSERT_EQ(run({"--sweep", spec_path, "--seed", "3", "--threads",
                   "8"},
                  out8, err),
              0);
    EXPECT_EQ(out1.str(), out8.str());
}

TEST(Run, SweepBadSpecExitsOneWithKeyPath)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep_bad.yaml";
    {
        std::ofstream f(spec_path);
        f << "sweep:\n"
             "  network: mvm\n"
             "  axes:\n"
             "    - field: gremlins\n"
             "      values: [1]\n";
    }
    std::ostringstream out, err;
    EXPECT_EQ(run({"--sweep", spec_path}, out, err), 1);
    EXPECT_NE(err.str().find("sweep.axes[0].field"), std::string::npos)
        << err.str();
}

TEST(Run, ThreadsMatchSingle)
{
    std::ostringstream out1, out4, err;
    ASSERT_EQ(run({"--macro", "base", "--network", "mvm", "--mappings",
                   "20", "--seed", "5"},
                  out1, err),
              0);
    ASSERT_EQ(run({"--macro", "base", "--network", "mvm", "--mappings",
                   "20", "--seed", "5", "--threads", "4"},
                  out4, err),
              0);
    EXPECT_EQ(out1.str(), out4.str());
}

TEST(Parse, TimeoutFlag)
{
    CliOptions o = parse({"--macro", "base", "--network", "mvm",
                          "--timeout", "5.5"});
    EXPECT_DOUBLE_EQ(o.timeoutSeconds, 5.5);

    // Default: no deadline.
    CliOptions d = parse({"--macro", "base", "--network", "mvm"});
    EXPECT_DOUBLE_EQ(d.timeoutSeconds, 0.0);

    // A non-positive, unparsable, or NaN budget is a usage error.
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--timeout", "0"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--timeout", "-3"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--timeout", "soon"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--timeout", "nan"}),
                 FatalError);
    EXPECT_THROW(parse({"--macro", "base", "--network", "mvm",
                        "--timeout"}),
                 FatalError); // missing value
}

TEST(Run, BadTimeoutExitsTwo)
{
    std::ostringstream out, err;
    EXPECT_EQ(run({"--macro", "base", "--network", "mvm", "--timeout",
                   "0"},
                  out, err),
              2);
    EXPECT_NE(err.str().find("--timeout"), std::string::npos);
}

TEST(Run, OutOfRangeOperandBitsExitTwoNamingTheFlag)
{
    // The operand models support [1, 16] bits; anything else is a
    // command-line error, not an internal assertion deep in precompute.
    for (const char* flag : {"--input-bits", "--weight-bits"}) {
        for (const char* bits : {"40", "17", "0", "-1"}) {
            std::ostringstream out, err;
            EXPECT_EQ(run({"--macro", "base", "--network", "mvm", flag,
                           bits},
                          out, err),
                      2)
                << flag << " " << bits;
            EXPECT_NE(err.str().find(std::string(flag) +
                                     " must be within [1, 16]"),
                      std::string::npos)
                << err.str();
        }
    }
    EXPECT_EQ(parse({"--macro", "base", "--network", "mvm",
                     "--input-bits", "16", "--weight-bits", "1"})
                  .inputBits,
              16);
}

TEST(Run, OutOfRangeOperatingPointExitTwoNamingTheFlag)
{
    // Slice widths share the operand models' [1, 16] bits; voltage and
    // technology must be finite and positive. A value outside its range
    // is a command-line error, never silently ignored or accepted.
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"--dac-bits", "64"},   {"--dac-bits", "0"},
        {"--dac-bits", "17"},   {"--cell-bits", "40"},
        {"--cell-bits", "0"},   {"--cell-bits", "-2"},
    };
    for (const auto& [flag, bits] : cases) {
        std::ostringstream out, err;
        EXPECT_EQ(run({"--macro", "base", "--network", "mvm", flag, bits},
                      out, err),
                  2)
            << flag << " " << bits;
        EXPECT_NE(err.str().find(flag + " must be within [1, 16]"),
                  std::string::npos)
            << err.str();
        EXPECT_EQ(out.str().find("total energy"), std::string::npos);
    }
    for (const char* flag : {"--voltage", "--tech"}) {
        for (const char* v : {"0", "-1", "nan", "inf"}) {
            std::ostringstream out, err;
            EXPECT_EQ(run({"--macro", "base", "--network", "mvm", flag, v},
                          out, err),
                      2)
                << flag << " " << v;
            EXPECT_NE(err.str().find(std::string(flag) +
                                     " must be a finite number > 0"),
                      std::string::npos)
                << err.str();
        }
    }
    const CliOptions ok =
        parse({"--macro", "base", "--network", "mvm", "--dac-bits", "16",
               "--cell-bits", "1", "--voltage", "0.8", "--tech", "22"});
    EXPECT_EQ(ok.dacBits, 16);
    EXPECT_EQ(ok.cellBits, 1);
    EXPECT_DOUBLE_EQ(*ok.voltage, 0.8);
    EXPECT_DOUBLE_EQ(*ok.technologyNm, 22.0);
}

/** Writes a one-macro arch YAML with the given SRAM entries and DAC
 *  resolution; returns its path. */
std::string
writeConverterArch(const std::string& name, int sram_entries,
                   int dac_resolution)
{
    const std::string path = "/tmp/cimloop_cli_" + name + ".yaml";
    std::ofstream a(path);
    a << "!Component\n"
         "name: buffer\n"
         "class: SRAM\n"
         "temporal_reuse: [Inputs, Outputs]\n"
         "entries: " << sram_entries << "\n"
         "!Component\n"
         "name: dac\n"
         "class: DAC\n"
         "no_coalesce: [Inputs]\n"
         "resolution: " << dac_resolution << "\n"
         "!Container\n"
         "name: col\n"
         "spatial: {meshX: 16}\n"
         "spatial_reuse: [Inputs]\n"
         "spatial_dims: [K, WB]\n"
         "!Component\n"
         "name: adc\n"
         "class: ADC\n"
         "no_coalesce: [Outputs]\n"
         "resolution: 4\n"
         "!Component\n"
         "name: cells\n"
         "class: ReRAMCell\n"
         "spatial: {meshY: 16}\n"
         "temporal_reuse: [Weights]\n"
         "spatial_reuse: [Outputs]\n"
         "spatial_dims: [C, R, S]\n";
    return path;
}

TEST(Run, OutOfRangeArchAttributeIsANamedFatal)
{
    // Model checks an arch YAML can reach fail as spec errors naming the
    // attribute (exit 1), never as an internal assertion.
    const std::vector<std::tuple<std::string, int, int, std::string>>
        cases = {{"dac40", 8192, 40, "DAC attribute 'resolution'"},
                 {"sram0", 0, 1, "SRAM attributes 'entries'"}};
    for (const auto& [name, entries, dac, needle] : cases) {
        const std::string arch = writeConverterArch(name, entries, dac);
        std::ostringstream out, err;
        EXPECT_EQ(run({"--arch", arch.c_str(), "--network", "mvm",
                       "--mappings", "4"},
                      out, err),
                  1)
            << name;
        EXPECT_NE(err.str().find(needle), std::string::npos) << err.str();
        EXPECT_EQ(err.str().find("panic:"), std::string::npos)
            << err.str();
        EXPECT_EQ(out.str().find("panic:"), std::string::npos)
            << out.str();
        std::remove(arch.c_str());
    }
}

TEST(Run, SweepAxisValueOutOfRangeIsASpecError)
{
    const char* path = "/tmp/cimloop_cli_bad_axis.yaml";
    {
        std::ofstream f(path);
        f << "sweep:\n"
             "  network: mvm\n"
             "  mappings: 4\n"
             "  axes:\n"
             "    - field: array\n"
             "      values: [64]\n"
             "    - field: dac_bits\n"
             "      values: [1, 0]\n";
    }
    std::ostringstream out, err;
    EXPECT_EQ(run({"--sweep", path}, out, err), 1);
    EXPECT_NE(err.str().find("sweep.axes[1].values[1]: dac_bits must be "
                             "within [1, 16], got 0"),
              std::string::npos)
        << err.str();
    EXPECT_EQ(out.str().find("panic:"), std::string::npos) << out.str();
    std::remove(path);
}

TEST(Run, NonFiniteNetworkTotalIsFatal)
{
    // A supply far outside the voltage model's range overflows the
    // energies; the run must fail instead of printing "-nan uJ".
    std::ostringstream out, err;
    EXPECT_EQ(run({"--macro", "base", "--network", "mvm", "--mappings",
                   "10", "--voltage", "1e200"},
                  out, err),
              1);
    EXPECT_NE(err.str().find("is not finite"), std::string::npos)
        << err.str();
    EXPECT_EQ(out.str().find("total energy"), std::string::npos)
        << out.str();
}

TEST(Run, ExpiredTimeoutExitsWithDeadlineCode)
{
    // A 1 ns budget has expired by the first poll: strict mode aborts
    // at the first layer boundary with exit code 124.
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "20", "--timeout", "1e-9"},
                 out, err);
    EXPECT_EQ(rc, 124) << err.str();
    EXPECT_NE(err.str().find("cancelled (deadline)"), std::string::npos)
        << err.str();

    // The refsim mode honors the same deadline and exit code.
    std::ostringstream rout, rerr;
    EXPECT_EQ(run({"--refsim", "--network", "mvm", "--refsim-vectors",
                   "8", "--timeout", "1e-9"},
                  rout, rerr),
              124);
    EXPECT_NE(rerr.str().find("cancelled (deadline)"),
              std::string::npos);
}

TEST(Run, KeepGoingTimeoutReportsDiagnosticsAndExits124)
{
    // Keep-going absorbs the cancellation into per-layer diagnostics
    // (the partial report still prints) but the exit code must say the
    // run was cut short.
    std::ostringstream out, err;
    int rc = run({"--macro", "base", "--network", "mvm", "--mappings",
                  "20", "--keep-going", "--timeout", "1e-9"},
                 out, err);
    EXPECT_EQ(rc, 124) << err.str();
    EXPECT_NE(err.str().find("cancelled"), std::string::npos)
        << err.str();
}

TEST(Run, SweepTimeoutPausesResumably)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep_timeout.yaml";
    const std::string dir = "/tmp/cimloop_cli_sweep_timeout_journal";
    writeSweepSpec(spec_path);
    std::filesystem::remove_all(dir);

    std::ostringstream clean, err;
    ASSERT_EQ(run({"--sweep", spec_path, "--threads", "2"}, clean, err),
              0)
        << err.str();

    // Expired deadline: the sweep stops before its first chunk, exits
    // 124, and the journal records zero chunks.
    std::ostringstream paused;
    int rc = run({"--sweep", spec_path, "--threads", "2", "--resume",
                  dir.c_str(), "--chunk-size", "2", "--timeout", "1e-9"},
                 paused, err);
    EXPECT_EQ(rc, 124) << err.str();
    EXPECT_NE(paused.str().find("sweep cancelled (deadline)"),
              std::string::npos)
        << paused.str();
    EXPECT_NE(paused.str().find("paused after 0 of 2 chunks"),
              std::string::npos)
        << paused.str();
    EXPECT_NE(paused.str().find("--resume " + dir), std::string::npos);

    // Resuming without the deadline completes the sweep and reproduces
    // the uninterrupted report byte-for-byte.
    std::ostringstream resumed;
    ASSERT_EQ(run({"--sweep", spec_path, "--threads", "2", "--resume",
                   dir.c_str(), "--chunk-size", "2"},
                  resumed, err),
              0)
        << err.str();
    EXPECT_EQ(resumed.str(), clean.str());
    std::filesystem::remove_all(dir);
}

TEST(Run, SweepTimeoutWithoutJournalStillExits124)
{
    const char* spec_path = "/tmp/cimloop_cli_sweep_timeout_nj.yaml";
    writeSweepSpec(spec_path);
    std::ostringstream out, err;
    int rc = run({"--sweep", spec_path, "--timeout", "1e-9"}, out, err);
    EXPECT_EQ(rc, 124) << err.str();
    EXPECT_NE(out.str().find("sweep cancelled (deadline)"),
              std::string::npos);
    // No journal, so no resume hint.
    EXPECT_EQ(out.str().find("--resume"), std::string::npos);
}

} // namespace
} // namespace cimloop::cli
