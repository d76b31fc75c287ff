/**
 * SweepSpec parsing and validation: YAML round-trips, the fatal paths
 * (every message must carry the offending sweep.* key path), and the
 * grid materialization contract (odometer order, string-axis
 * resolution, the scaled-ADC derivation, constraints).
 */
#include "cimloop/dse/dse.hh"

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cimloop/common/error.hh"
#include "cimloop/macros/macros.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::dse {
namespace {

SweepSpec
specFromText(const std::string& text)
{
    return SweepSpec::fromYaml(yaml::parse(text));
}

/** Asserts @p fn throws FatalError whose message contains @p needle. */
template <typename Fn>
void
expectFatalContaining(Fn&& fn, const std::string& needle)
{
    try {
        fn();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message: " << e.what();
    }
}

TEST(DseSpec, FromYamlParsesFullSpec)
{
    SweepSpec spec = specFromText(
        "sweep:\n"
        "  name: grid\n"
        "  macro: base\n"
        "  network: mvm\n"
        "  mappings: 12\n"
        "  seed: 3\n"
        "  objective: edp\n"
        "  scaled_adc: true\n"
        "  scaled_adc_anchor: 4\n"
        "  pareto: [energy, area]\n"
        "  axes:\n"
        "    - field: array\n"
        "      values: [64, 128]\n"
        "    - field: dac_bits\n"
        "      range: {from: 1, to: 4, step: 1}\n"
        "  constraints:\n"
        "    - {field: adc_bits, max: 14}\n"
        "  faults:\n"
        "    conductance_sigma: 0.1\n");
    EXPECT_EQ(spec.name, "grid");
    EXPECT_EQ(spec.macro, "base");
    EXPECT_EQ(spec.network, "mvm");
    EXPECT_EQ(spec.mappings, 12);
    EXPECT_EQ(spec.seed, 3u);
    EXPECT_EQ(spec.objective, engine::Objective::Edp);
    EXPECT_TRUE(spec.scaledAdc);
    EXPECT_EQ(spec.scaledAdcAnchor, 4);
    ASSERT_EQ(spec.paretoObjectives.size(), 2u);
    EXPECT_EQ(spec.paretoObjectives[0], "energy");
    EXPECT_EQ(spec.paretoObjectives[1], "area");
    ASSERT_EQ(spec.axes.size(), 2u);
    EXPECT_EQ(spec.axes[0].field, "array");
    ASSERT_EQ(spec.axes[0].values.size(), 2u);
    EXPECT_DOUBLE_EQ(spec.axes[0].values[1].num, 128.0);
    EXPECT_EQ(spec.axes[0].values[1].text, "128");
    EXPECT_EQ(spec.axes[1].field, "dac_bits");
    ASSERT_EQ(spec.axes[1].values.size(), 4u); // 1, 2, 3, 4
    ASSERT_EQ(spec.constraints.size(), 1u);
    EXPECT_EQ(spec.constraints[0].field, "adc_bits");
    EXPECT_TRUE(spec.constraints[0].hasMax);
    EXPECT_FALSE(spec.constraints[0].hasMin);
    EXPECT_DOUBLE_EQ(spec.faults.conductanceSigma, 0.1);
    EXPECT_EQ(spec.pointCount(), 8u);
}

TEST(DseSpec, BareMappingWithoutSweepWrapperParses)
{
    SweepSpec spec = specFromText("name: bare\nnetwork: mvm\n");
    EXPECT_EQ(spec.name, "bare");
    EXPECT_EQ(spec.pointCount(), 1u); // no axes: the single base design
}

TEST(DseSpec, GeometricRangeEnumeratesPowers)
{
    SweepSpec spec = specFromText(
        "network: mvm\n"
        "axes:\n"
        "  - field: rows\n"
        "    range: {from: 64, to: 512, mult: 2}\n");
    ASSERT_EQ(spec.axes[0].values.size(), 4u); // 64 128 256 512
    EXPECT_DOUBLE_EQ(spec.axes[0].values[3].num, 512.0);
}

TEST(DseSpec, TinyGeometricRangeKeepsItsEndpoint)
{
    // Regression: the endpoint tolerance used to be absolute
    // (1e-9 * max(1, |to|)), which at nanoscale magnitudes swallowed
    // the whole range — every value sat "within tolerance" of the
    // endpoint and beyond. It must be relative to the range magnitude.
    SweepSpec spec = specFromText(
        "network: mvm\n"
        "axes:\n"
        "  - field: fault_sigma\n"
        "    range: {from: 1.0e-10, to: 8.0e-10, mult: 2}\n");
    ASSERT_EQ(spec.axes[0].values.size(), 4u); // 1, 2, 4, 8 e-10
    EXPECT_DOUBLE_EQ(spec.axes[0].values[0].num, 1e-10);
    EXPECT_DOUBLE_EQ(spec.axes[0].values[3].num, 8e-10);
}

TEST(DseSpec, SteppedRangeIncludesAnEndpointReachedWithRoundoff)
{
    // 0.1 is not exact in binary; ten accumulated steps land a hair
    // off 1.0. The relative tolerance must still include the endpoint.
    SweepSpec spec = specFromText(
        "network: mvm\n"
        "axes:\n"
        "  - field: fault_sigma\n"
        "    range: {from: 0.1, to: 1.0, step: 0.1}\n");
    ASSERT_EQ(spec.axes[0].values.size(), 10u);
    EXPECT_NEAR(spec.axes[0].values[9].num, 1.0, 1e-9);
}

TEST(DseSpec, MillionPointGridValidates)
{
    // Grids past 10^6 points used to be rejected outright; they now
    // validate and run memory-bounded. Only a nonsensical >10^12 grid
    // (or an overflowing axis product) is refused.
    SweepSpec spec;
    spec.network = "mvm";
    std::vector<double> v(100);
    for (int i = 0; i < 100; ++i)
        v[i] = 0.01 + i * 0.001;
    spec.addAxis("fault_sigma", v);
    spec.addAxis("adc_noise_sigma", v);
    spec.addAxis("stuck_off_rate", v);
    EXPECT_EQ(spec.pointCount(), 1000000u);
    spec.validate(); // must not throw

    SweepSpec huge;
    huge.network = "mvm";
    std::vector<double> wide(20000);
    for (int i = 0; i < 20000; ++i)
        wide[i] = 0.01 + i * 1e-6;
    huge.addAxis("fault_sigma", wide);
    huge.addAxis("adc_noise_sigma", wide);
    huge.addAxis("stuck_off_rate", wide); // 8e12 points
    expectFatalContaining([&] { huge.validate(); }, "1e12");
}

TEST(DseSpec, FingerprintTracksEvaluationAffectingFields)
{
    SweepSpec a;
    a.network = "mvm";
    a.addAxis("dac_bits", std::vector<double>{1, 2});
    const std::string base = specFingerprint(a);
    EXPECT_EQ(base.size(), 16u);
    EXPECT_EQ(base.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(specFingerprint(a), base) << "fingerprint is unstable";

    SweepSpec b = a;
    b.seed = 99;
    EXPECT_NE(specFingerprint(b), base);
    SweepSpec c = a;
    c.axes[0].values[1].num = 3;
    c.axes[0].values[1].text = "3";
    EXPECT_NE(specFingerprint(c), base);
    SweepSpec d = a;
    Constraint con;
    con.field = "dac_bits";
    con.hasMax = true;
    con.max = 1.0;
    d.constraints.push_back(con);
    EXPECT_NE(specFingerprint(d), base);
    SweepSpec e = a;
    e.faults.conductanceSigma = 0.25;
    EXPECT_NE(specFingerprint(e), base);
}

TEST(DseSpec, LayoutFieldParsesAndValidates)
{
    SweepSpec spec = specFromText(
        "network: mvm\n"
        "layout: search\n"
        "axes:\n"
        "  - field: dac_bits\n"
        "    values: [1, 2]\n");
    EXPECT_EQ(spec.layout, "search");
    EXPECT_EQ(materializePoint(spec, 0).layoutName, "search");

    expectFatalContaining(
        [] { specFromText("network: mvm\nlayout: banked3\n"); },
        "sweep.layout");
}

TEST(DseSpec, LayoutAxisMaterializesAndValidates)
{
    SweepSpec spec = specFromText(
        "network: mvm\n"
        "axes:\n"
        "  - field: layout\n"
        "    values: [default, banked4, search]\n");
    EXPECT_EQ(materializePoint(spec, 0).layoutName, "default");
    EXPECT_EQ(materializePoint(spec, 1).layoutName, "banked4");
    EXPECT_EQ(materializePoint(spec, 2).layoutName, "search");

    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: layout\n"
                         "    values: [default, banked3]\n");
        },
        "sweep.axes[0].values[1]");
}

TEST(DseSpec, FingerprintIgnoresDefaultLayoutOnly)
{
    // Journals of pre-layout specs must keep their fingerprints: the
    // default "none" adds nothing, any explicit layout does.
    SweepSpec a;
    a.network = "mvm";
    a.addAxis("dac_bits", std::vector<double>{1, 2});
    const std::string base = specFingerprint(a);
    SweepSpec b = a;
    b.layout = "none";
    EXPECT_EQ(specFingerprint(b), base);
    b.layout = "search";
    EXPECT_NE(specFingerprint(b), base);
    b.layout = "banked4";
    EXPECT_NE(specFingerprint(b), base);
}

TEST(DseSpec, UnknownTopLevelKeyFatalsWithKeyPath)
{
    expectFatalContaining(
        [] { specFromText("network: mvm\nbogus: 1\n"); },
        "sweep.bogus");
}

TEST(DseSpec, UnknownAxisFieldFatalsWithKeyPath)
{
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: gremlins\n"
                         "    values: [1]\n");
        },
        "sweep.axes[0].field");
}

TEST(DseSpec, AxisNeedsExactlyOneOfValuesAndRange)
{
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: rows\n");
        },
        "sweep.axes[0]");
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: rows\n"
                         "    values: [64]\n"
                         "    range: {from: 1, to: 2, step: 1}\n");
        },
        "exactly one of 'values' and 'range'");
}

TEST(DseSpec, RangeNeedsExactlyOneOfStepAndMult)
{
    expectFatalContaining(
        [] {
            specFromText(
                "network: mvm\n"
                "axes:\n"
                "  - field: rows\n"
                "    range: {from: 1, to: 8, step: 1, mult: 2}\n");
        },
        "exactly one of 'step' and 'mult'");
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: rows\n"
                         "    range: {from: 1, to: 8, step: -1}\n");
        },
        "range.step must be > 0");
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: rows\n"
                         "    range: {from: 0, to: 8, mult: 2}\n");
        },
        "range.from must be > 0 with 'mult'");
}

TEST(DseSpec, DuplicateAxisFieldFatals)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("dac_bits", std::vector<double>{1, 2});
    spec.addAxis("dac_bits", std::vector<double>{3});
    expectFatalContaining([&] { spec.validate(); },
                          "duplicate sweep axis field 'dac_bits'");
}

TEST(DseSpec, EmptyAxisValuesFatals)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("rows", std::vector<double>{});
    expectFatalContaining([&] { spec.validate(); },
                          "sweep.axes[0].values must not be empty");
}

TEST(DseSpec, StringValuesOnNumericAxisFatal)
{
    expectFatalContaining(
        [] {
            specFromText("network: mvm\n"
                         "axes:\n"
                         "  - field: dac_bits\n"
                         "    values: [small, large]\n");
        },
        "takes numeric values");
}

TEST(DseSpec, UnknownConstraintFieldFatalsWithKeyPath)
{
    SweepSpec spec;
    spec.network = "mvm";
    Constraint c;
    c.field = "gremlins";
    c.hasMax = true;
    c.max = 1.0;
    spec.constraints.push_back(c);
    expectFatalContaining([&] { spec.validate(); },
                          "sweep.constraints[0].field");
}

TEST(DseSpec, ExactlyOneOfNetworkAndWorkload)
{
    SweepSpec none;
    expectFatalContaining([&] { none.validate(); },
                          "exactly one of sweep.network and "
                          "sweep.workload");
    SweepSpec both;
    both.network = "mvm";
    both.workloadPath = "net.yaml";
    expectFatalContaining([&] { both.validate(); }, "exactly one");
}

TEST(DseSpec, MappingsAndParetoValidated)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.mappings = 0;
    expectFatalContaining([&] { spec.validate(); },
                          "sweep.mappings must be >= 1");
    spec.mappings = 10;
    spec.paretoObjectives = {"speed"};
    expectFatalContaining([&] { spec.validate(); },
                          "unknown pareto objective 'speed'");
}

TEST(DseSpec, FaultModelValidatedThroughSpec)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.faults.conductanceSigma = 2.0; // beyond the analytic bound
    expectFatalContaining([&] { spec.validate(); },
                          "conductance_sigma");
}

TEST(DseSpec, AxisValueOutsideItsFieldRangeIsASpecError)
{
    // Each of these once reached a model assertion, or ran at a silently
    // different operating point; validation now names the axis value,
    // the field and its range.
    const std::vector<std::pair<std::string, double>> cases = {
        {"dac_bits", 0},      {"dac_bits", 40},    {"cell_bits", 0},
        {"adc_bits", 0},      {"weight_bits", 17}, {"buffer_kb", 0},
        {"array", 0},         {"array", 0.5},      {"voltage", -1},
        {"input_bits", 0},    {"mappings", 0.5},   {"fault_seed", -1},
        {"rows", 1e300},      {"tech_nm", 0},      {"dac_bits", 2.5},
        {"voltage", std::numeric_limits<double>::quiet_NaN()},
    };
    for (const auto& [field, value] : cases) {
        SweepSpec spec;
        spec.network = "mvm";
        spec.addAxis("cols", std::vector<double>{64});
        spec.addAxis(field, std::vector<double>{value});
        expectFatalContaining([&] { spec.validate(); },
                              "sweep.axes[1].values[0]: " + field +
                                  " must be ");
    }
    SweepSpec bits;
    bits.network = "mvm";
    bits.addAxis("dac_bits", std::vector<double>{1, 0});
    expectFatalContaining([&] { bits.validate(); },
                          "sweep.axes[0].values[1]: dac_bits must be "
                          "within [1, 16], got 0");
}

TEST(DseSpec, RangesAreWellFormednessNotModelCoverage)
{
    // A 15-bit ADC and a 1e200 V supply are well formed: they reach the
    // models and fail there as per-point errors, not at validation.
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("adc_bits", std::vector<double>{1, 15, 16});
    spec.addAxis("voltage", std::vector<double>{0.5, 1e200});
    spec.addAxis("stuck_off_rate", std::vector<double>{2.0});
    spec.validate(); // must not throw
}

TEST(DseSpec, EveryNumericFieldResolvesAndRoundTrips)
{
    // One table row per field: the unknown-field message lists them
    // all, and each row writes what it reads back.
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("speed", std::vector<double>{1});
    try {
        spec.validate();
        FAIL() << "unknown field accepted";
    } catch (const FatalError& e) {
        for (const NumericField& f : numericFields())
            EXPECT_NE(std::string(e.what()).find(f.name),
                      std::string::npos)
                << f.name << " missing from: " << e.what();
    }
    for (const NumericField& f : numericFields()) {
        ASSERT_EQ(findNumericField(f.name), &f);
        SweepPoint p;
        const double v = f.range.integer ? 3.0 : 0.25;
        f.set(p, v);
        EXPECT_DOUBLE_EQ(f.get(p), v) << f.name;
        EXPECT_EQ(f.rangeError(v), nullptr) << f.name;
    }
    EXPECT_EQ(findNumericField("--dac-bits"), nullptr);
}

TEST(DseGrid, OdometerOrderLastAxisFastest)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("array", std::vector<double>{64, 128});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 3});
    ASSERT_EQ(spec.pointCount(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
        SweepPoint p = materializePoint(spec, i);
        EXPECT_EQ(p.index, i);
        ASSERT_EQ(p.coords.size(), 2u);
        EXPECT_EQ(p.coords[0], i / 3);
        EXPECT_EQ(p.coords[1], i % 3);
        EXPECT_EQ(p.params.rows, i < 3 ? 64 : 128);
        EXPECT_EQ(p.params.cols, p.params.rows); // 'array' sets both
        EXPECT_EQ(p.params.dacBits, static_cast<int>(i % 3) + 1);
    }
}

TEST(DseGrid, LabelNamesEveryAxisValue)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("array", std::vector<double>{64, 128});
    spec.addAxis("dac_bits", std::vector<double>{1, 2, 3});
    EXPECT_EQ(materializePoint(spec, 1).label(spec),
              "array=64, dac_bits=2");
    SweepSpec flat;
    flat.network = "mvm";
    EXPECT_EQ(materializePoint(flat, 0).label(flat), "defaults");
}

TEST(DseGrid, StringAxisSelectsMacroDefaults)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("macro", std::vector<std::string>{"base", "digital"});
    SweepPoint p0 = materializePoint(spec, 0);
    SweepPoint p1 = materializePoint(spec, 1);
    EXPECT_EQ(p0.macroName, "base");
    EXPECT_EQ(p1.macroName, "digital");
    EXPECT_EQ(p0.params.rows, macros::defaultsByName("base").rows);
    EXPECT_EQ(p1.params.rows, macros::defaultsByName("digital").rows);
}

TEST(DseGrid, ScaledAdcDerivesFromRowsAndDac)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{128});
    spec.addAxis("dac_bits", std::vector<double>{1, 4});
    EXPECT_EQ(materializePoint(spec, 0).params.adcBits,
              macros::scaledAdcBits(128, 5));
    EXPECT_EQ(materializePoint(spec, 1).params.adcBits,
              macros::scaledAdcBits(128, 5) + 1); // max(0, 4 - 3)
}

TEST(DseGrid, FaultAxesWriteTheFaultModel)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("fault_stuck_rate", std::vector<double>{0.04});
    spec.addAxis("conductance_sigma", std::vector<double>{0.2});
    SweepPoint p = materializePoint(spec, 0);
    // The combined rate splits evenly between the polarities.
    EXPECT_DOUBLE_EQ(p.faults.stuckOffRate, 0.02);
    EXPECT_DOUBLE_EQ(p.faults.stuckOnRate, 0.02);
    EXPECT_DOUBLE_EQ(p.faults.conductanceSigma, 0.2);
    EXPECT_DOUBLE_EQ(p.fieldValue("fault_stuck_rate"), 0.04);
    EXPECT_DOUBLE_EQ(p.fieldValue("conductance_sigma"), 0.2);
}

TEST(DseGrid, ConstraintSkipNamesKeyPathAndValue)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.scaledAdc = true;
    spec.addAxis("array", std::vector<double>{4096});
    spec.addAxis("dac_bits", std::vector<double>{8});
    Constraint c;
    c.field = "adc_bits";
    c.hasMax = true;
    c.max = 14.0;
    spec.constraints.push_back(c);
    SweepPoint p = materializePoint(spec, 0);
    std::string reason;
    EXPECT_FALSE(pointIsValid(spec, p, &reason));
    EXPECT_NE(reason.find("sweep.constraints[0]"), std::string::npos)
        << reason;
    EXPECT_NE(reason.find("adc_bits = 15"), std::string::npos) << reason;
}

TEST(DseGrid, ValidityPredicateRunsAfterConstraints)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("dac_bits", std::vector<double>{1, 2});
    spec.validity = [](const SweepPoint& p) {
        return p.params.dacBits != 2;
    };
    std::string reason;
    EXPECT_TRUE(pointIsValid(spec, materializePoint(spec, 0), &reason));
    EXPECT_FALSE(pointIsValid(spec, materializePoint(spec, 1), &reason));
    EXPECT_NE(reason.find("validity predicate"), std::string::npos);
}

TEST(DseGrid, MaterializeOutOfRangeIsABug)
{
    SweepSpec spec;
    spec.network = "mvm";
    spec.addAxis("dac_bits", std::vector<double>{1, 2});
    EXPECT_THROW(materializePoint(spec, 2), PanicError);
}

} // namespace
} // namespace cimloop::dse
