/**
 * @file
 * Sweep specification: YAML parsing, validation, and grid-point
 * materialization. Everything here is deterministic — a point depends
 * only on (spec, index), never on threads or evaluation order.
 */
#include "cimloop/dse/dse.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/layout/layout.hh"
#include "cimloop/yaml/node.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::dse {

namespace {

constexpr const char* kStringFields = "macro, network, layout";

bool
isStringField(const std::string& field)
{
    return field == "macro" || field == "network" || field == "layout";
}

/** Fatal unless @p value is a valid layout axis value. */
void
checkLayoutValue(const std::string& value, const std::string& at)
{
    if (!layout::isLayoutValueName(value)) {
        CIM_FATAL("unknown layout value '", value, "' at ", at,
                  " (known: none, search, ", layout::presetNames(),
                  ", or a .yaml layout spec path)");
    }
}

/** One rendering for axis values everywhere (labels, CSV, JSON), shared
 *  by the YAML and programmatic construction paths. */
std::string
renderNum(double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        std::ostringstream oss;
        oss << static_cast<long long>(v);
        return oss.str();
    }
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

/** A row whose slot is the one member point.*Part.*Member. */
template <auto Part, auto Member>
constexpr NumericField
member(const char* name, const char* flag, NumericField::Range range)
{
    return {name, flag, range,
            [](const SweepPoint& p) {
                return static_cast<double>(p.*Part.*Member);
            },
            [](SweepPoint& p, double v) {
                auto& slot = p.*Part.*Member;
                slot = static_cast<std::remove_reference_t<decltype(slot)>>(v);
            }};
}

using Range = NumericField::Range;
constexpr double kMax = std::numeric_limits<double>::max();
// Sizes and counts stay castable to int, a seed to uint64_t (the bound
// is the largest double below 2^64).
constexpr Range kCount{true, 1, std::numeric_limits<int>::max(),
                       "an integer within [1, 2^31 - 1]"};
constexpr Range kBits{true, 1, 16, "within [1, 16]"};
constexpr Range kPositive{false, std::numeric_limits<double>::denorm_min(),
                          kMax, "a finite number > 0"};
// FaultModel::validate() checks fault rates and sigmas per point (with
// the stuck_off + stuck_on <= 1 rule that no per-field range can hold).
constexpr Range kFinite{false, -kMax, kMax, "a finite number"};
constexpr Range kSeed{true, 0, 18446744073709549568.0,
                      "an integer within [0, 2^64)"};

constexpr auto kParams = &SweepPoint::params;
constexpr auto kFaults = &SweepPoint::faults;
using P = macros::MacroParams;
using F = faults::FaultModel;

const NumericField kNumericFields[] = {
    member<kParams, &P::rows>("rows", nullptr, kCount),
    member<kParams, &P::cols>("cols", nullptr, kCount),
    {"array", nullptr, kCount,
     [](const SweepPoint& p) { return static_cast<double>(p.params.rows); },
     [](SweepPoint& p, double v) {
         p.params.rows = p.params.cols = static_cast<std::int64_t>(v);
     }},
    member<kParams, &P::dacBits>("dac_bits", "--dac-bits", kBits),
    member<kParams, &P::adcBits>("adc_bits", nullptr, kBits),
    member<kParams, &P::cellBits>("cell_bits", "--cell-bits", kBits),
    member<kParams, &P::inputBits>("input_bits", "--input-bits", kBits),
    member<kParams, &P::weightBits>("weight_bits", "--weight-bits", kBits),
    member<kParams, &P::supplyVoltage>("voltage", "--voltage", kPositive),
    member<kParams, &P::technologyNm>("tech_nm", "--tech", kPositive),
    member<kParams, &P::bufferKb>("buffer_kb", nullptr, kCount),
    {"mappings", "--mappings", kCount,
     [](const SweepPoint& p) { return static_cast<double>(p.mappings); },
     [](SweepPoint& p, double v) { p.mappings = static_cast<int>(v); }},
    // The total stuck-cell rate, split evenly between the two polarities
    // (the convention bench/fault_sweep established).
    {"fault_stuck_rate", "--fault-stuck-rate", kFinite,
     [](const SweepPoint& p) {
         return p.faults.stuckOffRate + p.faults.stuckOnRate;
     },
     [](SweepPoint& p, double v) {
         p.faults.stuckOffRate = p.faults.stuckOnRate = v / 2.0;
     }},
    member<kFaults, &F::stuckOffRate>("stuck_off_rate", nullptr, kFinite),
    member<kFaults, &F::stuckOnRate>("stuck_on_rate", nullptr, kFinite),
    member<kFaults, &F::conductanceSigma>("conductance_sigma", nullptr,
                                          kFinite),
    member<kFaults, &F::conductanceSigma>("fault_sigma", "--fault-sigma",
                                          kFinite),
    member<kFaults, &F::adcOffset>("adc_offset", nullptr, kFinite),
    member<kFaults, &F::adcNoiseSigma>("adc_noise_sigma", nullptr, kFinite),
    member<kFaults, &F::seed>("fault_seed", nullptr, kSeed),
};

/** The numeric field names, comma-separated, for unknown-field errors. */
std::string
numericFieldNames()
{
    std::string out;
    for (const NumericField& f : kNumericFields)
        out += (out.empty() ? "" : ", ") + std::string(f.name);
    return out;
}

} // namespace

engine::Objective
objectiveFromName(const std::string& name, const char* key)
{
    std::string n = toLower(name);
    if (n == "energy")
        return engine::Objective::Energy;
    if (n == "edp")
        return engine::Objective::Edp;
    if (n == "delay")
        return engine::Objective::Delay;
    CIM_FATAL("unknown objective '", name, "' at ", key,
              " (expected energy, edp, or delay)");
}

namespace {

/** Parses one sweep.axes[i] entry. */
Axis
axisFromYaml(const yaml::Node& node, std::size_t i)
{
    const std::string at = "sweep.axes[" + std::to_string(i) + "]";
    if (!node.isMapping())
        CIM_FATAL(at, " must be a YAML mapping with a 'field' key");

    Axis axis;
    const yaml::Node* values = nullptr;
    const yaml::Node* range = nullptr;
    for (const auto& [key, value] : node.items()) {
        if (key == "field") {
            axis.field = value.asString();
        } else if (key == "values") {
            values = &value;
        } else if (key == "range") {
            range = &value;
        } else {
            CIM_FATAL("unknown sweep axis key '", at, ".", key,
                      "' (known: field, values, range)");
        }
    }
    if ((values == nullptr) == (range == nullptr)) {
        CIM_FATAL(at, " must have exactly one of 'values' and 'range'");
    }

    if (values) {
        if (!values->isSequence())
            CIM_FATAL(at, ".values must be a YAML sequence");
        for (const yaml::Node& v : values->elements()) {
            AxisValue av;
            if (v.kind() == yaml::Kind::String) {
                av.isString = true;
                av.text = v.asString();
            } else {
                av.num = v.asDouble();
                av.text = renderNum(av.num);
            }
            axis.values.push_back(std::move(av));
        }
        return axis;
    }

    // range: {from, to, step} (additive) or {from, to, mult} (geometric)
    if (!range->isMapping())
        CIM_FATAL(at, ".range must be a YAML mapping "
                  "{from, to, step | mult}");
    for (const auto& [key, value] : range->items()) {
        (void)value;
        if (key != "from" && key != "to" && key != "step" &&
            key != "mult") {
            CIM_FATAL("unknown sweep range key '", at, ".range.", key,
                      "' (known: from, to, step, mult)");
        }
    }
    if (!range->has("from") || !range->has("to"))
        CIM_FATAL(at, ".range needs both 'from' and 'to'");
    const double from = (*range)["from"].asDouble();
    const double to = (*range)["to"].asDouble();
    const bool hasStep = range->has("step");
    const bool hasMult = range->has("mult");
    if (hasStep == hasMult) {
        CIM_FATAL(at, ".range must have exactly one of 'step' and "
                  "'mult'");
    }
    if (from > to)
        CIM_FATAL(at, ".range.from must be <= range.to, got ", from,
                  " > ", to);
    const double step = hasStep ? (*range)["step"].asDouble() : 0.0;
    const double mult = hasMult ? (*range)["mult"].asDouble() : 0.0;
    if (hasStep && step <= 0.0)
        CIM_FATAL(at, ".range.step must be > 0, got ", step);
    if (hasMult && mult <= 1.0)
        CIM_FATAL(at, ".range.mult must be > 1, got ", mult);
    if (hasMult && from <= 0.0)
        CIM_FATAL(at, ".range.from must be > 0 with 'mult', got ", from);
    // Tolerance so e.g. {from: 0.1, to: 0.5, step: 0.1} includes 0.5
    // despite binary rounding, and a geometric walk keeps its endpoint
    // when v * mult lands 1 ULP past `to`. Scaled to the range's own
    // magnitude: an absolute floor (the old max(1, |to|) form) admits
    // whole spurious values once |to| drops below it — {from: 1e-10,
    // to: 8e-10, mult: 2} must stop at 8e-10, not 1.6e-9.
    const double tol =
        1e-9 * std::max(std::abs(from), std::abs(to));
    for (double v = from; v <= to + tol;
         v = hasStep ? v + step : v * mult) {
        axis.values.push_back({v, renderNum(v), false});
        if (axis.values.size() > 1000000)
            CIM_FATAL(at, ".range enumerates more than 1e6 values");
    }
    return axis;
}

Constraint
constraintFromYaml(const yaml::Node& node, std::size_t j)
{
    const std::string at = "sweep.constraints[" + std::to_string(j) + "]";
    if (!node.isMapping())
        CIM_FATAL(at, " must be a YAML mapping "
                  "{field, min and/or max}");
    Constraint c;
    for (const auto& [key, value] : node.items()) {
        if (key == "field") {
            c.field = value.asString();
        } else if (key == "min") {
            c.hasMin = true;
            c.min = value.asDouble();
        } else if (key == "max") {
            c.hasMax = true;
            c.max = value.asDouble();
        } else {
            CIM_FATAL("unknown sweep constraint key '", at, ".", key,
                      "' (known: field, min, max)");
        }
    }
    if (c.field.empty())
        CIM_FATAL(at, ".field must be set");
    return c;
}

} // namespace

void
SweepSpec::addAxis(const std::string& field, std::vector<double> values)
{
    Axis axis;
    axis.field = field;
    axis.values.reserve(values.size());
    for (double v : values)
        axis.values.push_back({v, renderNum(v), false});
    axes.push_back(std::move(axis));
}

void
SweepSpec::addAxis(const std::string& field,
                   std::vector<std::string> values)
{
    Axis axis;
    axis.field = field;
    axis.values.reserve(values.size());
    for (std::string& v : values)
        axis.values.push_back({0.0, std::move(v), true});
    axes.push_back(std::move(axis));
}

std::size_t
SweepSpec::pointCount() const
{
    std::size_t n = 1;
    for (const Axis& axis : axes)
        n *= axis.values.size();
    return n;
}

void
SweepSpec::validateGrid() const
{
    // Key paths are formatted only on a violation: the valid path runs
    // on every spec load and allocates nothing.
    for (std::size_t i = 0; i < axes.size(); ++i) {
        const Axis& axis = axes[i];
        if (axis.field.empty())
            CIM_FATAL("sweep.axes[", i, "].field must be set");
        const bool stringField = isStringField(axis.field);
        const NumericField* numeric =
            stringField ? nullptr : findNumericField(axis.field);
        if (!stringField && !numeric) {
            CIM_FATAL("unknown sweep axis field '", axis.field,
                      "' at sweep.axes[", i, "].field (numeric: ",
                      numericFieldNames(), "; string: ", kStringFields,
                      ")");
        }
        if (axis.values.empty())
            CIM_FATAL("sweep.axes[", i, "].values must not be empty "
                      "(field '", axis.field, "')");
        for (std::size_t v = 0; v < axis.values.size(); ++v) {
            const AxisValue& value = axis.values[v];
            if (value.isString != stringField) {
                CIM_FATAL("sweep.axes[", i, "].values[", v, "]: field '",
                          axis.field, "' takes ",
                          stringField ? "string" : "numeric",
                          " values, got '", value.text, "'");
            }
            if (numeric) {
                if (const char* want = numeric->rangeError(value.num)) {
                    CIM_FATAL("sweep.axes[", i, "].values[", v, "]: ",
                              axis.field, " must be ", want, ", got ",
                              value.text);
                }
            } else if (axis.field == "layout") {
                checkLayoutValue(value.text,
                                 "sweep.axes[" + std::to_string(i) +
                                     "].values[" + std::to_string(v) +
                                     "]");
            }
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (axes[j].field == axis.field) {
                CIM_FATAL("duplicate sweep axis field '", axis.field,
                          "' at sweep.axes[", j, "] and sweep.axes[", i,
                          "]");
            }
        }
    }
    for (std::size_t j = 0; j < constraints.size(); ++j) {
        const Constraint& c = constraints[j];
        if (!findNumericField(c.field)) {
            CIM_FATAL("unknown sweep constraint field '", c.field,
                      "' at sweep.constraints[", j, "].field (known: ",
                      numericFieldNames(), ")");
        }
        if (!c.hasMin && !c.hasMax)
            CIM_FATAL("sweep.constraints[", j, "] needs at least one of "
                      "'min' and 'max' (field '", c.field, "')");
        if (c.hasMin && c.hasMax && c.min > c.max)
            CIM_FATAL("sweep.constraints[", j, "].min must be <= max, "
                      "got ", c.min, " > ", c.max, " (field '", c.field,
                      "')");
    }
    // Million-plus grids are fine — the executor streams chunks and
    // keeps only frontier + summary in memory past
    // SweepOptions::maxPointsInMemory. The overflow-guarded product
    // below only rejects grids whose sheer enumeration time could
    // never finish (and whose size_t product would wrap).
    constexpr std::size_t kMaxGridPoints = 1000000000000ull; // 1e12
    std::size_t n = 1;
    for (const Axis& axis : axes) {
        const std::size_t k = axis.values.size();
        if (k != 0 && n > kMaxGridPoints / k) {
            CIM_FATAL("sweep '", name, "' enumerates more than 1e12 "
                      "points; thin the axes");
        }
        n *= k;
    }
}

void
SweepSpec::validate() const
{
    validateGrid();
    const bool hasNetworkAxis =
        std::any_of(axes.begin(), axes.end(),
                    [](const Axis& a) { return a.field == "network"; });
    if (!hasNetworkAxis && network.empty() == workloadPath.empty()) {
        CIM_FATAL("sweep '", name, "': exactly one of sweep.network and "
                  "sweep.workload must be set (network names a bundled "
                  "network; workload is a YAML file path)");
    }
    if (hasNetworkAxis && !workloadPath.empty()) {
        CIM_FATAL("sweep '", name, "': sweep.workload cannot be "
                  "combined with a 'network' axis");
    }
    if (mappings < 1)
        CIM_FATAL("sweep.mappings must be >= 1, got ", mappings);
    if (scaledAdcAnchor < 1)
        CIM_FATAL("sweep.scaled_adc_anchor must be >= 1, got ",
                  scaledAdcAnchor);
    if (paretoObjectives.empty())
        CIM_FATAL("sweep.pareto must name at least one objective");
    for (const std::string& obj : paretoObjectives) {
        if (!findObjectiveMetric(obj)) {
            CIM_FATAL("unknown pareto objective '", obj,
                      "' at sweep.pareto (known: energy, "
                      "energy_per_mac, latency, area, accuracy)");
        }
    }
    faults.validate();
    checkLayoutValue(layout, "sweep.layout");
    // The macro name resolves lazily per point (a 'macro' axis may
    // override it), but a bad base name should fail at spec time.
    macros::defaultsByName(macro);
}

SweepSpec
SweepSpec::fromYaml(const yaml::Node& node)
{
    if (!node.isMapping())
        CIM_FATAL("sweep spec must be a YAML mapping (bare keys or "
                  "under a top-level 'sweep:')");
    const yaml::Node* body = node.find("sweep");
    const yaml::Node& map = body ? *body : node;
    if (!map.isMapping())
        CIM_FATAL("sweep: must hold a YAML mapping");

    SweepSpec spec;
    for (const auto& [key, value] : map.items()) {
        if (key == "name") {
            spec.name = value.asString();
        } else if (key == "macro") {
            spec.macro = value.asString();
        } else if (key == "network") {
            spec.network = value.asString();
        } else if (key == "workload") {
            spec.workloadPath = value.asString();
        } else if (key == "mappings") {
            std::int64_t m = value.asInt();
            if (m < 1)
                CIM_FATAL("sweep.mappings must be >= 1, got ", m);
            spec.mappings = static_cast<int>(m);
        } else if (key == "seed") {
            std::int64_t s = value.asInt();
            if (s < 0)
                CIM_FATAL("sweep.seed must be >= 0, got ", s);
            spec.seed = static_cast<std::uint64_t>(s);
        } else if (key == "objective") {
            spec.objective =
                objectiveFromName(value.asString(), "sweep.objective");
        } else if (key == "scaled_adc") {
            spec.scaledAdc = value.asBool();
        } else if (key == "scaled_adc_anchor") {
            spec.scaledAdcAnchor = static_cast<int>(value.asInt());
        } else if (key == "pareto") {
            if (!value.isSequence())
                CIM_FATAL("sweep.pareto must be a YAML sequence of "
                          "objective names");
            spec.paretoObjectives.clear();
            for (const yaml::Node& obj : value.elements())
                spec.paretoObjectives.push_back(obj.asString());
        } else if (key == "axes") {
            if (!value.isSequence())
                CIM_FATAL("sweep.axes must be a YAML sequence");
            for (std::size_t i = 0; i < value.size(); ++i)
                spec.axes.push_back(axisFromYaml(value[i], i));
        } else if (key == "constraints") {
            if (!value.isSequence())
                CIM_FATAL("sweep.constraints must be a YAML sequence");
            for (std::size_t j = 0; j < value.size(); ++j)
                spec.constraints.push_back(
                    constraintFromYaml(value[j], j));
        } else if (key == "faults") {
            spec.faults = faults::FaultModel::fromYaml(value);
        } else if (key == "layout") {
            spec.layout = value.asString();
        } else {
            CIM_FATAL("unknown sweep spec key 'sweep.", key,
                      "' (known: name, macro, network, workload, "
                      "mappings, seed, objective, scaled_adc, "
                      "scaled_adc_anchor, pareto, axes, constraints, "
                      "faults, layout)");
        }
    }
    spec.validate();
    return spec;
}

SweepSpec
SweepSpec::fromFile(const std::string& path)
{
    return fromYaml(yaml::parseFile(path));
}

std::string
SweepPoint::label(const SweepSpec& spec) const
{
    if (axisText.empty())
        return "defaults";
    std::string out;
    for (std::size_t i = 0; i < axisText.size(); ++i) {
        if (i)
            out += ", ";
        out += spec.axes[i].field;
        out += '=';
        out += axisText[i];
    }
    return out;
}

double
SweepPoint::fieldValue(const std::string& field) const
{
    const NumericField* numeric = findNumericField(field);
    if (!numeric)
        CIM_FATAL("unknown sweep field '", field, "' (known: ",
                  numericFieldNames(), ")");
    return numeric->get(*this);
}

const PointMetric*
findObjectiveMetric(const std::string& name)
{
    for (const PointMetric& m : kPointMetrics) {
        if (m.objective && name == m.objective)
            return &m;
    }
    return nullptr;
}

const char*
NumericField::rangeError(double v) const
{
    if (!(v >= range.lo && v <= range.hi))
        return range.text;
    if (range.integer && v != std::floor(v))
        return "an integer";
    return nullptr;
}

std::span<const NumericField>
numericFields()
{
    return kNumericFields;
}

const NumericField*
findNumericField(const std::string& name)
{
    for (const NumericField& f : kNumericFields) {
        if (name == f.name)
            return &f;
    }
    return nullptr;
}

SweepPoint
pointShell(const SweepSpec& spec, std::size_t index)
{
    CIM_ASSERT(index < spec.pointCount(), "sweep point index ", index,
               " out of range (grid has ", spec.pointCount(),
               " points)");
    SweepPoint point;
    point.index = index;
    point.coords.resize(spec.axes.size());
    std::size_t rem = index;
    for (std::size_t i = spec.axes.size(); i-- > 0;) {
        point.coords[i] = rem % spec.axes[i].values.size();
        rem /= spec.axes[i].values.size();
    }
    point.axisText.reserve(spec.axes.size());
    for (std::size_t i = 0; i < spec.axes.size(); ++i)
        point.axisText.push_back(
            spec.axes[i].values[point.coords[i]].text);
    return point;
}

SweepPoint
materializePoint(const SweepSpec& spec, std::size_t index)
{
    SweepPoint point = pointShell(spec, index);

    point.macroName = spec.macro;
    point.networkName = spec.network;
    point.workloadPath = spec.workloadPath;
    point.mappings = spec.mappings;
    point.seed = spec.seed;
    point.objective = spec.objective;
    point.faults = spec.faults;
    point.layoutName = spec.layout;

    // String axes resolve first so the macro defaults they select form
    // the base the numeric axes then override.
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const Axis& axis = spec.axes[i];
        const AxisValue& v = axis.values[point.coords[i]];
        if (axis.field == "macro") {
            point.macroName = v.text;
        } else if (axis.field == "network") {
            point.networkName = v.text;
            point.workloadPath.clear();
        } else if (axis.field == "layout") {
            point.layoutName = v.text;
        }
    }
    point.params = macros::defaultsByName(point.macroName);
    for (std::size_t i = 0; i < spec.axes.size(); ++i) {
        const Axis& axis = spec.axes[i];
        if (const NumericField* numeric = findNumericField(axis.field))
            numeric->set(point, axis.values[point.coords[i]].num);
    }
    if (spec.scaledAdc) {
        point.params.adcBits =
            macros::scaledAdcBits(point.params.rows,
                                  spec.scaledAdcAnchor) +
            std::max(0, point.params.dacBits - 3);
    }
    return point;
}

bool
pointIsValid(const SweepSpec& spec, const SweepPoint& point,
             std::string* reason)
{
    for (std::size_t j = 0; j < spec.constraints.size(); ++j) {
        const Constraint& c = spec.constraints[j];
        const double v = point.fieldValue(c.field);
        const bool ok = (!c.hasMin || v >= c.min) &&
                        (!c.hasMax || v <= c.max);
        if (ok)
            continue;
        if (reason) {
            std::ostringstream oss;
            oss << "constraint sweep.constraints[" << j << "] ("
                << c.field;
            if (c.hasMin)
                oss << " >= " << c.min;
            if (c.hasMin && c.hasMax)
                oss << " and";
            if (c.hasMax)
                oss << " <= " << c.max;
            oss << ") violated: " << c.field << " = " << renderNum(v);
            *reason = oss.str();
        }
        return false;
    }
    if (spec.validity && !spec.validity(point)) {
        if (reason)
            *reason = "validity predicate rejected the point";
        return false;
    }
    return true;
}

double
accuracyLossProxy(const macros::MacroParams& params,
                  const faults::FaultModel& faults)
{
    // Bits of column-sum information the ADC discards: a rows-deep
    // analog sum of dac*cell-bit products needs about
    // log2(rows) + dac + cell - 2 bits to digitize losslessly.
    const double needed =
        std::log2(static_cast<double>(std::max<std::int64_t>(
            params.rows, 1))) +
        params.dacBits + params.cellBits - 2.0;
    const double clip = std::max(0.0, needed - params.adcBits);
    const double faultLoss =
        8.0 * (faults.stuckOffRate + faults.stuckOnRate) +
        faults.conductanceSigma + 4.0 * faults.adcNoiseSigma +
        2.0 * std::abs(faults.adcOffset);
    return clip + faultLoss;
}

std::string
specFingerprint(const SweepSpec& spec)
{
    // Serialize every field a grid index's evaluation depends on at
    // full precision, with 0x1f separators so no concatenation of two
    // specs can alias. The programmatic validity predicate cannot be
    // hashed and is deliberately absent (see the header).
    std::ostringstream oss;
    oss.precision(17);
    oss << "cimloop-sweep-v1" << '\x1f' << spec.name << '\x1f'
        << spec.macro << '\x1f' << spec.network << '\x1f'
        << spec.workloadPath << '\x1f' << spec.mappings << ' '
        << spec.seed << ' ' << static_cast<int>(spec.objective) << ' '
        << spec.scaledAdc << ' ' << spec.scaledAdcAnchor << '\x1f'
        << spec.faults.stuckOffRate << ' ' << spec.faults.stuckOnRate
        << ' ' << spec.faults.conductanceSigma << ' '
        << spec.faults.adcOffset << ' ' << spec.faults.adcNoiseSigma
        << ' ' << spec.faults.seed << '\x1f';
    // The base layout joins the fingerprint only when set: journals of
    // pre-layout specs keep their fingerprints (and stay resumable).
    if (spec.layout != "none")
        oss << "layout" << '\x1f' << spec.layout << '\x1f';
    for (const Axis& axis : spec.axes) {
        oss << "axis" << '\x1f' << axis.field << '\x1f';
        for (const AxisValue& v : axis.values)
            oss << v.isString << ' ' << v.num << ' ' << v.text
                << '\x1f';
    }
    for (const Constraint& c : spec.constraints) {
        oss << "constraint" << '\x1f' << c.field << '\x1f' << c.hasMin
            << ' ' << c.min << ' ' << c.hasMax << ' ' << c.max
            << '\x1f';
    }
    for (const std::string& obj : spec.paretoObjectives)
        oss << "pareto" << '\x1f' << obj << '\x1f';
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(oss.str())));
    return buf;
}

const char*
pointStatusName(PointStatus s)
{
    switch (s) {
    case PointStatus::Ok:
        return "ok";
    case PointStatus::Skipped:
        return "skipped";
    case PointStatus::Failed:
        return "failed";
    }
    return "?";
}

} // namespace cimloop::dse
