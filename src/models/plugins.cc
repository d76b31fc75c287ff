/**
 * @file
 * Built-in component model plug-ins (paper Sec. III-C2).
 *
 * The suite mirrors the plug-ins CiMLoop ships: an ADC regression model in
 * the spirit of the ADC-survey plug-in, NeuroSim-style analytical models
 * for cells/drivers/digital logic, a CACTI-lite SRAM buffer model, and a
 * component library for published CiM works. Energy formulas are
 * capacitance-switching (C V^2 activity) or conductance (G V^2 T) forms;
 * constants are calibrated so the Table III macros land near their
 * published efficiency (see EXPERIMENTS.md).
 *
 * Units: energy pJ, area um^2, latency ns, voltage V.
 */
#include <cmath>

#include "cimloop/common/error.hh"
#include "cimloop/models/component.hh"

namespace cimloop::models {

namespace {

using dist::EncodedTensor;
using spec::tensorIndex;

constexpr int kI = tensorIndex(TensorKind::Input);
constexpr int kW = tensorIndex(TensorKind::Weight);
constexpr int kO = tensorIndex(TensorKind::Output);

/** Energy scale factor of the context's node relative to 65 nm. */
double
e65(const ComponentContext& ctx)
{
    return energyScale(65.0, ctx.technologyNm) * ctx.voltageEnergyFactor();
}

/** Area scale factor relative to 65 nm. */
double
a65(const ComponentContext& ctx)
{
    return areaScale(65.0, ctx.technologyNm);
}

/** Delay scale relative to 65 nm, including voltage slowdown. */
double
d65(const ComponentContext& ctx)
{
    return delayScale(65.0, ctx.technologyNm) /
           ctx.voltageFrequencyFactor();
}

/**
 * ADC: regression over published ADC surveys. Energy per conversion
 * follows the Walden figure-of-merit form E = FoM * 2^bits; area grows
 * with the capacitor array (~2^bits). A `value_aware` attribute enables
 * bit-level value dependence (converts of small values cost less).
 */
class AdcModel : public ComponentModel
{
  public:
    std::string className() const override { return "ADC"; }

    std::string
    description() const override
    {
        return "successive-approximation ADC, survey-regression energy";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const std::int64_t bits = ctx.attrInt("resolution", 8);
        // A user-reachable limit, not an invariant: design sweeps over
        // array size / DAC width can push the derived resolution past
        // the survey's 14-bit ceiling, and that point must fail as a
        // spec error (FatalError) the keep-going paths can report.
        if (bits < 1 || bits > 14) {
            CIM_FATAL("ADC attribute 'resolution' must be within "
                      "[1, 14], got ", bits,
                      " (the survey regression has no data beyond "
                      "14 bits)");
        }
        // Survey regression: a Walden term (E ~ 2^bits) plus a
        // thermal-noise term (E ~ 4^bits) that dominates at high
        // resolution — the reason ADC cost stops amortizing as CiM
        // arrays (and thus required resolutions) grow.
        double fom_fj = ctx.attrDouble("fom_fj_per_step", 25.0);
        double fom4_fj = ctx.attrDouble("fom_thermal_fj", 0.05);
        // ADCs scale sub-quadratically with supply (comparator noise
        // floors keep the FoM from improving as fast as CV^2 logic).
        double v_scale = std::pow(ctx.voltageEnergyFactor(), 0.5);
        double energy = (fom_fj * std::pow(2.0, bits) +
                         fom4_fj * std::pow(4.0, bits)) /
                        1000.0 * energyScale(65.0, ctx.technologyNm) *
                        v_scale;
        if (ctx.attrInt("value_aware", 0)) {
            // Value-aware SAR terminates early on small codes; the
            // resolved-bit count grows concavely, so the expectation runs
            // over the full code distribution.
            const EncodedTensor& out = ctx.tensors[kO];
            double mc = out.maxCode();
            energy *= out.codes.expectation([mc](double code) {
                double level = mc > 0.0 ? code / mc : 0.0;
                return 0.3 + 0.7 * std::min(1.0, std::sqrt(2.0 * level));
            });
        }
        ComponentEstimate est;
        est.actionEnergyPj[kO] = energy;
        // SAR: one comparison cycle per bit.
        double clock_ghz = ctx.attrDouble("clock_ghz", 1.0);
        est.latencyNs = bits / clock_ghz * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_step_um2", 18.0) *
                      std::pow(2.0, bits) * a65(ctx);
        return est;
    }
};

/**
 * DAC: capacitive DAC whose switching energy is proportional to the
 * converted code — the data-value-dependent behaviour in paper Fig. 4.
 * XNOR/bipolar representations toggle full-swing every bit instead.
 */
class DacModel : public ComponentModel
{
  public:
    std::string className() const override { return "DAC"; }

    std::string
    description() const override
    {
        return "capacitive DAC; energy proportional to converted value";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const std::int64_t bits = ctx.attrInt("resolution", in.bits);
        if (bits < 1 || bits > 14)
            CIM_FATAL("DAC attribute 'resolution' must be within [1, 14], "
                      "got ", bits);
        double e_unit_fj = ctx.attrDouble("unit_cap_energy_fj", 3.0);
        double e_base_fj = ctx.attrDouble("base_energy_fj_per_bit", 1.5);
        double value_term;
        if (in.bipolarBits) {
            // Bipolar bits swing full scale; cost follows toggling.
            value_term = in.meanBitFlips() * std::pow(2.0, bits) /
                         std::max(1, in.bits);
        } else {
            value_term = in.meanNormValue() * (std::pow(2.0, bits) - 1.0);
        }
        double energy_fj = e_unit_fj * value_term + e_base_fj * bits;
        ComponentEstimate est;
        est.actionEnergyPj[kI] = energy_fj / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 1.0) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_bit_um2", 60.0) * bits *
                      a65(ctx);
        return est;
    }
};

/**
 * SRAM CiM bitcell: charge-domain multiply. Per-op energy scales with the
 * input level and the probability the stored weight bit conducts.
 */
class SramCellModel : public ComponentModel
{
  public:
    std::string className() const override { return "SRAMCell"; }

    std::string
    description() const override
    {
        return "6T+compute SRAM cell, charge-domain MAC";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        double e_mac_fj = ctx.attrDouble("mac_energy_fj", 1.8);
        double activity = in.bipolarBits
            ? 0.5 + 0.5 * wt.meanNormValue()
            : in.meanNormValue() * (0.15 + 0.85 * wt.meanNormValue());
        ComponentEstimate est;
        est.readEnergyPj[kW] = e_mac_fj * activity / 1000.0 * e65(ctx);
        est.fillEnergyPj[kW] =
            ctx.attrDouble("write_energy_fj", 4.0) / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 1.0) * d65(ctx);
        double f2 = ctx.technologyNm * ctx.technologyNm * 1e-6; // um^2 per F^2
        est.areaUm2 = ctx.attrDouble("area_f2", 320.0) * f2;
        // 6T bitcell subthreshold leakage (nonvolatile cells report 0).
        est.staticPowerUw =
            ctx.attrDouble("leakage_pw", 40.0) / 1e6 * ctx.voltage();
        return est;
    }
};

/**
 * ReRAM cell: read energy G V^2 T (paper Algorithm 1). The average
 * conductance tracks the stored weight level; the average squared read
 * voltage tracks the input distribution.
 */
class ReramCellModel : public ComponentModel
{
  public:
    std::string className() const override { return "ReRAMCell"; }

    std::string
    description() const override
    {
        return "1T1R ReRAM cell; read energy = G * V^2 * T";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        double g_on_us = ctx.attrDouble("g_on_us", 100.0);
        double g_off_us = ctx.attrDouble("g_off_us", 2.0);
        double v_read = ctx.attrDouble("v_read", 0.3);
        double t_read_ns = ctx.attrDouble("t_read_ns", 10.0);
        // Average conductance between G_off and G_on by weight level.
        double g_avg =
            g_off_us + (g_on_us - g_off_us) * wt.meanNormValue();
        // Average squared voltage from the input level distribution.
        double v2_avg = v_read * v_read * in.meanNormSquare();
        // uS * V^2 * ns = fJ.
        double energy_fj = g_avg * v2_avg * t_read_ns;
        ComponentEstimate est;
        est.readEnergyPj[kW] = energy_fj / 1000.0;
        est.fillEnergyPj[kW] = ctx.attrDouble("write_energy_pj", 8.0);
        est.latencyNs = t_read_ns;
        double f2 = ctx.technologyNm * ctx.technologyNm * 1e-6;
        est.areaUm2 = ctx.attrDouble("area_f2", 40.0) * f2;
        return est;
    }
};

/**
 * Analog adder (paper Macro B): sums analog values from several columns;
 * switched-capacitor energy follows the summed charge, making it
 * data-value-dependent (paper Fig. 11).
 */
class AnalogAdderModel : public ComponentModel
{
  public:
    std::string className() const override { return "AnalogAdder"; }

    std::string
    description() const override
    {
        return "switched-capacitor analog adder; charge follows data";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        std::int64_t operands = ctx.attrInt("operands", 2);
        if (operands < 1 || operands > 16)
            CIM_FATAL("AnalogAdder attribute 'operands' must be within "
                      "[1, 16], got ", operands);
        // Binary-weighted summation (operand i carries weight 2^i): the
        // capacitor array totals 2^N - 1 unit caps, so area AND charge
        // grow exponentially with operand count — why very wide analog
        // adders never win on throughput/area (paper Fig. 13).
        double unit_caps = std::pow(2.0, operands) - 1.0;
        double e_unit_fj = ctx.attrDouble("unit_energy_fj", 1.6);
        double mac = dist::meanNormMac(in, wt);
        double energy_fj = e_unit_fj * unit_caps * (0.15 + 0.85 * mac);
        ComponentEstimate est;
        est.actionEnergyPj[kO] = energy_fj / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 0.5) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_unit_um2", 9.3) *
                      unit_caps * a65(ctx);
        return est;
    }
};

/**
 * Analog accumulator (paper Macro C): integrates partial sums across
 * cycles on a capacitor.
 */
class AnalogAccumulatorModel : public ComponentModel
{
  public:
    std::string className() const override { return "AnalogAccumulator"; }

    std::string
    description() const override
    {
        return "capacitive analog accumulator across cycles";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        double e_unit_fj = ctx.attrDouble("unit_energy_fj", 4.0);
        double mac = dist::meanNormMac(in, wt);
        ComponentEstimate est;
        // Arriving updates charge the integration cap.
        est.readEnergyPj[kO] =
            e_unit_fj * (0.25 + 0.75 * mac) / 1000.0 * e65(ctx);
        // Evicting a finished value costs one buffer-out drive.
        est.fillEnergyPj[kO] =
            ctx.attrDouble("evict_energy_fj", 8.0) / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 0.5) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_um2", 80.0) * a65(ctx);
        return est;
    }
};

/**
 * C-2C ladder analog MAC unit (paper Macro D): multiplies a multi-bit
 * input by a multi-bit weight in the charge domain.
 */
class CapacitorMacModel : public ComponentModel
{
  public:
    std::string className() const override { return "CapacitorMac"; }

    std::string
    description() const override
    {
        return "C-2C ladder charge-domain multi-bit MAC";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        std::int64_t bits = ctx.attrInt("bits", 8);
        double e_unit_fj = ctx.attrDouble("unit_energy_fj", 1.2);
        double mac = dist::meanNormMac(in, wt);
        double energy_fj =
            e_unit_fj * static_cast<double>(bits) * (0.3 + 0.7 * mac);
        ComponentEstimate est;
        // The MAC unit stores its multi-bit weight; one MAC per weight
        // read, plus a write cost when weights are (re)loaded.
        est.readEnergyPj[kW] = energy_fj / 1000.0 * e65(ctx);
        est.fillEnergyPj[kW] =
            ctx.attrDouble("write_energy_fj", 30.0) / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 1.0) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_bit_um2", 25.0) *
                      static_cast<double>(bits) * a65(ctx);
        return est;
    }
};

/** Digital adder tree / accumulator stage. */
class DigitalAdderModel : public ComponentModel
{
  public:
    std::string className() const override { return "DigitalAdder"; }

    std::string
    description() const override
    {
        return "ripple/tree adder; energy follows bit activity";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& out = ctx.tensors[kO];
        std::int64_t width =
            ctx.attrInt("width", std::max(out.bits, 8));
        double e_bit_fj = ctx.attrDouble("energy_per_bit_fj", 3.0);
        double activity = out.bits > 0
            ? 0.1 + out.meanBitFlips() / out.bits
            : 0.5;
        ComponentEstimate est;
        est.actionEnergyPj[kO] = e_bit_fj *
                                 static_cast<double>(width) * activity /
                                 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 0.5) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_bit_um2", 12.0) *
                      static_cast<double>(width) * a65(ctx);
        return est;
    }
};

/** Shift-and-add combiner for bit-sliced partial sums. */
class ShiftAddModel : public ComponentModel
{
  public:
    std::string className() const override { return "ShiftAdd"; }

    std::string
    description() const override
    {
        return "shift-and-add combiner for bit-serial partials";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        std::int64_t width = ctx.attrInt("width", 16);
        double e_bit_fj = ctx.attrDouble("energy_per_bit_fj", 4.0);
        ComponentEstimate est;
        est.actionEnergyPj[kO] =
            e_bit_fj * static_cast<double>(width) / 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 0.5) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_bit_um2", 16.0) *
                      static_cast<double>(width) * a65(ctx);
        return est;
    }
};

/** Full digital MAC (paper's Digital CiM / Colonnade). */
class DigitalMacModel : public ComponentModel
{
  public:
    std::string className() const override { return "DigitalMac"; }

    std::string
    description() const override
    {
        return "bit-serial digital MAC unit";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        const EncodedTensor& in = ctx.tensors[kI];
        const EncodedTensor& wt = ctx.tensors[kW];
        std::int64_t ib = std::max(in.bits, 1);
        std::int64_t wb = std::max(wt.bits, 1);
        double e_fj = ctx.attrDouble("energy_per_bit2_fj", 0.9);
        ComponentEstimate est;
        est.actionEnergyPj[kO] = e_fj * static_cast<double>(ib * wb) /
                                 1000.0 * e65(ctx);
        est.latencyNs = ctx.attrDouble("latency_ns", 1.0) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_per_bit2_um2", 4.0) *
                      static_cast<double>(ib * wb) * a65(ctx);
        est.staticPowerUw = ctx.attrDouble("leakage_pw", 200.0) / 1e6 *
                            static_cast<double>(ib * wb) / 64.0 *
                            ctx.voltage();
        return est;
    }
};

/**
 * SRAM buffer (CACTI-lite): access energy grows with sqrt(capacity)
 * (wordline/bitline length) plus a per-bit term.
 */
class SramBufferModel : public ComponentModel
{
  public:
    std::string className() const override { return "SRAM"; }

    std::string
    description() const override
    {
        return "SRAM buffer; CACTI-style sqrt-capacity access energy";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        std::int64_t entries = ctx.attrInt("entries", 1024);
        std::int64_t width = ctx.attrInt("width", 64);
        if (entries < 1 || width < 1)
            CIM_FATAL("SRAM attributes 'entries' and 'width' must be >= 1, "
                      "got ", entries, " and ", width);
        double bits = static_cast<double>(entries) * width;
        double word_pj =
            (0.012 * std::sqrt(bits) + 0.003 * width) * e65(ctx);
        ComponentEstimate est;
        for (TensorKind t : workload::kAllTensors) {
            int ti = tensorIndex(t);
            // Fractional words: traffic counts are per data item (slice
            // or word), and energy is proportional to bits moved.
            double tensor_bits = std::max(ctx.tensors[ti].bits, 1);
            double words = tensor_bits / static_cast<double>(width);
            est.readEnergyPj[ti] = word_pj * words;
            est.fillEnergyPj[ti] = word_pj * words;
        }
        est.latencyNs = ctx.attrDouble("latency_ns", 1.0) * d65(ctx);
        est.areaUm2 = (0.55 * bits + 40.0 * std::sqrt(bits)) * a65(ctx);
        est.staticPowerUw = ctx.attrDouble("leakage_pw_per_bit", 8.0) *
                            bits / 1e6 * ctx.voltage();
        return est;
    }
};

/** DRAM backing store: flat per-bit transfer cost. */
class DramModel : public ComponentModel
{
  public:
    std::string className() const override { return "DRAM"; }

    std::string
    description() const override
    {
        return "off-chip DRAM; flat energy per bit moved";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        double e_bit_pj = ctx.attrDouble("energy_per_bit_pj", 6.0);
        ComponentEstimate est;
        for (TensorKind t : workload::kAllTensors) {
            int ti = tensorIndex(t);
            double bits = std::max(ctx.tensors[ti].bits, 1);
            est.readEnergyPj[ti] = e_bit_pj * bits;
            est.fillEnergyPj[ti] = e_bit_pj * bits;
        }
        est.latencyNs = ctx.attrDouble("latency_ns", 20.0);
        est.areaUm2 = 0.0; // off-chip
        return est;
    }
};

/** On-chip router / NoC link: energy per bit-hop. */
class RouterModel : public ComponentModel
{
  public:
    std::string className() const override { return "Router"; }

    std::string
    description() const override
    {
        return "NoC router+link; energy per bit per hop";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        double e_bit_hop_fj = ctx.attrDouble("energy_per_bit_hop_fj", 40.0);
        double hops = ctx.attrDouble("hops", 2.0);
        ComponentEstimate est;
        for (TensorKind t : workload::kAllTensors) {
            int ti = tensorIndex(t);
            double bits = std::max(ctx.tensors[ti].bits, 1);
            est.actionEnergyPj[ti] =
                e_bit_hop_fj * bits * hops / 1000.0 * e65(ctx);
        }
        est.latencyNs = ctx.attrDouble("latency_ns", 2.0) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_um2", 8000.0) * a65(ctx);
        return est;
    }
};

/** Row/column driver: charges the word/bit line capacitance. */
class LineDriverModel : public ComponentModel
{
  public:
    std::string className() const override { return "LineDriver"; }

    std::string
    description() const override
    {
        return "word/bit line driver; C V^2 line charge";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        double line_cap_ff = ctx.attrDouble("line_cap_ff", 60.0);
        double v = ctx.voltage();
        ComponentEstimate est;
        // One line charge per action for whichever tensor streams through.
        double energy_pj = 0.5 * line_cap_ff * v * v / 1000.0;
        for (TensorKind t : workload::kAllTensors)
            est.actionEnergyPj[tensorIndex(t)] = energy_pj;
        est.latencyNs = ctx.attrDouble("latency_ns", 0.3) * d65(ctx);
        est.areaUm2 = ctx.attrDouble("area_um2", 120.0) * a65(ctx);
        return est;
    }
};

/** Zero-cost structural node (containers, abstract groupings). */
class WireModel : public ComponentModel
{
  public:
    std::string className() const override { return "Wire"; }

    std::string
    description() const override
    {
        return "free structural connection";
    }

    ComponentEstimate
    estimate(const ComponentContext& ctx) const override
    {
        (void)ctx;
        return ComponentEstimate{};
    }
};

} // namespace

void
registerBuiltinModels(PluginRegistry& registry)
{
    registry.add(std::make_unique<AdcModel>());
    registry.add(std::make_unique<DacModel>());
    registry.add(std::make_unique<SramCellModel>());
    registry.add(std::make_unique<ReramCellModel>());
    registry.add(std::make_unique<AnalogAdderModel>());
    registry.add(std::make_unique<AnalogAccumulatorModel>());
    registry.add(std::make_unique<CapacitorMacModel>());
    registry.add(std::make_unique<DigitalAdderModel>());
    registry.add(std::make_unique<ShiftAddModel>());
    registry.add(std::make_unique<DigitalMacModel>());
    registry.add(std::make_unique<SramBufferModel>());
    registry.add(std::make_unique<DramModel>());
    registry.add(std::make_unique<RouterModel>());
    registry.add(std::make_unique<LineDriverModel>());
    registry.add(std::make_unique<WireModel>());
}

} // namespace cimloop::models
