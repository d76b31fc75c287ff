/**
 * @file
 * The data-value-dependent component modeling interface (paper Sec.
 * III-C) and the Accelergy-style plug-in registry.
 *
 * A component model receives, per tensor, the *representation* that this
 * component actually sees — an encoding, bit width, and code distribution
 * (dist::EncodedTensor) — plus the component's attributes and operating
 * point, and returns per-action energies, area, and latency. Because the
 * result is an *average per action*, the engine computes it once per
 * (architecture, layer) and reuses it across any number of actions and
 * mappings (paper Sec. III-D: constant-runtime statistical model).
 */
#ifndef CIMLOOP_MODELS_COMPONENT_HH
#define CIMLOOP_MODELS_COMPONENT_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "cimloop/dist/encoding.hh"
#include "cimloop/models/tech.hh"
#include "cimloop/spec/hierarchy.hh"

namespace cimloop::models {

using spec::PerTensor;
using workload::TensorKind;

/** Operating point and data context handed to a component model. */
struct ComponentContext
{
    /** The spec node (attributes, directives). Never null. */
    const spec::SpecNode* node = nullptr;

    /** Technology node in nm. */
    double technologyNm = 65.0;

    /** Supply voltage in volts (0 = use the node's nominal). */
    double supplyVoltage = 0.0;

    /** Representation of each tensor at this component. Tensors the
     *  component bypasses hold a default EncodedTensor. */
    PerTensor<dist::EncodedTensor> tensors = {};

    /** Attribute lookup forwarding to the spec node. */
    std::int64_t attrInt(const std::string& key, std::int64_t fb) const;
    double attrDouble(const std::string& key, double fb) const;
    std::string attrString(const std::string& key,
                           const std::string& fb) const;

    /** Resolved technology parameters. */
    TechParams tech() const;

    /** Resolved supply voltage (nominal when unset). */
    double voltage() const;

    /** Energy multiplier for voltage relative to nominal. */
    double voltageEnergyFactor() const;

    /** Achievable frequency multiplier for voltage. */
    double voltageFrequencyFactor() const;
};

/** Per-action estimates a component model produces. */
struct ComponentEstimate
{
    /** Area of one instance, um^2. */
    double areaUm2 = 0.0;

    /** Latency of one action, ns (0 = not rate-limiting). */
    double latencyNs = 0.0;

    /** Energy per child-side access served (storage reads / arriving
     *  updates), pJ, per tensor. */
    PerTensor<double> readEnergyPj = {0.0, 0.0, 0.0};

    /** Energy per parent-side transfer (fills / writebacks), pJ. */
    PerTensor<double> fillEnergyPj = {0.0, 0.0, 0.0};

    /** Energy per pass-through action (convert, add, transfer), pJ. */
    PerTensor<double> actionEnergyPj = {0.0, 0.0, 0.0};

    /**
     * Static (leakage) power per instance, uW. Charged for the whole
     * execution time of a layer (NeuroSim includes the same term).
     * Components that power-gate between uses (ADCs) fold their bias
     * into the per-action energy instead and report 0 here.
     */
    double staticPowerUw = 0.0;
};

/** Interface implemented by every plug-in model. */
class ComponentModel
{
  public:
    virtual ~ComponentModel() = default;

    /** Component class this model handles (matches SpecNode::klass). */
    virtual std::string className() const = 0;

    /** One-line description for documentation listings. */
    virtual std::string description() const = 0;

    /** Computes per-action estimates for a component in context. */
    virtual ComponentEstimate estimate(const ComponentContext& ctx) const
        = 0;
};

/**
 * Registry of component models keyed by class name (case-insensitive).
 * Built-in plug-ins register at first use; user plug-ins can be added at
 * runtime (paper: "a simple plug-in interface that lets users define new
 * data-value-dependent energy models").
 */
class PluginRegistry
{
  public:
    /** The global registry (built-ins pre-registered). */
    static PluginRegistry& instance();

    /**
     * Registers a model; replaces any model with the same class name.
     * Not synchronized: call it before the first evaluation (or any
     * other lookup that may run on a worker thread), never concurrently
     * with find()/require().
     */
    void add(std::unique_ptr<ComponentModel> model);

    /** Finds a model; nullptr when the class is unknown. */
    const ComponentModel* find(const std::string& class_name) const;

    /** Finds a model; fatal when the class is unknown. */
    const ComponentModel& require(const std::string& class_name) const;

    /** Registered class names, sorted. */
    std::vector<std::string> classNames() const;

  private:
    PluginRegistry() = default;
    std::map<std::string, std::unique_ptr<ComponentModel>> models;
};

/** Registers all built-in plug-ins into @p registry (idempotent). */
void registerBuiltinModels(PluginRegistry& registry);

} // namespace cimloop::models

#endif // CIMLOOP_MODELS_COMPONENT_HH
