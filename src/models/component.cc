#include "cimloop/models/component.hh"

#include <algorithm>

#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"

namespace cimloop::models {

std::int64_t
ComponentContext::attrInt(const std::string& key, std::int64_t fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrInt(key, fb);
}

double
ComponentContext::attrDouble(const std::string& key, double fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrDouble(key, fb);
}

std::string
ComponentContext::attrString(const std::string& key,
                             const std::string& fb) const
{
    CIM_ASSERT(node, "ComponentContext has no spec node");
    return node->attrString(key, fb);
}

TechParams
ComponentContext::tech() const
{
    return techParams(technologyNm);
}

double
ComponentContext::voltage() const
{
    return supplyVoltage > 0.0 ? supplyVoltage : tech().vNominal;
}

double
ComponentContext::voltageEnergyFactor() const
{
    return VoltageModel(tech()).energyFactor(voltage());
}

double
ComponentContext::voltageFrequencyFactor() const
{
    return VoltageModel(tech()).frequencyFactor(voltage());
}

PluginRegistry&
PluginRegistry::instance()
{
    // The built-ins register inside the static's initializer, which C++
    // runs exactly once and makes concurrent first callers wait for, so
    // no thread ever sees a half-filled registry.
    static PluginRegistry& registry = *[] {
        static PluginRegistry r;
        registerBuiltinModels(r);
        return &r;
    }();
    return registry;
}

void
PluginRegistry::add(std::unique_ptr<ComponentModel> model)
{
    CIM_ASSERT(model, "cannot register a null model");
    std::string key = toLower(model->className());
    models[key] = std::move(model);
}

const ComponentModel*
PluginRegistry::find(const std::string& class_name) const
{
    auto it = models.find(toLower(class_name));
    return it == models.end() ? nullptr : it->second.get();
}

const ComponentModel&
PluginRegistry::require(const std::string& class_name) const
{
    const ComponentModel* m = find(class_name);
    if (!m) {
        CIM_FATAL("no component model registered for class '", class_name,
                  "'; register a plug-in or use a built-in class");
    }
    return *m;
}

std::vector<std::string>
PluginRegistry::classNames() const
{
    std::vector<std::string> names;
    names.reserve(models.size());
    for (const auto& [k, v] : models) {
        (void)k;
        names.push_back(v->className());
    }
    std::sort(names.begin(), names.end());
    return names;
}

} // namespace cimloop::models
