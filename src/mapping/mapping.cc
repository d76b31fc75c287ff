#include "cimloop/mapping/mapping.hh"

#include <algorithm>
#include <sstream>

#include "cimloop/common/error.hh"
#include "cimloop/yaml/parser.hh"

namespace cimloop::mapping {

using workload::dimIndex;
using workload::dimName;
using workload::dimRelevantTo;
using workload::kAllDims;
using workload::kAllTensors;

std::int64_t
LevelMapping::spatialUsed() const
{
    std::int64_t used = 1;
    for (std::int64_t f : spatial)
        used *= f;
    return used;
}

std::int64_t
LevelMapping::temporalSteps() const
{
    std::int64_t steps = 1;
    for (std::int64_t f : temporal)
        steps *= f;
    return steps;
}

DimList
LevelMapping::effectiveOrder() const
{
    DimList out;
    unsigned placed = 0; // bit per dim already in out
    auto add = [&](Dim d) {
        const unsigned bit = 1u << dimIndex(d);
        if (temporal[dimIndex(d)] > 1 && !(placed & bit)) {
            placed |= bit;
            out.dims[out.size++] = d;
        }
    };
    for (Dim d : order)
        add(d);
    for (Dim d : kAllDims)
        add(d);
    return out;
}

Mapping
Mapping::identity(const spec::Hierarchy& hierarchy)
{
    Mapping m;
    m.levels.resize(hierarchy.nodes.size());
    return m;
}

std::int64_t
Mapping::totalSteps() const
{
    std::int64_t steps = 1;
    for (const LevelMapping& lm : levels)
        steps *= lm.temporalSteps();
    return steps;
}

std::string
Mapping::check(const spec::Hierarchy& hierarchy, const Layer& layer) const
{
    // Runs on every drawn sample, twice: the message is formatted only
    // once a violation is found.
    using cimloop::detail::concatMessage;
    if (levels.size() != hierarchy.nodes.size()) {
        return concatMessage("mapping has ", levels.size(),
                             " levels but hierarchy '", hierarchy.name,
                             "' has ", hierarchy.nodes.size(), " nodes");
    }

    // Factor products must reconstruct the layer extents.
    for (Dim d : kAllDims) {
        std::int64_t product = 1;
        for (const LevelMapping& lm : levels)
            product *= lm.temporal[dimIndex(d)] * lm.spatial[dimIndex(d)];
        if (product != layer.size(d)) {
            return concatMessage("dimension ", dimName(d),
                                 ": factors multiply to ", product,
                                 " but layer has extent ", layer.size(d));
        }
    }

    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        const spec::SpecNode& node = hierarchy.nodes[i];

        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] < 1 || lm.spatial[dimIndex(d)] < 1) {
                return concatMessage("node '", node.name,
                                     "': non-positive factor for ",
                                     dimName(d));
            }
        }

        if (lm.spatialUsed() > node.spatialFanout()) {
            return concatMessage("node '", node.name,
                                 "': spatial factors use ", lm.spatialUsed(),
                                 " instances but the mesh has only ",
                                 node.spatialFanout());
        }

        for (Dim d : kAllDims) {
            if (lm.temporal[dimIndex(d)] > 1 &&
                !node.temporalDims.empty() &&
                std::find(node.temporalDims.begin(),
                          node.temporalDims.end(),
                          d) == node.temporalDims.end()) {
                return concatMessage(
                    "node '", node.name, "': dimension ", dimName(d),
                    " is not in the node's temporal_dims constraint");
            }
        }

        for (Dim d : kAllDims) {
            std::int64_t s = lm.spatial[dimIndex(d)];
            if (s <= 1)
                continue;
            // spatial_dims constraint.
            if (!node.spatialDims.empty() &&
                std::find(node.spatialDims.begin(), node.spatialDims.end(),
                          d) == node.spatialDims.end()) {
                return concatMessage(
                    "node '", node.name, "': dimension ", dimName(d),
                    " is not in the node's spatial_dims constraint");
            }
            // Hard wire-sharing: a shared wire (spatial_reuse) cannot carry
            // distinct data, so dims relevant to the reused tensor cannot
            // be spatial here.
            if (!node.flexibleSpatial) {
                for (TensorKind t : kAllTensors) {
                    if (node.spatialReuse[spec::tensorIndex(t)] &&
                        dimRelevantTo(t, d)) {
                        return concatMessage(
                            "node '", node.name, "': ",
                            workload::tensorName(t),
                            " is spatially reused (shared wire) but ",
                            dimName(d),
                            " would put distinct data on the wire");
                    }
                }
            }
        }
    }
    return {};
}

void
Mapping::validate(const spec::Hierarchy& hierarchy, const Layer& layer) const
{
    std::string problem = check(hierarchy, layer);
    if (!problem.empty())
        CIM_FATAL("invalid mapping for layer '", layer.name, "': ", problem);
}

std::string
Mapping::toYamlText(const spec::Hierarchy& hierarchy) const
{
    CIM_ASSERT(levels.size() == hierarchy.nodes.size(),
               "mapping does not match the hierarchy");
    std::ostringstream oss;
    oss << "mapping:\n";
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        bool any_temporal = lm.temporalSteps() > 1;
        bool any_spatial = lm.spatialUsed() > 1;
        if (!any_temporal && !any_spatial)
            continue;
        oss << "  - node: " << hierarchy.nodes[i].name << "\n";
        if (any_temporal) {
            oss << "    temporal: {";
            bool first = true;
            for (Dim d : kAllDims) {
                if (lm.temporal[dimIndex(d)] > 1) {
                    oss << (first ? "" : ", ") << dimName(d) << ": "
                        << lm.temporal[dimIndex(d)];
                    first = false;
                }
            }
            oss << "}\n";
            const DimList order = lm.effectiveOrder();
            oss << "    order: [";
            for (int j = 0; j < order.size; ++j)
                oss << (j ? ", " : "") << dimName(order.dims[j]);
            oss << "]\n";
        }
        if (any_spatial) {
            oss << "    spatial: {";
            bool first = true;
            for (Dim d : kAllDims) {
                if (lm.spatial[dimIndex(d)] > 1) {
                    oss << (first ? "" : ", ") << dimName(d) << ": "
                        << lm.spatial[dimIndex(d)];
                    first = false;
                }
            }
            oss << "}\n";
        }
    }
    return oss.str();
}

Mapping
Mapping::fromYaml(const spec::Hierarchy& hierarchy, const yaml::Node& doc)
{
    Mapping m = Mapping::identity(hierarchy);
    const yaml::Node* seq = &doc;
    if (doc.isMapping() && doc.has("mapping"))
        seq = &doc["mapping"];
    if (!seq->isSequence())
        CIM_FATAL("mapping document must be a sequence of node entries");
    for (const yaml::Node& entry : seq->elements()) {
        if (!entry.isMapping() || !entry.has("node"))
            CIM_FATAL("mapping entry needs a 'node' key");
        std::string node_name = entry["node"].asString();
        int i = hierarchy.indexOf(node_name);
        if (i < 0)
            CIM_FATAL("mapping references unknown node '", node_name,
                      "'");
        LevelMapping& lm = m.levels[i];
        for (const auto& [key, value] : entry.items()) {
            if (key == "node")
                continue;
            if (key == "temporal" || key == "spatial") {
                if (!value.isMapping())
                    CIM_FATAL("mapping node '", node_name, "': ", key,
                              " must be a {dim: factor} mapping");
                for (const auto& [dk, dv] : value.items()) {
                    Dim d = workload::dimFromString(dk);
                    std::int64_t f = dv.asInt();
                    if (f < 1)
                        CIM_FATAL("mapping node '", node_name,
                                  "': factor for ", dk, " must be >= 1");
                    (key == "temporal" ? lm.temporal
                                       : lm.spatial)[dimIndex(d)] = f;
                }
            } else if (key == "order") {
                if (!value.isSequence())
                    CIM_FATAL("mapping node '", node_name,
                              "': order must be a list of dims");
                for (const yaml::Node& dn : value.elements())
                    lm.order.push_back(
                        workload::dimFromString(dn.asString()));
            } else {
                CIM_FATAL("mapping node '", node_name,
                          "': unknown key '", key, "'");
            }
        }
    }
    return m;
}

Mapping
Mapping::fromText(const spec::Hierarchy& hierarchy,
                  const std::string& text)
{
    return fromYaml(hierarchy, yaml::parse(text));
}

std::string
Mapping::toString(const spec::Hierarchy& hierarchy) const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const LevelMapping& lm = levels[i];
        const spec::SpecNode& node =
            i < hierarchy.nodes.size() ? hierarchy.nodes[i] : spec::SpecNode{};
        bool any = false;
        std::ostringstream line;
        line << node.name << ": ";
        for (Dim d : lm.effectiveOrder()) {
            line << "for " << dimName(d) << " in 0.."
                 << lm.temporal[dimIndex(d)] << " ";
            any = true;
        }
        for (Dim d : kAllDims) {
            if (lm.spatial[dimIndex(d)] > 1) {
                line << "par-for " << dimName(d) << " in 0.."
                     << lm.spatial[dimIndex(d)] << " ";
                any = true;
            }
        }
        if (any)
            oss << line.str() << "\n";
    }
    return oss.str();
}

} // namespace cimloop::mapping
