/**
 * @file
 * Sweep result exporters: CSV, JSON, and the human-readable report.
 *
 * All three render from the merged, grid-ordered SweepResult and print
 * no thread counts or wall-clock times, so their bytes are part of the
 * determinism contract (identical for any --threads at fixed seed, and
 * identical between an uninterrupted and an interrupted-then-resumed
 * run). In memory-bounded mode the per-point sections render from the
 * retained frontier (plus failure samples); the summary still covers
 * the whole grid.
 */
#include "cimloop/dse/dse.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <sstream>

#include "detail.hh"

namespace cimloop::dse {

namespace detail {

std::string
fmtNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
fmtFull(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
csvField(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonUnescape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char e = s[++i];
        switch (e) {
        case '"':
            out += '"';
            break;
        case '\\':
            out += '\\';
            break;
        case 'n':
            out += '\n';
            break;
        case 't':
            out += '\t';
            break;
        case 'u':
            if (i + 4 < s.size()) {
                const std::string hex = s.substr(i + 1, 4);
                out += static_cast<char>(
                    std::strtol(hex.c_str(), nullptr, 16));
                i += 4;
            }
            break;
        default:
            // Not something jsonEscape emits; keep it verbatim.
            out += '\\';
            out += e;
        }
    }
    return out;
}

} // namespace detail

namespace {

using detail::csvField;
using detail::fmtNum;
using detail::jsonEscape;

/**
 * Axis column @p a of a point, or "" when the point carries fewer axis
 * texts than the sweep has axes. The executor always fills the shell,
 * but hand-built PointResults (API users, old artifacts) may not —
 * exporters must pad, never index out of bounds.
 */
const std::string&
axisTextAt(const PointResult& pr, std::size_t a)
{
    static const std::string empty;
    return a < pr.point.axisText.size() ? pr.point.axisText[a] : empty;
}

/** "array=64, dac_bits=2" from the result's own axis metadata. */
std::string
joinLabel(const SweepResult& result, const PointResult& pr)
{
    if (result.axisFields.empty())
        return "defaults";
    std::string out;
    for (std::size_t a = 0; a < result.axisFields.size(); ++a) {
        if (a)
            out += ", ";
        out += result.axisFields[a];
        out += '=';
        out += axisTextAt(pr, a);
    }
    return out;
}

} // namespace

std::string
toCsv(const SweepResult& result)
{
    std::ostringstream oss;
    oss << "point";
    for (const std::string& field : result.axisFields)
        oss << ',' << field;
    oss << ",status";
    for (const PointMetric& m : kPointMetrics)
        oss << ',' << m.column;
    oss << ",pareto,detail\n";
    for (const PointResult& pr : result.points) {
        oss << pr.point.index;
        // One column per axis field, padded with empty cells when the
        // point has no axis text (never under-emit columns).
        for (std::size_t a = 0; a < result.axisFields.size(); ++a)
            oss << ',' << csvField(axisTextAt(pr, a));
        oss << ',' << pointStatusName(pr.status);
        if (pr.status == PointStatus::Ok) {
            for (const PointMetric& m : kPointMetrics)
                oss << ',' << fmtNum(pr.*m.value);
            oss << ',' << (pr.onFrontier ? 1 : 0) << ',';
        } else {
            oss << ",,,,,,,,0," << csvField(pr.statusDetail);
        }
        oss << '\n';
    }
    return oss.str();
}

std::string
toJson(const SweepResult& result)
{
    std::ostringstream oss;
    oss << "{\n  \"sweep\": \"" << jsonEscape(result.name) << "\",\n";
    oss << "  \"axes\": [";
    for (std::size_t i = 0; i < result.axisFields.size(); ++i)
        oss << (i ? ", " : "") << '"' << jsonEscape(result.axisFields[i])
            << '"';
    oss << "],\n  \"pareto_objectives\": [";
    for (std::size_t i = 0; i < result.paretoObjectives.size(); ++i)
        oss << (i ? ", " : "") << '"'
            << jsonEscape(result.paretoObjectives[i]) << '"';
    oss << "],\n";
    oss << "  \"summary\": {\"points\": " << result.totalPoints
        << ", \"evaluated\": " << result.evaluated
        << ", \"failed\": " << result.failed
        << ", \"skipped\": " << result.skipped << ", \"best\": "
        << (result.bestIndex == static_cast<std::size_t>(-1)
                ? -1
                : static_cast<long long>(result.bestIndex))
        << ", \"cache_hits\": " << result.cacheHits
        << ", \"cache_misses\": " << result.cacheMisses;
    if (!result.pointsStored)
        oss << ", \"points_elided\": true";
    oss << "},\n";
    oss << "  \"frontier\": [";
    for (std::size_t i = 0; i < result.frontier.size(); ++i)
        oss << (i ? ", " : "") << result.frontier[i];
    oss << "],\n  \"points\": [\n";
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const PointResult& pr = result.points[i];
        oss << "    {\"point\": " << pr.point.index << ", \"axes\": {";
        for (std::size_t a = 0; a < result.axisFields.size(); ++a) {
            oss << (a ? ", " : "") << '"'
                << jsonEscape(result.axisFields[a]) << "\": \""
                << jsonEscape(axisTextAt(pr, a)) << '"';
        }
        oss << "}, \"status\": \"" << pointStatusName(pr.status) << '"';
        if (pr.status == PointStatus::Ok) {
            for (const PointMetric& m : kPointMetrics)
                oss << ", \"" << m.column << "\": " << fmtNum(pr.*m.value);
            oss << ", \"pareto\": " << (pr.onFrontier ? "true" : "false");
        } else {
            oss << ", \"detail\": \"" << jsonEscape(pr.statusDetail)
                << '"';
        }
        oss << '}' << (i + 1 < result.points.size() ? "," : "") << '\n';
    }
    oss << "  ]\n}\n";
    return oss.str();
}

std::string
formatTable(const SweepResult& result)
{
    std::ostringstream oss;
    oss << "sweep '" << result.name << "': " << result.totalPoints
        << " points (" << result.evaluated << " ok, " << result.failed
        << " failed, " << result.skipped << " skipped)\n";
    if (result.stoppedEarly) {
        oss << "paused after " << result.chunksExecuted +
                                      result.chunksResumed
            << " of " << result.chunksTotal << " chunks; "
            << result.totalPoints - result.evaluated - result.failed -
                   result.skipped
            << " points not yet evaluated\n";
    }
    if (!result.pointsStored) {
        oss << "memory-bounded run: per-point results were folded as "
               "chunks completed; showing the "
            << result.points.size() << " frontier points\n";
    }
    oss << '\n';

    // Column widths from the data so the table stays aligned for any
    // axis naming.
    std::vector<std::size_t> axisWidth;
    for (std::size_t a = 0; a < result.axisFields.size(); ++a) {
        std::size_t w = result.axisFields[a].size();
        for (const PointResult& pr : result.points)
            w = std::max(w, axisTextAt(pr, a).size());
        for (const PointResult& pr : result.failureSamples)
            w = std::max(w, axisTextAt(pr, a).size());
        axisWidth.push_back(w);
    }

    oss << std::setw(5) << "point";
    for (std::size_t a = 0; a < result.axisFields.size(); ++a)
        oss << "  " << std::setw(static_cast<int>(axisWidth[a]))
            << result.axisFields[a];
    oss << "  " << std::setw(7) << "status" << "  " << std::setw(12)
        << "pJ/MAC" << "  " << std::setw(12) << "latency ns" << "  "
        << std::setw(10) << "TOPS/W" << "  " << std::setw(9)
        << "acc loss" << "  pareto\n";
    for (const PointResult& pr : result.points) {
        oss << std::setw(5) << pr.point.index;
        for (std::size_t a = 0; a < result.axisFields.size(); ++a)
            oss << "  " << std::setw(static_cast<int>(axisWidth[a]))
                << axisTextAt(pr, a);
        oss << "  " << std::setw(7) << pointStatusName(pr.status);
        if (pr.status == PointStatus::Ok) {
            oss << "  " << std::setw(12) << fmtNum(pr.energyPerMacPj)
                << "  " << std::setw(12) << fmtNum(pr.latencyNs) << "  "
                << std::setw(10) << fmtNum(pr.topsPerWatt) << "  "
                << std::setw(9) << fmtNum(pr.accuracyLoss) << "  "
                << (pr.onFrontier ? "*" : "");
        }
        oss << '\n';
    }

    // Diagnostics: every non-Ok stored point, or the retained samples
    // in memory-bounded mode.
    const std::vector<PointResult>& diagSource =
        result.pointsStored ? result.points : result.failureSamples;
    bool anyBad = false;
    for (const PointResult& pr : diagSource)
        anyBad = anyBad || pr.status != PointStatus::Ok;
    if (anyBad) {
        const std::size_t nonOk = result.failed + result.skipped;
        oss << "\ndiagnostics";
        if (!result.pointsStored && diagSource.size() < nonOk)
            oss << " (first " << diagSource.size() << " of " << nonOk
                << " non-ok points)";
        oss << ":\n";
        for (const PointResult& pr : diagSource) {
            if (pr.status == PointStatus::Ok)
                continue;
            oss << "  #" << pr.point.index << " ["
                << joinLabel(result, pr) << "] "
                << pointStatusName(pr.status) << ": " << pr.statusDetail
                << '\n';
        }
    }

    oss << "\npareto frontier (";
    for (std::size_t i = 0; i < result.paretoObjectives.size(); ++i)
        oss << (i ? ", " : "") << result.paretoObjectives[i];
    oss << "): " << result.frontier.size() << " of " << result.evaluated
        << " evaluated points";
    if (!result.frontier.empty()) {
        oss << ":";
        for (std::size_t idx : result.frontier)
            oss << " #" << idx;
    }
    oss << '\n';

    if (result.bestIndex != static_cast<std::size_t>(-1)) {
        const PointResult* best = result.findPoint(result.bestIndex);
        if (best) {
            oss << "best (" << result.paretoObjectives[0] << "): #"
                << best->point.index << " [" << joinLabel(result, *best)
                << "] " << fmtNum(best->energyPerMacPj) << " pJ/MAC, "
                << fmtNum(best->latencyNs) << " ns, "
                << fmtNum(best->topsPerWatt) << " TOPS/W\n";
        } else {
            // Memory-bounded and the best point fell off the frontier
            // (tied on the first objective, dominated elsewhere).
            oss << "best (" << result.paretoObjectives[0] << "): #"
                << result.bestIndex << '\n';
        }
    }
    oss << "per-action cache across points: " << result.cacheHits
        << " hits, " << result.cacheMisses << " misses\n";
    return oss.str();
}

} // namespace cimloop::dse
