#include "cimloop/serve/protocol.hh"

#include <exception>
#include <iterator>
#include <sstream>
#include <vector>

#include "cimloop/cli/cli.hh"
#include "cimloop/common/error.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/obs/obs.hh"
#include "cimloop/serve/json.hh"

namespace cimloop::serve {

namespace {

/**
 * One request field the protocol accepts, and the CLI flag it becomes.
 * Translating fields to argv and re-entering cli::parseArgs() buys the
 * daemon the CLI's entire validation surface for free and guarantees
 * the determinism contract structurally: a request *is* a one-shot
 * invocation, minus the per-process setup runParsed() skips.
 */
struct FieldSpec
{
    const char* name; //!< JSON member name (snake_case)
    const char* flag; //!< CLI flag it maps to
    enum Type
    {
        String, //!< must be a JSON string; passed through decoded
        Number, //!< must be a JSON number; passed as its raw token
        Flag,   //!< must be a JSON bool; true appends the bare flag
    } type;
};

// Numbers travel as their raw source token so the CLI's own
// parseInt/parseDouble decide validity ("seed":1e3 fails the same way
// `--seed 1e3` does); booleans gate presence of a bare flag.
const FieldSpec kEvaluateFields[] = {
    {"macro", "--macro", FieldSpec::String},
    {"arch", "--arch", FieldSpec::String},
    {"network", "--network", FieldSpec::String},
    {"workload", "--workload", FieldSpec::String},
    {"seed", "--seed", FieldSpec::Number},
    {"threads", "--threads", FieldSpec::Number},
    {"objective", "--objective", FieldSpec::String},
    {"device", "--device", FieldSpec::String},
    {"faults", "--faults", FieldSpec::String},
    {"mapping", "--mapping", FieldSpec::String},
    {"layout", "--layout", FieldSpec::String},
    {"layout_search", "--layout-search", FieldSpec::Flag},
    {"keep_going", "--keep-going", FieldSpec::Flag},
    {"report", "--report", FieldSpec::Flag},
    {"csv", "--csv", FieldSpec::String},
    {"ert", "--ert", FieldSpec::String},
    {"timeout_s", "--timeout", FieldSpec::Number},
};

const FieldSpec kSweepFields[] = {
    {"sweep", "--sweep", FieldSpec::String},
    {"seed", "--seed", FieldSpec::Number},
    {"threads", "--threads", FieldSpec::Number},
    {"chunk_size", "--chunk-size", FieldSpec::Number},
    {"max_chunks", "--max-chunks", FieldSpec::Number},
    {"resume", "--resume", FieldSpec::String},
    {"csv", "--csv", FieldSpec::String},
    {"json", "--json", FieldSpec::String},
    {"timeout_s", "--timeout", FieldSpec::Number},
};

const FieldSpec*
findField(const FieldSpec* table, std::size_t n, const std::string& name)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (name == table[i].name)
            return &table[i];
    }
    return nullptr;
}

/** Serialized "id" member of the request ("null" when absent or the
 *  request never parsed). Raw-token numbers round-trip byte-exact. */
std::string
requestId(const JsonValue* doc)
{
    if (doc && doc->isObject()) {
        if (const JsonValue* id = doc->get("id"))
            return writeJson(*id);
    }
    return "null";
}

const char* const kTypeWord[] = {"a string", "a number", "a boolean"};

/**
 * Translates the request's members into argv for cli::parseArgs().
 * With @p design_fields, every dse::numericFields() row that has a CLI
 * flag is a Number member too, under its sweep name (tech_nm, dac_bits,
 * mappings, ...). Returns false (with a protocol-error message) on an
 * unknown member or a type mismatch; value *validation* stays with the
 * CLI.
 */
bool
buildArgs(const JsonValue& doc, const FieldSpec* table, std::size_t n,
          bool design_fields, std::vector<std::string>& args,
          std::string& error)
{
    for (const auto& [key, value] : doc.members) {
        if (key == "id" || key == "kind")
            continue;
        const FieldSpec* spec = findField(table, n, key);
        const dse::NumericField* numeric = dse::findNumericField(key);
        const FieldSpec design{key.c_str(), numeric ? numeric->flag : nullptr,
                               FieldSpec::Number};
        if (!spec && design_fields && design.flag)
            spec = &design;
        if (!spec) {
            error = "unknown field \"" + key + "\"";
            return false;
        }
        // Last duplicate wins, consistent with JsonValue::get().
        if (doc.get(key) != &value)
            continue;
        switch (spec->type) {
        case FieldSpec::String:
            if (!value.isString()) {
                error = "field \"" + key + "\" must be " +
                        kTypeWord[FieldSpec::String];
                return false;
            }
            args.push_back(spec->flag);
            args.push_back(value.text);
            break;
        case FieldSpec::Number:
            if (!value.isNumber()) {
                error = "field \"" + key + "\" must be " +
                        kTypeWord[FieldSpec::Number];
                return false;
            }
            args.push_back(spec->flag);
            args.push_back(value.raw);
            break;
        case FieldSpec::Flag:
            if (!value.isBool()) {
                error = "field \"" + key + "\" must be " +
                        kTypeWord[FieldSpec::Flag];
                return false;
            }
            if (value.boolean)
                args.push_back(spec->flag);
            break;
        }
    }
    return true;
}

/** The error "kind" for a nonzero exit from an executed request. */
std::string
executionErrorKind(int rc, const CancelToken& cancel)
{
    if (rc == cli::ExitDeadline) {
        return cancel.reason() == CancelReason::User ? "cancelled"
                                                     : "deadline";
    }
    if (rc >= 128)
        return "signal";
    if (rc == cli::ExitUsage)
        return "usage";
    return "fatal";
}

/** stderr with the trailing newline shaved off, for error messages. */
std::string
trimTrailingNewlines(std::string s)
{
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
        s.pop_back();
    return s;
}

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

/**
 * Runs an already-translated evaluate/sweep request through the CLI
 * core with the client's cache attribution installed, and packages exit
 * code + captured streams as the response. Never throws: runParsed()
 * already maps every std::exception to an exit code, and anything else
 * becomes a fatal execution error, not a dead daemon.
 */
std::string
executeRequest(ClientState& client, const std::string& id_json,
               const std::vector<std::string>& args,
               const CancelToken& cancel, bool& usage_error)
{
    usage_error = false;
    cli::CliOptions opts;
    try {
        opts = cli::parseArgs(args);
    } catch (const FatalError& e) {
        usage_error = true;
        return errorResponse(id_json, "usage", e.what());
    }
    // run() arms the deadline from --timeout before entering the core;
    // the daemon does the same on the per-request token, which the
    // socket layer additionally cancels on disconnect or shutdown.
    if (opts.timeoutSeconds > 0.0)
        cancel.setDeadline(Deadline::after(opts.timeoutSeconds));

    std::ostringstream out, err;
    int rc;
    {
        RequestStatsScope stats_scope(&client.cacheStats);
        try {
            rc = cli::runParsed(opts, cancel, out, err);
        } catch (...) {
            err << "unknown error\n";
            rc = cli::ExitFatal;
        }
    }

    std::string resp = "{\"id\":" + id_json +
                       ",\"ok\":" + (rc == 0 ? "true" : "false") +
                       ",\"exit\":" + std::to_string(rc) +
                       ",\"stdout\":\"" + jsonEscape(out.str()) +
                       "\",\"stderr\":\"" + jsonEscape(err.str()) + "\"";
    if (rc != 0) {
        resp += ",\"error\":{\"kind\":\"" + executionErrorKind(rc, cancel) +
                "\",\"message\":\"" +
                jsonEscape(trimTrailingNewlines(err.str())) + "\"}";
    }
    return resp + "}";
}

/** The metrics request: obs counters + cache + per-client attribution,
 *  compact on one line (obs::countersJson() is a multi-line fragment). */
std::string
metricsResponse(ServerState& server, ClientState& client,
                const std::string& id_json)
{
    const engine::PerActionCacheStats cache = engine::perActionCacheStats();
    const obs::MetricsSnapshot snap = obs::snapshot();

    std::string counters;
    for (const auto& [name, value] : snap.counters) {
        if (value == 0)
            continue; // match countersJson(): only touched counters
        if (!counters.empty())
            counters += ",";
        counters += "\"" + jsonEscape(name) + "\":" + u64(value);
    }

    std::string resp =
        "{\"id\":" + id_json + ",\"ok\":true,\"result\":{" +
        "\"protocol\":" + std::to_string(kProtocolVersion) +
        ",\"server\":{\"requests_total\":" + u64(server.requestsTotal) +
        ",\"errors_total\":" + u64(server.errorsTotal) +
        ",\"clients_total\":" + u64(server.clientsTotal) + "}" +
        ",\"client\":{\"id\":" + u64(client.clientId) +
        ",\"requests\":" + u64(client.requests) +
        ",\"errors\":" + u64(client.errors) +
        ",\"cache_hits\":" + u64(client.cacheStats.cacheHits) +
        ",\"cache_misses\":" + u64(client.cacheStats.cacheMisses) + "}" +
        ",\"cache\":{\"hits\":" + u64(cache.hits) +
        ",\"misses\":" + u64(cache.misses) +
        ",\"entries\":" + u64(cache.entries) +
        ",\"bytes\":" + u64(cache.bytes) +
        ",\"evictions\":" + u64(cache.evictions) +
        ",\"budget_bytes\":" + u64(cache.budgetBytes) + "}" +
        ",\"counters\":{" + counters + "}}}";
    return resp;
}

/** Rejects members other than id/kind on argument-less request kinds. */
bool
onlyIdAndKind(const JsonValue& doc, std::string& error)
{
    for (const auto& [key, value] : doc.members) {
        (void)value;
        if (key != "id" && key != "kind") {
            error = "unknown field \"" + key + "\"";
            return false;
        }
    }
    return true;
}

} // namespace

std::string
errorResponse(const std::string& id_json, const std::string& kind,
              const std::string& message)
{
    return "{\"id\":" + id_json + ",\"ok\":false,\"error\":{\"kind\":\"" +
           jsonEscape(kind) + "\",\"message\":\"" + jsonEscape(message) +
           "\"}}";
}

std::string
handleRequestLine(ServerState& server, ClientState& client,
                  const std::string& line, const CancelToken& cancel)
{
    static obs::Counter& requests = obs::counter("serve.requests.handled");
    static obs::Counter& errors = obs::counter("serve.requests.rejected");
    requests.add();
    server.requestsTotal.fetch_add(1, std::memory_order_relaxed);
    client.requests.fetch_add(1, std::memory_order_relaxed);

    // One response per line, whatever happens below.
    const auto reject = [&](const std::string& id_json,
                            const std::string& kind,
                            const std::string& message) {
        errors.add();
        server.errorsTotal.fetch_add(1, std::memory_order_relaxed);
        client.errors.fetch_add(1, std::memory_order_relaxed);
        return errorResponse(id_json, kind, message);
    };

    try {
        if (line.size() > server.config.maxLineBytes) {
            return reject("null", "protocol",
                          "request line exceeds " +
                              std::to_string(server.config.maxLineBytes) +
                              " bytes");
        }

        std::string parse_error;
        std::optional<JsonValue> doc = parseJson(line, &parse_error);
        if (!doc)
            return reject("null", "parse", parse_error);

        const std::string id_json = requestId(&*doc);
        if (!doc->isObject()) {
            return reject(id_json, "protocol",
                          "request must be a JSON object");
        }

        const JsonValue* kind = doc->get("kind");
        if (!kind)
            return reject(id_json, "protocol", "missing \"kind\"");
        if (!kind->isString()) {
            return reject(id_json, "protocol", "\"kind\" must be a string");
        }

        std::string shape_error;
        if (kind->text == "ping") {
            if (!onlyIdAndKind(*doc, shape_error))
                return reject(id_json, "protocol", shape_error);
            return "{\"id\":" + id_json +
                   ",\"ok\":true,\"result\":{\"pong\":true,\"protocol\":" +
                   std::to_string(kProtocolVersion) + "}}";
        }
        if (kind->text == "metrics") {
            if (!onlyIdAndKind(*doc, shape_error))
                return reject(id_json, "protocol", shape_error);
            return metricsResponse(server, client, id_json);
        }
        if (kind->text == "shutdown") {
            if (!onlyIdAndKind(*doc, shape_error))
                return reject(id_json, "protocol", shape_error);
            server.shutdownRequested.store(true, std::memory_order_release);
            return "{\"id\":" + id_json +
                   ",\"ok\":true,\"result\":{\"shutting_down\":true}}";
        }

        const bool is_evaluate = (kind->text == "evaluate");
        const bool is_sweep = (kind->text == "sweep");
        if (!is_evaluate && !is_sweep) {
            return reject(id_json, "protocol",
                          "unknown kind \"" + kind->text + "\"");
        }
        if (is_sweep && !doc->get("sweep")) {
            return reject(id_json, "protocol",
                          "sweep request requires a \"sweep\" field");
        }

        std::vector<std::string> args;
        const bool ok =
            is_evaluate ? buildArgs(*doc, kEvaluateFields,
                                    std::size(kEvaluateFields), true,
                                    args, shape_error)
                        : buildArgs(*doc, kSweepFields,
                                    std::size(kSweepFields), false, args,
                                    shape_error);
        if (!ok)
            return reject(id_json, "protocol", shape_error);
        if (!doc->get("threads")) {
            // The daemon's --threads is the default; a request field
            // overrides it per request.
            args.push_back("--threads");
            args.push_back(std::to_string(server.config.defaultThreads));
        }

        bool usage_error = false;
        std::string resp =
            executeRequest(client, id_json, args, cancel, usage_error);
        if (usage_error) {
            // Flag validation rejected the request before it ran;
            // count it like any other rejection.
            errors.add();
            server.errorsTotal.fetch_add(1, std::memory_order_relaxed);
            client.errors.fetch_add(1, std::memory_order_relaxed);
        }
        return resp;
    } catch (const std::exception& e) {
        // Belt and braces: no request may kill the daemon.
        return reject("null", "protocol",
                      std::string("internal error: ") + e.what());
    } catch (...) {
        return reject("null", "protocol", "internal error");
    }
}

} // namespace cimloop::serve
