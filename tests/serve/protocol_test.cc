/**
 * In-process tests for the `cimloop serve` protocol: request/response
 * shape, structured errors, byte-identity with the one-shot CLI, and a
 * randomized robustness (fuzz) suite asserting that no malformed line
 * can kill the handler. Socket-free — the black-box twin of this file
 * is tests/tools/serve_e2e.sh.
 */
#include "cimloop/serve/protocol.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cimloop/cli/cli.hh"
#include "cimloop/common/error.hh"
#include "cimloop/common/util.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/models/component.hh"
#include "cimloop/serve/json.hh"

namespace cimloop::serve {
namespace {

/** A fresh single-threaded server/client pair for one test. */
struct Harness
{
    ServerState server;
    ClientState client;

    Harness()
    {
        server.config.defaultThreads = 1;
        engine::clearPerActionCache();
    }
    ~Harness() { engine::clearPerActionCache(); }

    std::string call(const std::string& line)
    {
        CancelToken token;
        return handleRequestLine(server, client, line, token);
    }
};

/** Parses a response line, asserting it is a one-line JSON object. */
JsonValue
parseResponse(const std::string& resp)
{
    EXPECT_EQ(resp.find('\n'), std::string::npos)
        << "response must be a single line";
    std::string error;
    std::optional<JsonValue> doc = parseJson(resp, &error);
    EXPECT_TRUE(doc.has_value()) << error << " in: " << resp;
    EXPECT_TRUE(doc && doc->isObject()) << resp;
    return doc ? *doc : JsonValue{};
}

/** The error.kind member of a failed response ("" when absent). */
std::string
errorKind(const JsonValue& doc)
{
    const JsonValue* err = doc.get("error");
    if (!err || !err->isObject())
        return "";
    const JsonValue* kind = err->get("kind");
    return kind && kind->isString() ? kind->text : "";
}

bool
okField(const JsonValue& doc)
{
    const JsonValue* ok = doc.get("ok");
    return ok && ok->isBool() && ok->boolean;
}

TEST(Protocol, PingRoundTrip)
{
    Harness h;
    EXPECT_EQ(h.call("{\"id\":1,\"kind\":\"ping\"}"),
              "{\"id\":1,\"ok\":true,\"result\":{\"pong\":true,"
              "\"protocol\":1}}");
}

TEST(Protocol, IdEchoIsByteExact)
{
    Harness h;
    // Far past 2^64: a double would round this; the raw token must not.
    const std::string huge = "99999999999999999999999999999999";
    std::string resp =
        h.call("{\"id\":" + huge + ",\"kind\":\"ping\"}");
    EXPECT_NE(resp.find("\"id\":" + huge + ","), std::string::npos)
        << resp;

    // Trailing zeros and exponent spelling survive too.
    resp = h.call("{\"id\":1.50e2,\"kind\":\"ping\"}");
    EXPECT_NE(resp.find("\"id\":1.50e2,"), std::string::npos) << resp;

    // String ids round-trip; a request without an id echoes null.
    resp = h.call("{\"id\":\"req-7\",\"kind\":\"ping\"}");
    EXPECT_NE(resp.find("\"id\":\"req-7\","), std::string::npos);
    resp = h.call("{\"kind\":\"ping\"}");
    EXPECT_NE(resp.find("\"id\":null,"), std::string::npos);
}

TEST(Protocol, StructuredErrorTaxonomy)
{
    Harness h;
    struct Case
    {
        const char* line;
        const char* kind;
    };
    const Case cases[] = {
        {"not json at all", "parse"},
        {"{\"kind\":\"ping\"} trailing", "parse"},
        {"{\"kind\":\"ping\"", "parse"},
        {"[1,2,3]", "protocol"},
        {"42", "protocol"},
        {"{\"id\":1}", "protocol"},
        {"{\"id\":1,\"kind\":7}", "protocol"},
        {"{\"id\":1,\"kind\":\"bogus\"}", "protocol"},
        {"{\"id\":1,\"kind\":\"ping\",\"extra\":true}", "protocol"},
        {"{\"id\":1,\"kind\":\"evaluate\",\"mappings\":\"ten\"}",
         "protocol"},
        {"{\"id\":1,\"kind\":\"evaluate\",\"no_such_field\":1}",
         "protocol"},
        {"{\"id\":1,\"kind\":\"sweep\",\"threads\":2}", "protocol"},
        // Valid shape, rejected by the CLI's own flag validation.
        {"{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
         "\"network\":\"mvm\",\"mappings\":-3}",
         "usage"},
        {"{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
         "\"network\":\"mvm\",\"objective\":\"vibes\"}",
         "usage"},
    };
    for (const Case& c : cases) {
        JsonValue doc = parseResponse(h.call(c.line));
        EXPECT_FALSE(okField(doc)) << c.line;
        EXPECT_EQ(errorKind(doc), c.kind) << c.line;
    }
    // Every rejection was counted, and the handler is still healthy.
    EXPECT_EQ(h.server.errorsTotal.load(), std::size(cases));
    EXPECT_EQ(h.client.errors.load(), std::size(cases));
    EXPECT_TRUE(okField(parseResponse(h.call("{\"kind\":\"ping\"}"))));
}

TEST(Protocol, OversizedLineIsRejectedNotFatal)
{
    Harness h;
    h.server.config.maxLineBytes = 64;
    std::string big = "{\"kind\":\"ping\",\"pad\":\"";
    big.append(200, 'x');
    big += "\"}";
    JsonValue doc = parseResponse(h.call(big));
    EXPECT_FALSE(okField(doc));
    EXPECT_EQ(errorKind(doc), "protocol");
    EXPECT_TRUE(okField(parseResponse(h.call("{\"kind\":\"ping\"}"))));
}

TEST(Protocol, ShutdownFlipsTheFlag)
{
    Harness h;
    EXPECT_FALSE(h.server.shutdownRequested.load());
    JsonValue doc = parseResponse(h.call("{\"id\":9,\"kind\":\"shutdown\"}"));
    EXPECT_TRUE(okField(doc));
    EXPECT_TRUE(h.server.shutdownRequested.load());
}

TEST(Protocol, MetricsShape)
{
    Harness h;
    JsonValue doc = parseResponse(h.call("{\"id\":2,\"kind\":\"metrics\"}"));
    ASSERT_TRUE(okField(doc));
    const JsonValue* result = doc.get("result");
    ASSERT_TRUE(result && result->isObject());
    for (const char* member : {"server", "client", "cache", "counters"}) {
        const JsonValue* m = result->get(member);
        EXPECT_TRUE(m && m->isObject()) << member;
    }
    const JsonValue* cache = result->get("cache");
    ASSERT_TRUE(cache);
    for (const char* member :
         {"hits", "misses", "entries", "bytes", "evictions",
          "budget_bytes"}) {
        const JsonValue* m = cache->get(member);
        EXPECT_TRUE(m && m->isNumber()) << member;
    }
    const JsonValue* client = result->get("client");
    ASSERT_TRUE(client);
    const JsonValue* requests = client->get("requests");
    ASSERT_TRUE(requests && requests->isNumber());
    EXPECT_EQ(requests->number, 1.0); // this very request
}

// ---------------------------------------------------------------------
// Executed requests: the determinism contract against the one-shot CLI.
// ---------------------------------------------------------------------

/** Runs the one-shot CLI in-process and returns (exit, stdout). */
std::pair<int, std::string>
oneShot(const std::vector<std::string>& args)
{
    std::ostringstream out, err;
    int rc = cli::run(args, out, err);
    return {rc, out.str()};
}

TEST(ServeExec, EvaluateMatchesOneShotCliByteForByte)
{
    for (const char* threads : {"1", "8"}) {
        Harness h;
        std::string req =
            std::string("{\"id\":1,\"kind\":\"evaluate\","
                        "\"macro\":\"base\",\"network\":\"mvm\","
                        "\"mappings\":16,\"seed\":5,\"threads\":") +
            threads + "}";
        JsonValue cold = parseResponse(h.call(req));
        JsonValue warm = parseResponse(h.call(req)); // cache is hot now

        auto [rc, expected] = oneShot({"--macro", "base", "--network",
                                       "mvm", "--mappings", "16",
                                       "--seed", "5", "--threads",
                                       threads});
        ASSERT_EQ(rc, 0);
        for (const JsonValue* doc : {&cold, &warm}) {
            ASSERT_TRUE(okField(*doc));
            const JsonValue* exit_code = doc->get("exit");
            ASSERT_TRUE(exit_code && exit_code->isNumber());
            EXPECT_EQ(exit_code->number, 0.0);
            const JsonValue* out = doc->get("stdout");
            ASSERT_TRUE(out && out->isString());
            EXPECT_EQ(out->text, expected)
                << "daemon stdout diverged at threads=" << threads;
        }
    }
}

TEST(ServeExec, LayoutEvaluateMatchesOneShotCliByteForByte)
{
    // The layout / layout_search request fields ride the same
    // field-to-argv translation as every other flag, so a co-search
    // evaluate through the daemon is byte-identical to the one-shot CLI.
    Harness h;
    std::string req =
        "{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
        "\"network\":\"mvm\",\"mappings\":12,\"seed\":5,"
        "\"objective\":\"delay\",\"layout_search\":true,\"threads\":2}";
    JsonValue doc = parseResponse(h.call(req));
    auto [rc, expected] =
        oneShot({"--macro", "base", "--network", "mvm", "--mappings",
                 "12", "--seed", "5", "--objective", "delay",
                 "--layout-search", "--threads", "2"});
    ASSERT_EQ(rc, 0);
    ASSERT_TRUE(okField(doc));
    const JsonValue* out = doc.get("stdout");
    ASSERT_TRUE(out && out->isString());
    EXPECT_EQ(out->text, expected);

    // A fixed layout file travels through the "layout" string field.
    const std::string layout_path =
        ::testing::TempDir() + "/serve_layout.yaml";
    {
        std::ofstream spec(layout_path);
        spec << "layout:\n"
                "  name: banked4\n"
                "  nodes:\n"
                "    - node: buffer\n"
                "      tensors:\n"
                "        - tensor: Inputs\n"
                "          banks: 4\n";
    }
    JsonValue fixed = parseResponse(
        h.call("{\"id\":2,\"kind\":\"evaluate\",\"macro\":\"base\","
               "\"network\":\"mvm\",\"mappings\":12,\"seed\":5,"
               "\"layout\":\"" +
               layout_path + "\",\"threads\":2}"));
    auto [rc2, expected2] =
        oneShot({"--macro", "base", "--network", "mvm", "--mappings",
                 "12", "--seed", "5", "--layout", layout_path,
                 "--threads", "2"});
    ASSERT_EQ(rc2, 0);
    ASSERT_TRUE(okField(fixed));
    const JsonValue* out2 = fixed.get("stdout");
    ASSERT_TRUE(out2 && out2->isString());
    EXPECT_EQ(out2->text, expected2);
}

TEST(ServeExec, SweepMatchesOneShotCliByteForByte)
{
    const std::string spec_path =
        ::testing::TempDir() + "/serve_tiny_sweep.yaml";
    {
        std::ofstream spec(spec_path);
        spec << "sweep:\n"
                "  name: serve-tiny\n"
                "  macro: base\n"
                "  network: mvm\n"
                "  seed: 3\n"
                "  axes:\n"
                "    - field: dac_bits\n"
                "      values: [1, 2]\n"
                "    - field: mappings\n"
                "      values: [5]\n";
    }
    Harness h;
    JsonValue doc = parseResponse(
        h.call("{\"id\":1,\"kind\":\"sweep\",\"sweep\":\"" + spec_path +
               "\",\"threads\":2}"));
    auto [rc, expected] =
        oneShot({"--sweep", spec_path, "--threads", "2"});
    ASSERT_EQ(rc, 0);
    ASSERT_TRUE(okField(doc));
    const JsonValue* out = doc.get("stdout");
    ASSERT_TRUE(out && out->isString());
    EXPECT_EQ(out->text, expected);
}

TEST(ServeExec, TimeoutMapsToDeadlineError)
{
    Harness h;
    JsonValue doc = parseResponse(
        h.call("{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
               "\"network\":\"mvm\",\"mappings\":500,"
               "\"timeout_s\":0.000001}"));
    EXPECT_FALSE(okField(doc));
    const JsonValue* exit_code = doc.get("exit");
    ASSERT_TRUE(exit_code && exit_code->isNumber());
    EXPECT_EQ(exit_code->number, 124.0);
    EXPECT_EQ(errorKind(doc), "deadline");
}

TEST(ServeExec, DisconnectCancelMapsToCancelledError)
{
    Harness h;
    CancelToken token;
    token.cancel(CancelReason::User); // what the socket layer does
    std::string resp = handleRequestLine(
        h.server, h.client,
        "{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
        "\"network\":\"mvm\",\"mappings\":500}",
        token);
    JsonValue doc = parseResponse(resp);
    EXPECT_FALSE(okField(doc));
    EXPECT_EQ(errorKind(doc), "cancelled");
}

TEST(ServeExec, OperatingPointErrorsMatchOneShotCli)
{
    // A rejected flag value is a usage error in both front ends (exit 2
    // one-shot, kind "usage" in the daemon); a non-finite result is a
    // fatal error with exit 1 in both.
    Harness h;
    auto [bits_rc, bits_out] = oneShot(
        {"--macro", "base", "--network", "mvm", "--input-bits", "40"});
    EXPECT_EQ(bits_rc, cli::ExitUsage);
    JsonValue bits = parseResponse(
        h.call("{\"id\":1,\"kind\":\"evaluate\",\"macro\":\"base\","
               "\"network\":\"mvm\",\"input_bits\":40}"));
    EXPECT_FALSE(okField(bits));
    EXPECT_EQ(errorKind(bits), "usage");

    // Out-of-range slice widths and non-positive physical quantities are
    // usage errors in both front ends too.
    const std::vector<std::tuple<std::string, std::string, std::string>>
        out_of_range = {{"--dac-bits", "dac_bits", "64"},
                        {"--dac-bits", "dac_bits", "0"},
                        {"--cell-bits", "cell_bits", "40"},
                        {"--voltage", "voltage", "0"},
                        {"--voltage", "voltage", "-0.5"},
                        {"--tech", "tech_nm", "0"}};
    int id = 100;
    for (const auto& [flag, field, value] : out_of_range) {
        auto [rc, out] =
            oneShot({"--macro", "base", "--network", "mvm", flag, value});
        EXPECT_EQ(rc, cli::ExitUsage) << flag << " " << value;
        JsonValue doc = parseResponse(h.call(
            "{\"id\":" + std::to_string(++id) +
            ",\"kind\":\"evaluate\",\"macro\":\"base\","
            "\"network\":\"mvm\",\"" + field + "\":" + value + "}"));
        EXPECT_FALSE(okField(doc)) << field << " " << value;
        EXPECT_EQ(errorKind(doc), "usage") << field << " " << value;
        const JsonValue* message = doc.get("error")->get("message");
        ASSERT_TRUE(message && message->isString());
        EXPECT_NE(message->text.find(flag), std::string::npos)
            << message->text;
    }

    auto [volt_rc, volt_out] =
        oneShot({"--macro", "base", "--network", "mvm", "--mappings", "10",
                 "--voltage", "1e200"});
    EXPECT_EQ(volt_rc, cli::ExitFatal);
    JsonValue volt = parseResponse(
        h.call("{\"id\":2,\"kind\":\"evaluate\",\"macro\":\"base\","
               "\"network\":\"mvm\",\"mappings\":10,\"voltage\":1e200}"));
    EXPECT_FALSE(okField(volt));
    const JsonValue* exit_code = volt.get("exit");
    ASSERT_TRUE(exit_code && exit_code->isNumber());
    EXPECT_EQ(exit_code->number, static_cast<double>(volt_rc));
    EXPECT_EQ(errorKind(volt), "fatal");
}

/** Writes an arch YAML whose converter node has class @p dac_class,
 *  the given resolution, and an SRAM buffer of @p entries; returns its
 *  path. */
std::string
writeArch(const std::string& name, const std::string& dac_class,
          int entries, int resolution)
{
    const std::string path = "/tmp/cimloop_serve_" + name + ".yaml";
    std::ofstream a(path);
    a << "!Component\nname: buffer\nclass: SRAM\n"
         "temporal_reuse: [Inputs, Outputs]\nentries: "
      << entries
      << "\n!Component\nname: dac\nclass: " << dac_class
      << "\nno_coalesce: [Inputs]\nresolution: " << resolution
      << "\n!Container\nname: col\nspatial: {meshX: 16}\n"
         "spatial_reuse: [Inputs]\nspatial_dims: [K, WB]\n"
         "!Component\nname: cells\nclass: ReRAMCell\n"
         "spatial: {meshY: 16}\ntemporal_reuse: [Weights]\n"
         "spatial_reuse: [Outputs]\nspatial_dims: [C, R, S]\n";
    return path;
}

/** Runs @p arch on mvm one-shot and through the daemon; asserts both
 *  exit 1 with identical stdout and stderr, and returns that stderr. */
std::string
expectFatalInBothFrontEnds(const std::string& arch)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::run({"--arch", arch, "--network", "mvm", "--mappings",
                        "4"},
                       out, err),
              cli::ExitFatal)
        << err.str();
    Harness h;
    JsonValue doc = parseResponse(
        h.call("{\"id\":1,\"kind\":\"evaluate\",\"arch\":\"" + arch +
               "\",\"network\":\"mvm\",\"mappings\":4}"));
    EXPECT_FALSE(okField(doc));
    EXPECT_EQ(errorKind(doc), "fatal");
    const JsonValue* exit_code = doc.get("exit");
    EXPECT_TRUE(exit_code && exit_code->number == 1.0);
    const JsonValue* d_out = doc.get("stdout");
    const JsonValue* d_err = doc.get("stderr");
    EXPECT_TRUE(d_out && d_out->text == out.str());
    EXPECT_TRUE(d_err && d_err->text == err.str())
        << (d_err ? d_err->text : "") << " vs " << err.str();
    return err.str();
}

TEST(ServeExec, OutOfRangeArchAttributeIsTheSameNamedFatal)
{
    for (const auto& [arch, needle] :
         {std::pair{writeArch("dac40", "DAC", 8192, 40),
                    "DAC attribute 'resolution'"},
          std::pair{writeArch("sram0", "DAC", 0, 1),
                    "SRAM attributes 'entries'"}}) {
        const std::string err = expectFatalInBothFrontEnds(arch);
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        EXPECT_EQ(err.find("panic:"), std::string::npos) << err;
        std::remove(arch.c_str());
    }
}

/** A component model that trips an internal check: the stand-in for a
 *  bug no front-end validation caught. */
class PanicProbeModel : public models::ComponentModel
{
  public:
    std::string className() const override { return "PanicProbe"; }
    std::string description() const override { return "always panics"; }
    models::ComponentEstimate
    estimate(const models::ComponentContext&) const override
    {
        CIM_PANIC("panic probe reached");
    }
};

TEST(ServeExec, EscapedPanicExitsOneInBothFrontEnds)
{
    // A PanicError escaping the CLI core used to std::terminate the
    // one-shot tool (exit 134) while the daemon answered exit 1.
    models::PluginRegistry::instance().add(
        std::make_unique<PanicProbeModel>());
    const std::string arch = writeArch("probe", "PanicProbe", 8192, 1);
    const std::string err = expectFatalInBothFrontEnds(arch);
    EXPECT_NE(err.find("panic probe reached"), std::string::npos) << err;
    std::remove(arch.c_str());
}

TEST(ServeExec, ExecutionFailureIsStructuredAndSurvivable)
{
    Harness h;
    JsonValue doc = parseResponse(
        h.call("{\"id\":1,\"kind\":\"evaluate\",\"network\":\"mvm\","
               "\"arch\":\"/nonexistent/arch.yaml\"}"));
    EXPECT_FALSE(okField(doc));
    const JsonValue* exit_code = doc.get("exit");
    ASSERT_TRUE(exit_code && exit_code->isNumber());
    EXPECT_EQ(exit_code->number, 1.0);
    EXPECT_EQ(errorKind(doc), "fatal");
    const JsonValue* message = doc.get("error")->get("message");
    ASSERT_TRUE(message && message->isString());
    EXPECT_FALSE(message->text.empty());
    // The daemon keeps serving after a failed evaluation.
    EXPECT_TRUE(okField(parseResponse(h.call("{\"kind\":\"ping\"}"))));
}

// ---------------------------------------------------------------------
// Randomized robustness: no line may kill the handler or produce a
// malformed response. 200 adversarial lines from a seeded generator.
// ---------------------------------------------------------------------

std::string
fuzzLine(Rng& rng, int variant)
{
    const std::string canonical =
        "{\"id\":17,\"kind\":\"evaluate\",\"macro\":\"base\","
        "\"network\":\"mvm\",\"mappings\":10,\"seed\":1}";
    switch (variant) {
    case 0: { // raw bytes, NULs and all ('\n' would end the line)
        std::string s;
        std::size_t len = 1 + rng.next() % 64;
        for (std::size_t i = 0; i < len; ++i) {
            char c = static_cast<char>(rng.next() % 256);
            s.push_back(c == '\n' ? 'x' : c);
        }
        return s;
    }
    case 1: // truncated valid request
        return canonical.substr(0, rng.next() % canonical.size());
    case 2: { // valid JSON, wrong top-level shape
        const char* shapes[] = {"[1,2,3]", "\"evaluate\"", "3.25",
                                "null", "true", "[]", "[{}]"};
        return shapes[rng.next() % std::size(shapes)];
    }
    case 3: { // object with wrong-typed / unknown members
        const char* kinds[] = {"\"ping\"", "\"bogus\"", "\"EVALUATE\"",
                               "7", "null", "[\"ping\"]", "\"\""};
        const char* extras[] = {
            "\"mappings\":\"ten\"", "\"threads\":true",
            "\"macro\":12", "\"zzz\":1", "\"sweep\":3,\"kind\":5"};
        return std::string("{\"id\":") +
               std::to_string(rng.next() % 1000) +
               ",\"kind\":" + kinds[rng.next() % std::size(kinds)] +
               "," + extras[rng.next() % std::size(extras)] + "}";
    }
    case 4: { // gigantic numbers in every position
        std::string digits;
        std::size_t len = 20 + rng.next() % 60;
        for (std::size_t i = 0; i < len; ++i)
            digits.push_back(static_cast<char>('0' + rng.next() % 10));
        return "{\"id\":" + digits + ",\"kind\":\"ping\"}";
    }
    case 5: { // nesting past the parser's depth limit
        std::size_t depth = 65 + rng.next() % 200;
        std::string s(depth, '[');
        return s;
    }
    case 6: { // embedded NUL bytes, raw and escaped
        std::string s = "{\"kind\":\"ping";
        if (rng.next() % 2) {
            s.push_back('\0'); // raw: invalid JSON
        } else {
            s += std::string("\\u") + "0000"; // escaped: decodes to NUL
        }
        s += "\"}";
        return s;
    }
    default: { // structurally broken punctuation
        const char* broken[] = {
            "{\"kind\":}", "{:\"ping\"}", "{\"kind\" \"ping\"}",
            "{\"kind\":\"ping\",}", "{,}", "}", "{\"a\":1]",
            "{\"a\":01}", "{\"a\":+1}", "{\"a\":1.}", "{\"a\":.5}",
            "{\"a\":1e}", "{\"a\":\"\\q\"}", "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}"};
        return broken[rng.next() % std::size(broken)];
    }
    }
}

TEST(ProtocolFuzz, TwoHundredMalformedLinesNeverKillTheHandler)
{
    Harness h;
    int rejected = 0;
    for (int i = 0; i < 200; ++i) {
        Rng rng = Rng::forStream(0xF0220, static_cast<std::uint64_t>(i));
        const std::string line = fuzzLine(rng, i % 8);

        CancelToken token;
        std::string resp;
        ASSERT_NO_THROW(resp = handleRequestLine(h.server, h.client,
                                                 line, token))
            << "case " << i;
        ASSERT_FALSE(resp.empty()) << "case " << i;
        EXPECT_EQ(resp.find('\n'), std::string::npos) << "case " << i;

        std::string error;
        std::optional<JsonValue> doc = parseJson(resp, &error);
        ASSERT_TRUE(doc.has_value())
            << "case " << i << ": response not JSON (" << error
            << "): " << resp;
        ASSERT_TRUE(doc->isObject()) << "case " << i;
        const JsonValue* ok = doc->get("ok");
        ASSERT_TRUE(ok && ok->isBool()) << "case " << i;
        if (!ok->boolean) {
            ++rejected;
            const std::string kind = errorKind(*doc);
            EXPECT_TRUE(kind == "parse" || kind == "protocol" ||
                        kind == "usage")
                << "case " << i << ": unexpected kind " << kind;
        }
    }
    // The generator is overwhelmingly adversarial; only the rare
    // accidental ping/metrics may succeed.
    EXPECT_GT(rejected, 150);
    // And the handler still works after all of it.
    EXPECT_TRUE(okField(parseResponse(h.call("{\"kind\":\"ping\"}"))));
}

// ---------------------------------------------------------------------
// JSON layer pins: raw-token round trips and escaping.
// ---------------------------------------------------------------------

TEST(ProtocolJson, RawNumberTokensRoundTrip)
{
    for (const char* token :
         {"0", "-0", "1.50", "1e9", "123456789012345678901234567890",
          "-2.5E-3"}) {
        std::optional<JsonValue> doc = parseJson(token);
        ASSERT_TRUE(doc && doc->isNumber()) << token;
        EXPECT_EQ(writeJson(*doc), token);
    }
}

TEST(ProtocolJson, StringEscapingRoundTrips)
{
    std::string nasty = "quote\" slash\\ tab\t newline\n";
    nasty.push_back('\0');
    nasty += "\x01 high\xE2\x82\xAC"; // control byte + euro sign UTF-8
    JsonValue v;
    v.kind = JsonValue::Kind::String;
    v.text = nasty;
    std::optional<JsonValue> back = parseJson(writeJson(v));
    ASSERT_TRUE(back && back->isString());
    EXPECT_EQ(back->text, nasty);
}

TEST(ProtocolJson, SurrogatePairsDecodeToUtf8)
{
    // G-clef U+1D11E as a surrogate pair.
    std::string in = std::string("\"") + "\\u" + "D834" + "\\u" +
                     "DD1E" + "\"";
    std::optional<JsonValue> doc = parseJson(in);
    ASSERT_TRUE(doc && doc->isString());
    EXPECT_EQ(doc->text, "\xF0\x9D\x84\x9E");
}

TEST(ProtocolJson, DepthLimitHolds)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    std::string error;
    EXPECT_FALSE(parseJson(deep, &error).has_value());
    EXPECT_NE(error.find("nesting"), std::string::npos);

    std::string shallow(10, '[');
    shallow += std::string(10, ']');
    EXPECT_TRUE(parseJson(shallow).has_value());
}

} // namespace
} // namespace cimloop::serve
