/**
 * Randomized front-end property test: every numeric design field, drawn
 * at and around the edges of its dse::numericFields() range, fed to the
 * three front ends that accept it — CLI flags, a --sweep YAML axis, and
 * a `cimloop serve` request. Whatever the value, each run must end in a
 * frozen exit code with no internal assertion in any output, print no
 * non-finite number as a success, and the daemon must answer with the
 * one-shot CLI's exact bytes.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cimloop/cli/cli.hh"
#include "cimloop/common/util.hh"
#include "cimloop/dse/dse.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/serve/json.hh"
#include "cimloop/serve/protocol.hh"

namespace cimloop::serve {
namespace {

constexpr int kCases = 48;

/** One drawn field value, rendered so it parses back exactly. */
struct Draw
{
    const dse::NumericField* field;
    double value;
    std::string text;
};

std::string
render(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** lo, hi, lo-1, hi+1, 0, -1, 0.5, nan or 1e300 for @p field; a step
 *  that rounds away steps to the next representable double instead. */
double
drawValue(Rng& rng, const dse::NumericField& field)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double lo = field.range.lo;
    const double hi = field.range.hi;
    switch (rng.next() % 9) {
    case 0:
        return lo;
    case 1:
        return hi;
    case 2:
        return lo - 1 < lo ? lo - 1 : std::nextafter(lo, -inf);
    case 3:
        return hi + 1 > hi ? hi + 1 : std::nextafter(hi, inf);
    case 4:
        return 0.0;
    case 5:
        return -1.0;
    case 6:
        return 0.5;
    case 7:
        return std::numeric_limits<double>::quiet_NaN();
    default:
        return 1e300;
    }
}

/** Draws 1-3 distinct fields; the first always has a CLI flag. The
 *  mapper budget stays fixed and small, so no field sets it. */
std::vector<Draw>
drawCase(std::uint64_t index)
{
    std::vector<const dse::NumericField*> flagged, all;
    for (const dse::NumericField& f : dse::numericFields()) {
        if (std::string(f.name) == "mappings")
            continue;
        all.push_back(&f);
        if (f.flag)
            flagged.push_back(&f);
    }
    Rng rng = Rng::forStream(2024, index);
    std::vector<Draw> draws;
    const std::size_t n = 1 + rng.next() % 3;
    while (draws.size() < n) {
        const auto& pool = draws.empty() ? flagged : all;
        const dse::NumericField* f = pool[rng.next() % pool.size()];
        bool taken = false;
        for (const Draw& d : draws)
            taken = taken || d.field == f;
        if (taken)
            continue;
        const double v = drawValue(rng, *f);
        draws.push_back({f, v, render(v)});
    }
    return draws;
}

struct Outcome
{
    int rc;
    std::string out, err;
};

Outcome
oneShot(const std::vector<std::string>& args)
{
    std::ostringstream out, err;
    const int rc = cli::run(args, out, err);
    return {rc, out.str(), err.str()};
}

/** True when @p line holds a standalone nan or inf word, any case. */
bool
hasNonFiniteWord(std::string line)
{
    const auto letter = [&](std::size_t i) {
        return i < line.size() &&
               std::isalpha(static_cast<unsigned char>(line[i]));
    };
    for (char& c : line)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    for (const char* word : {"nan", "inf"}) {
        for (std::size_t at = line.find(word); at != std::string::npos;
             at = line.find(word, at + 1)) {
            if ((at == 0 || !letter(at - 1)) && !letter(at + 3))
                return true;
        }
    }
    return false;
}

/** The frozen exit codes, no assertion text anywhere, and no NaN/inf
 *  on the report of a run that exited 0. */
void
expectWellBehaved(const Outcome& o, const std::string& what)
{
    EXPECT_TRUE(o.rc == 0 || o.rc == 1 || o.rc == 2 || o.rc == 124)
        << what << ": rc " << o.rc << "\n" << o.err;
    EXPECT_EQ(o.out.find("panic:"), std::string::npos) << what << o.out;
    EXPECT_EQ(o.err.find("panic:"), std::string::npos) << what << o.err;
    if (o.rc != 0)
        return;
    std::istringstream lines(o.out);
    for (std::string line; std::getline(lines, line);) {
        EXPECT_FALSE(hasNonFiniteWord(line))
            << what << ": non-finite success line '" << line << "'";
    }
}

/** Sends @p request to a fresh daemon state and asserts the response
 *  carries exactly what the one-shot run @p expected wrote. */
void
expectDaemonMatches(const std::string& request, const Outcome& expected,
                    const std::string& what)
{
    ServerState server;
    server.config.defaultThreads = 1;
    ClientState client;
    CancelToken token;
    const std::string resp =
        handleRequestLine(server, client, request, token);
    std::optional<JsonValue> doc = parseJson(resp, nullptr);
    ASSERT_TRUE(doc && doc->isObject()) << what << ": " << resp;
    EXPECT_EQ(resp.find("panic:"), std::string::npos) << what << resp;
    if (expected.rc == cli::ExitUsage) {
        // A rejected flag value: the daemon answers with the usage
        // message the one-shot tool printed above its help text.
        const JsonValue* err = doc->get("error");
        ASSERT_TRUE(err && err->isObject()) << what << ": " << resp;
        EXPECT_EQ(err->get("kind")->text, "usage") << what;
        EXPECT_EQ(expected.err.rfind(err->get("message")->text + "\n", 0),
                  0u)
            << what << ": " << resp;
        return;
    }
    const JsonValue* exit_code = doc->get("exit");
    ASSERT_TRUE(exit_code && exit_code->isNumber()) << what << resp;
    EXPECT_EQ(exit_code->number, static_cast<double>(expected.rc))
        << what;
    EXPECT_EQ(doc->get("stdout")->text, expected.out) << what;
    EXPECT_EQ(doc->get("stderr")->text, expected.err) << what;
}

TEST(FrontEndProperty, EdgeValuesNeverPanicAndAllFrontEndsAgree)
{
    const std::string sweep_path =
        ::testing::TempDir() + "cimloop_frontend_property.yaml";
    for (int i = 0; i < kCases; ++i) {
        const std::vector<Draw> draws = drawCase(i);
        std::string what = "case " + std::to_string(i) + ":";
        for (const Draw& d : draws)
            what += std::string(" ") + d.field->name + "=" + d.text;
        engine::clearPerActionCache();

        // CLI flags, and the same fields as a serve evaluate request
        // when every value is a JSON number.
        std::vector<std::string> args = {"--macro", "base", "--network",
                                         "mvm", "--mappings", "4"};
        std::string request = "{\"id\":1,\"kind\":\"evaluate\","
                              "\"macro\":\"base\",\"network\":\"mvm\","
                              "\"mappings\":4";
        bool json_numbers = true;
        for (const Draw& d : draws) {
            if (!d.field->flag)
                continue;
            args.insert(args.end(), {d.field->flag, d.text});
            request += std::string(",\"") + d.field->name + "\":" + d.text;
            json_numbers = json_numbers && std::isfinite(d.value);
        }
        const Outcome flags = oneShot(args);
        expectWellBehaved(flags, what + " [flags]");
        if (json_numbers)
            expectDaemonMatches(request + "}", flags, what + " [serve]");

        // Every drawn field as a one-value sweep axis.
        {
            std::ofstream f(sweep_path);
            f << "sweep:\n  network: mvm\n  mappings: 4\n  axes:\n";
            for (const Draw& d : draws) {
                f << "    - field: " << d.field->name
                  << "\n      values: [" << d.text << "]\n";
            }
        }
        const Outcome sweep = oneShot({"--sweep", sweep_path});
        expectWellBehaved(sweep, what + " [sweep]");
        expectDaemonMatches("{\"id\":1,\"kind\":\"sweep\",\"sweep\":\"" +
                                sweep_path + "\"}",
                            sweep, what + " [serve sweep]");
    }
    std::remove(sweep_path.c_str());
    engine::clearPerActionCache();
}

} // namespace
} // namespace cimloop::serve
