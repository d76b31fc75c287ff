/**
 * @file
 * cimbench: runs one workload in-process for a fixed time and prints its
 * metrics, ending with one JSON line.
 *
 *   cimbench --workload search --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 times whole operations and reports the end-to-end metrics.
 * --trace 1 is the separate traced run: it alternates untraced rounds
 * with rounds that also time each library call the operations make, and
 * reports the per-layer metrics plus what the tracing costs; a layer the
 * workload makes no call for is timed in one traced round of another
 * workload that does. Both modes check every operation's output (see
 * README.md).
 */
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench.hh"
#include "cimloop/engine/evaluate.hh"
#include "cimloop/obs/obs.hh"

using namespace cimbench;

namespace {

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Per-layer timings and ratios of the traced run. */
struct LayerMetric
{
    const char* name;
    const char* unit;
};

const LayerMetric kLayerMetrics[] = {
    {"yaml.parse_us", "us"},
    {"spec.build_us", "us"},
    {"engine.precompute_us", "us"},
    {"dist.encode_us", "us"},
    {"dist.slice_mixture_us", "us"},
    {"engine.cache_hit_us", "us"},
    {"mapping.sample_us", "us"},
    {"mapping.nest_us", "us"},
    {"engine.evaluate_us", "us"},
    {"mapping.valid_ratio", "ratio"},
    {"engine.search_layer_ms", "ms"},
    {"engine.samples_per_mapping", "ratio"},
    {"layout.resolve_us", "us"},
    {"models.bank_conflict_us", "us"},
    {"engine.evaluate_layout_us", "us"},
    {"dse.materialize_us", "us"},
    {"dse.pareto_insert_us", "us"},
    {"refsim.value_level_ms", "ms"},
    {"refsim.statistical_us", "us"},
};

/** Every workload, in the order a traced run looks for a lender of a
 *  layer metric its own workload does not reach. */
const char* const kWorkloads[] = {"search", "cosearch", "sweep", "refsim"};

/** Program counters reported per workload (obs::snapshot() names), from
 *  one untraced round. Counters a workload never touches read 0. Those
 *  of paths no workload reaches are left out: cimloop serve (serve.*),
 *  fault injection (faults.*), cancellation (dse.cancelled,
 *  engine.cancelled_layers) and sweep resume (dse.chunks_resumed,
 *  dse.resume.points_skipped). */
const char* const kCounters[] = {
    "dist.pmf.convolve.fallback",
    "dist.pmf.convolve.lattice",
    "dist.pmf.from_points.fallback",
    "dist.pmf.from_points.lattice",
    "dist.pmf.mixture.fallback",
    "dist.pmf.mixture.lattice",
    "dist.simd_lattice_ops",
    "dse.cache.hits",
    "dse.cache.misses",
    "dse.chunks_executed",
    "dse.chunks_total",
    "dse.points_evaluated",
    "dse.points_failed",
    "dse.points_pareto",
    "dse.points_skipped",
    "dse.points_total",
    "engine.bank_conflict_cycles",
    "engine.layers.evaluated",
    "engine.layers.failed",
    "engine.per_action_cache.evictions",
    "engine.per_action_cache.hits",
    "engine.per_action_cache.misses",
    "mapping.layouts_evaluated",
    "mapping.mapper.samples",
    "mapping.search.evaluated",
    "mapping.search.exhausted_shards",
    "mapping.search.invalid",
    "mapping.search.rejected",
    "refsim.statistical.estimates",
    "refsim.values.simulated",
    "refsim.vectors.simulated",
};

/**
 * CPU time of the process, in ns. Operations and set-ups are timed with
 * it: they run on one thread, so on an idle machine it equals their wall
 * time, and unlike wall time it leaves out the time a virtual machine's
 * host runs other guests on the CPU.
 */
double
cpuNs()
{
    timespec t{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
    return static_cast<double>(t.tv_sec) * 1e9 +
           static_cast<double>(t.tv_nsec);
}

/** Outcome of the operations a run attempted. */
struct Tally
{
    std::vector<double> opNs;
    std::vector<double> roundRates; //!< work units per busy second
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::string firstFailure;

    void fail(const std::string& what, bool check)
    {
        ++failed;
        if (check)
            correct = false;
        if (firstFailure.empty())
            firstFailure = what;
    }
};

/**
 * Runs one round of @p w: every operation timed, then every completed
 * operation checked (outside the timed intervals). @p after_ops runs
 * between the two, before any check touches the library.
 */
template <class AfterOps>
void
runRound(Workload& w, Tracer* tr, Tally& tally, AfterOps&& after_ops)
{
    std::vector<bool> done(w.roundSize(), false);
    double busy_ns = 0.0, work = 0.0;
    for (std::size_t i = 0; i < w.roundSize(); ++i) {
        ++tally.attempted;
        w.prepare(i);
        double t0 = cpuNs();
        try {
            w.run(i, tr);
        } catch (const std::exception& e) {
            tally.fail("operation " + std::to_string(i) + ": " + e.what(),
                       false);
            continue;
        }
        double ns = cpuNs() - t0;
        done[i] = true;
        tally.opNs.push_back(ns);
        busy_ns += ns;
        work += w.work(i);
    }
    if (busy_ns > 0.0)
        tally.roundRates.push_back(work / (busy_ns * 1e-9));
    after_ops();
    for (std::size_t i = 0; i < w.roundSize(); ++i) {
        if (!done[i])
            continue;
        std::string bad;
        try {
            bad = w.check(i);
        } catch (const std::exception& e) {
            bad = std::string("check threw: ") + e.what();
        }
        if (!bad.empty())
            tally.fail("operation " + std::to_string(i) + ": " + bad, true);
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Times set-up, repeated until it has taken 2 ms (at most 100 times),
 *  appending each repetition's CPU time to @p ns. */
void
timeSetup(Workload& w, std::vector<double>& ns)
{
    double spent = 0.0;
    for (int rep = 0; rep < 100 && spent < 2e6; ++rep) {
        double t0 = cpuNs();
        w.setup(nullptr);
        ns.push_back(cpuNs() - t0);
        spent += ns.back();
    }
}

std::vector<Metric>
timedRun(Workload& w, double seconds, Tally& tally)
{
    // Set-up runs again before every round, so its samples spread over
    // the run like the operations' do.
    std::vector<double> setup_ns;
    Clock::time_point start = Clock::now();
    do {
        timeSetup(w, setup_ns);
        runRound(w, nullptr, tally, [] {});
    } while (nsBetween(start, Clock::now()) < seconds * 1e9);
    return {
        {"setup_s", median(setup_ns) * 1e-9, "s"},
        {"work_per_s", median(tally.roundRates), "1/s"},
        {"op_p50_ms", median(tally.opNs) * 1e-6, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"quality_ratio", w.quality(), "ratio"},
    };
}

std::vector<Metric>
tracedRun(const std::string& name, std::uint64_t seed, Workload& w,
          double seconds, Tally& tally)
{
    Tracer tr;
    w.setup(&tr);

    // Even rounds run untraced, odd rounds traced, so both see the same
    // process state; the first untraced round also gives the counters.
    Tally untraced, traced;
    cimloop::obs::MetricsSnapshot counters;
    Clock::time_point start = Clock::now();
    for (int round = 0;
         round < 2 || nsBetween(start, Clock::now()) < seconds * 1e9;
         ++round) {
        bool trace = round % 2 == 1;
        if (round == 0)
            cimloop::obs::resetAll();
        runRound(w, trace ? &tr : nullptr, trace ? traced : untraced,
                 [&] {
                     if (round == 0)
                         counters = cimloop::obs::snapshot();
                 });
    }
    for (const Tally* t : {&untraced, &traced}) {
        tally.attempted += t->attempted;
        tally.failed += t->failed;
        tally.correct = tally.correct && t->correct;
        if (tally.firstFailure.empty())
            tally.firstFailure = t->firstFailure;
    }

    // Every traced run reports every layer metric. One this workload
    // makes no call for is lent by one traced round of the first other
    // workload that does, so it is the same per-call median whichever
    // workload prints it. The lent rounds are checked and counted too.
    std::vector<Tracer> lenders;
    for (const char* other : kWorkloads) {
        if (name == other)
            continue;
        std::unique_ptr<Workload> lw = makeWorkload(other, seed);
        Tracer& ltr = lenders.emplace_back();
        lw->setup(&ltr);
        runRound(*lw, &ltr, tally, [] {});
    }

    std::vector<Metric> out;
    for (const LayerMetric& m : kLayerMetrics) {
        const Tracer* src = &tr;
        for (const Tracer& l : lenders)
            if (!src->has(m.name))
                src = &l;
        double v = std::strcmp(m.unit, "ratio") == 0 ? src->ratio(m.name)
                   : std::strcmp(m.unit, "ms") == 0
                       ? src->medianNs(m.name) * 1e-6
                       : src->medianNs(m.name) * 1e-3;
        out.push_back({m.name, v, m.unit});
    }
    double p50_traced = median(traced.opNs) * 1e-6;
    double p50_untraced = median(untraced.opNs) * 1e-6;
    out.push_back({"trace.op_p50_ms", p50_traced, "ms"});
    out.push_back({"trace.untraced_op_p50_ms", p50_untraced, "ms"});
    out.push_back({"trace.overhead_pct",
                   100.0 * (p50_traced - p50_untraced) / p50_untraced, "%"});
    for (const char* c : kCounters) {
        double v = 0.0;
        for (const auto& [cn, cv] : counters.counters)
            if (cn == c)
                v = static_cast<double>(cv);
        out.push_back({std::string("obs.") + c, v, "count"});
    }
    return out;
}

int
usage(const char* msg)
{
    std::fprintf(stderr,
                 "cimbench: %s\nusage: cimbench --workload "
                 "search|cosearch|sweep|refsim --seed N --seconds S "
                 "--trace 0|1\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        try {
            if (flag == "--workload")
                workload = val;
            else if (flag == "--seed")
                seed = std::stoull(val);
            else if (flag == "--seconds")
                seconds = std::stod(val);
            else if (flag == "--trace")
                trace = std::stoi(val);
            else
                return usage(("unknown flag " + flag).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + flag).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("flags take one value each");
    if (std::strcmp(CIMBENCH_BUILD_TYPE, "Release") != 0)
        return usage("built as " CIMBENCH_BUILD_TYPE ", not Release");
#ifndef NDEBUG
    return usage("built with assertions on (NDEBUG unset)");
#endif
    if (!(seconds > 0.0) || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");
    // Into [1, 2^62], which every seed field of the program accepts
    // (refsim rejects 0, a sweep spec's YAML seed is a signed integer).
    constexpr std::uint64_t kSeedSpan = std::uint64_t{1} << 62;
    seed = seed % kSeedSpan ? seed % kSeedSpan : kSeedSpan;
    Tally tally;
    std::vector<Metric> metrics;
    try {
        std::unique_ptr<Workload> w = makeWorkload(workload, seed);
        if (!w)
            return usage(("unknown workload '" + workload + "'").c_str());
        metrics = trace ? tracedRun(workload, seed, *w, seconds, tally)
                        : timedRun(*w, seconds, tally);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cimbench: %s failed outside an operation: "
                             "%s\n", workload.c_str(), e.what());
        return 1;
    }

    std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace);
    std::printf("operations %llu  failed %llu\n",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    if (!tally.firstFailure.empty())
        std::printf("first failure: %s\n", tally.firstFailure.c_str());
    std::string json;
    for (const Metric& m : metrics) {
        if (!std::isfinite(m.value)) {
            std::printf("non-finite metric %s\n", m.name.c_str());
            return 1;
        }
        std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
        json += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                tally.correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                json.c_str());
    return 0;
}
