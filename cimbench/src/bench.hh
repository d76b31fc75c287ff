/**
 * @file
 * Shared pieces of the end-to-end benchmark: the workload interface the
 * benchmark loop runs, and the tracer that times calls into the library's
 * public functions in traced runs.
 */
#ifndef CIMBENCH_BENCH_HH
#define CIMBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cimloop/workload/layer.hh"

namespace cimbench {

using Clock = std::chrono::steady_clock;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** Median of @p v (reorders it); 0 when empty. */
double median(std::vector<double> v);

/**
 * Per-call timings and ratios of a traced run, keyed by per-layer metric
 * name. Timings are kept whole and reported as medians.
 */
class Tracer
{
  public:
    /** Records one call's duration under @p name. */
    void addNs(const std::string& name, double ns)
    {
        samples_[name].push_back(ns);
    }

    /** Adds @p num / @p den to the running ratio @p name. */
    void addRatio(const std::string& name, double num, double den)
    {
        auto& r = ratios_[name];
        r.first += num;
        r.second += den;
    }

    /** Whether a call or ratio @p name was ever recorded. */
    bool has(const std::string& name) const
    {
        return samples_.count(name) || ratios_.count(name);
    }

    /** Median duration of @p name in ns (0 when never recorded). */
    double medianNs(const std::string& name) const;

    /** Accumulated ratio @p name (0 when never recorded). */
    double ratio(const std::string& name) const;

  private:
    std::map<std::string, std::vector<double>> samples_;
    std::map<std::string, std::pair<double, double>> ratios_;
};

/** Runs @p fn, recording its duration under @p name when @p tr is set. */
template <class F>
decltype(auto)
timed(Tracer* tr, const char* name, F&& fn)
{
    if (!tr)
        return fn();
    Clock::time_point t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        tr->addNs(name, nsBetween(t0, Clock::now()));
    } else {
        decltype(auto) r = fn();
        tr->addNs(name, nsBetween(t0, Clock::now()));
        return r;
    }
}

/**
 * One benchmark workload: a set-up and a fixed round of operations. The
 * benchmark times set-up() and every run(), and calls check() outside the
 * timed intervals. A round holds the same operations on every call, so
 * every run attempts whole rounds of identical work.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Parses the specs and fills what the operations expect warm. Each
     *  call starts over from nothing. */
    virtual void setup(Tracer* tr) = 0;

    /** Operations per round. */
    virtual std::size_t roundSize() const = 0;

    /** Untimed preparation before operation @p i (e.g. a cold cache). */
    virtual void prepare(std::size_t) {}

    /** Runs operation @p i; with @p tr, also times the library calls it
     *  makes (the traced run). Throws on a failed operation. */
    virtual void run(std::size_t i, Tracer* tr) = 0;

    /** Checks the last result of operation @p i against computations
     *  made apart from the program. Returns "" or what failed. */
    virtual std::string check(std::size_t i) = 0;

    /** Work units operation @p i completed (mappings, points, vectors). */
    virtual double work(std::size_t i) const = 0;

    /** Output quality over the checked operations (lower is better). */
    virtual double quality() const = 0;
};

/** Creates workload @p name ("search", "cosearch", "sweep", "refsim")
 *  seeded with @p seed; nullptr when unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

std::unique_ptr<Workload> makeSearch(std::uint64_t seed, bool cosearch);
std::unique_ptr<Workload> makeSweep(std::uint64_t seed);
std::unique_ptr<Workload> makeRefsim(std::uint64_t seed);

/** Relative difference |a - b| / |b| (|a - b| when b == 0). */
double relDiff(double a, double b);

/** @p net as a workload YAML document (networkFromYaml's format). */
std::string networkYaml(const cimloop::workload::Network& net);

} // namespace cimbench

#endif // CIMBENCH_BENCH_HH
