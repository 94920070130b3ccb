/**
 * @file
 * Shared pieces of the repository benchmark driver: options, the
 * result every workload fills in, and the timing and order-statistic
 * helpers the workloads use.
 *
 * Each workload is one function taking the parsed options and
 * returning a Result. End-to-end metrics come from untraced runs
 * (--trace 0); with --trace 1 the workload installs an
 * obs::TelemetrySession and reports per-layer metrics instead.
 */

#ifndef CRONO_PERFBENCH_BENCH_H_
#define CRONO_PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace crono::perfbench {

/** Parsed command line. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test sizes: every workload shrunk to run in about a second. */
    bool tiny = false;
    /** Self-test hook: falsify one checked answer before checking it. */
    bool corrupt = false;
    /** Source revision, passed in by run.py (git commit or digest). */
    std::string commit = "unknown";
};

/** One named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload reports: its metrics, checks and run descriptor. */
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Run descriptor entries (values already JSON-encoded). */
    std::vector<std::pair<std::string, std::string>> descriptor;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void describe(const std::string& key, const std::string& text);
    void describe(const std::string& key, double number);
    /** Count one checked operation; a failed check counts as failed. */
    void
    check(bool ok)
    {
        ++attempted;
        if (!ok) {
            ++failed;
        }
    }
};

Result runKronAnalytics(const Options& opt);
Result runRoadAnalytics(const Options& opt);
Result runServeChurn(const Options& opt);
Result runSimSweep(const Options& opt);

/** Print the descriptor line and then the one-line JSON result. */
void printResult(const Options& opt, const Result& r);

/** Executor threads for the analytics workloads: nproc - 2, in [1, 2]. */
int analyticsThreads();

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Wall-clock seconds of one @p fn() call. */
template <class Fn>
double
timed(Fn&& fn)
{
    const Clock::time_point start = Clock::now();
    fn();
    return secondsSince(start);
}

/** Absolute PageRank tolerance, the one tests/differential_test uses. */
inline constexpr double kRankTolerance = 1e-9;

/** Element-wise equality of two answer vectors. */
template <class A, class B>
bool
sameValues(const A& got, const B& want)
{
    return got.size() == want.size() &&
           std::equal(got.begin(), got.end(), want.begin());
}

/**
 * Same vertex partition: the map between @p got's and @p want's
 * component labels is a bijection.
 */
template <class A, class B>
bool
samePartition(const A& got, const B& want)
{
    const std::size_t n = got.size();
    if (want.size() != n) {
        return false;
    }
    constexpr std::uint64_t kUnset = ~std::uint64_t{0};
    std::vector<std::uint64_t> fwd(n, kUnset), back(n, kUnset);
    for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t a = got[v], b = want[v];
        if (a >= n || b >= n) {
            return false;
        }
        if (fwd[a] == kUnset && back[b] == kUnset) {
            fwd[a] = b;
            back[b] = a;
        } else if (fwd[a] != b || back[b] != a) {
            return false;
        }
    }
    return true;
}

/** Every rank within kRankTolerance of the reference. */
template <class A, class B>
bool
ranksClose(const A& got, const B& want)
{
    if (got.size() != want.size()) {
        return false;
    }
    for (std::size_t v = 0; v < got.size(); ++v) {
        if (!(std::fabs(got[v] - want[v]) <= kRankTolerance)) {
            return false;
        }
    }
    return true;
}

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * The highest percentile of @p v that still has at least ten samples
 * beyond it: the 11th-largest value. @p percentile_out receives its
 * rank as a percentile, for the run descriptor. Needs 11 samples;
 * with fewer it returns the maximum and a percentile of 100.
 */
double tailWithTenBeyond(std::vector<double> v, double* percentile_out);

/**
 * Mean of the samples of @p v ranked from fraction @p lo up to (not
 * including) fraction @p hi, in ascending order (0 when that range is
 * empty). Unlike one percentile, it does not jump when a share of
 * samples moves across a gap between latency modes.
 */
double tailMean(std::vector<double> v, double lo, double hi);

} // namespace crono::perfbench

#endif // CRONO_PERFBENCH_BENCH_H_
