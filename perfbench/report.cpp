/**
 * @file
 * Result printing and order statistics for the benchmark driver.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.h"

namespace crono::perfbench {

namespace {

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** CPU brand string from cpuid (no file access needed). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[i * 4], &regs[i * 4 + 1],
                        &regs[i * 4 + 2], &regs[i * 4 + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

int
onlineCpus()
{
    return static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
}

} // namespace

void
Result::describe(const std::string& key, const std::string& text)
{
    descriptor.emplace_back(key, jsonString(text));
}

void
Result::describe(const std::string& key, double number)
{
    descriptor.emplace_back(key, jsonNumber(number));
}

int
analyticsThreads()
{
    const int nproc = onlineCpus();
    return std::clamp(nproc - 2, 1, 2);
}

void
printResult(const Options& opt, const Result& r)
{
    // Run descriptor: what a later comparison must hold equal.
    std::string desc = "{\"workload\": " + jsonString(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + jsonNumber(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "1" : "0") +
                       ", \"size\": " + jsonString(opt.tiny ? "tiny"
                                                            : "full") +
                       ", \"nproc\": " +
                       std::to_string(onlineCpus()) +
                       ", \"cpu_model\": " + jsonString(cpuModel()) +
                       ", \"build_type\": " +
                       jsonString(CRONO_PERFBENCH_BUILD_TYPE) +
                       ", \"commit\": " + jsonString(opt.commit);
    for (const auto& [key, value] : r.descriptor) {
        desc += ", " + jsonString(key) + ": " + value;
    }
    desc += "}";
    std::printf("descriptor %s\n", desc.c_str());
    for (const Metric& m : r.metrics) {
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }

    std::string out = "{\"correct\": ";
    out += r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        out += (i == 0 ? "" : ", ") + jsonString(m.name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailWithTenBeyond(std::vector<double> v, double* percentile_out)
{
    if (v.empty()) {
        *percentile_out = 0.0;
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 11) {
        *percentile_out = 100.0;
        return v.back();
    }
    *percentile_out =
        100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return v[n - 11];
}

double
tailMean(std::vector<double> v, double lo, double hi)
{
    std::sort(v.begin(), v.end());
    const auto rank = [&](double q) {
        return std::min(v.size(), static_cast<std::size_t>(
                                      q * static_cast<double>(v.size())));
    };
    const std::size_t begin = rank(lo), end = rank(hi);
    if (begin >= end) {
        return 0.0;
    }
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
        sum += v[i];
    }
    return sum / static_cast<double>(end - begin);
}

} // namespace crono::perfbench
