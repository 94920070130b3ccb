/**
 * @file
 * crono_perfbench: one command per workload.
 *
 *   crono_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--size full|tiny] [--corrupt 1]
 *                   [--commit <rev>]
 *
 * Workloads: kron-analytics, road-analytics, serve-churn, sim-sweep.
 * The last line of standard output is one JSON object with the keys
 * correct / attempted / failed / metrics; the line before it is the
 * run descriptor. Exit status is 0 only when a result was printed.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using crono::perfbench::Options;

bool
parseArgs(int argc, char** argv, Options* opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", a.c_str());
            return false;
        }
        const char* v = argv[++i];
        if (a == "--workload") {
            opt->workload = v;
        } else if (a == "--seed") {
            opt->seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            opt->seconds = std::atof(v);
        } else if (a == "--trace") {
            opt->trace = std::strcmp(v, "0") != 0;
        } else if (a == "--size") {
            if (std::strcmp(v, "tiny") != 0 && std::strcmp(v, "full") != 0) {
                std::fprintf(stderr, "--size is full or tiny\n");
                return false;
            }
            opt->tiny = std::strcmp(v, "tiny") == 0;
        } else if (a == "--corrupt") {
            opt->corrupt = std::strcmp(v, "0") != 0;
        } else if (a == "--commit") {
            opt->commit = v;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", a.c_str());
            return false;
        }
    }
    if (opt->seconds <= 0.0) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    namespace pb = crono::perfbench;
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        return 2;
    }
    pb::Result (*run)(const Options&) = nullptr;
    if (opt.workload == "kron-analytics") {
        run = pb::runKronAnalytics;
    } else if (opt.workload == "road-analytics") {
        run = pb::runRoadAnalytics;
    } else if (opt.workload == "serve-churn") {
        run = pb::runServeChurn;
    } else if (opt.workload == "sim-sweep") {
        run = pb::runSimSweep;
    } else {
        std::fprintf(stderr, "unknown workload: %s\n",
                     opt.workload.c_str());
        return 2;
    }
    try {
        const pb::Result r = run(opt);
        pb::printResult(opt, r);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s failed: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    return 0;
}
