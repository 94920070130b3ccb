/**
 * @file
 * Golden simulated statistics: five kernels on one fixed small graph
 * under seven machine configurations, compared counter by counter
 * against constants recorded from the simulator.
 *
 * The simulator's host-side data structures (mesh contention windows,
 * cache ways, directory maps) may be reorganized for speed, but such a
 * change must leave every simulated count bit-identical. This test is
 * that guard: it covers every routing policy, both core models, the
 * remote-access and locality-aware coherence modes, and the
 * real-machine preset, whose 3-wide mesh has a phantom node. A
 * mismatch prints the measured row in the table's own syntax; a row
 * may only be re-recorded by a change that is meant to alter the
 * modeled machine.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

#include "core/bfs.h"
#include "core/connected_components.h"
#include "core/pagerank.h"
#include "core/sssp.h"
#include "core/triangle_count.h"
#include "graph/generators.h"
#include "sim/machine.h"

namespace crono::sim {
namespace {

constexpr int kThreads = 16;

/** Every integer counter of one SimRunStats, in a fixed order. */
using Counters = std::array<std::uint64_t, 23>;

Counters
countersOf(const SimRunStats& s)
{
    std::uint64_t ops = 0;
    for (const std::uint64_t o : s.thread_ops) {
        ops += o;
    }
    return {s.completion_cycles,
            ops,
            s.l1d.accesses,
            s.l1d.hits,
            s.l1d.misses[0],
            s.l1d.misses[1],
            s.l1d.misses[2],
            s.l1i_accesses,
            s.l2.accesses,
            s.l2.hits,
            s.l2.misses[0],
            s.l2.misses[1],
            s.l2.misses[2],
            s.network.messages,
            s.network.flits,
            s.network.flit_hops,
            s.network.contention_cycles,
            s.dram.accesses,
            s.dram.queue_cycles,
            s.directory.lookups,
            s.directory.invalidations,
            s.directory.broadcasts,
            s.directory.write_backs};
}

constexpr const char* kCounterNames[] = {
    "completion_cycles", "thread_ops",        "l1d.accesses",
    "l1d.hits",          "l1d.cold",          "l1d.capacity",
    "l1d.sharing",       "l1i_accesses",      "l2.accesses",
    "l2.hits",           "l2.cold",           "l2.capacity",
    "l2.sharing",        "net.messages",      "net.flits",
    "net.flit_hops",     "net.contention",    "dram.accesses",
    "dram.queue_cycles", "dir.lookups",       "dir.invalidations",
    "dir.broadcasts",    "dir.write_backs"};

struct NamedConfig {
    const char* name;
    std::function<Config()> make;
};

Config
withRouting(Routing r)
{
    Config c = Config::futuristic256();
    c.routing = r;
    return c;
}

const NamedConfig kConfigs[] = {
    {"xy", [] { return withRouting(Routing::xy); }},
    {"yx", [] { return withRouting(Routing::yx); }},
    {"o1turn", [] { return withRouting(Routing::o1turn); }},
    {"ooo", [] { return Config::futuristic256(CoreType::outOfOrder); }},
    {"remote",
     [] {
         Config c = Config::futuristic256();
         c.l1_allocation = false;
         return c;
     }},
    {"locality2",
     [] {
         Config c = Config::futuristic256();
         c.locality_threshold = 2;
         return c;
     }},
    {"real", [] { return Config::realMachine(); }},
};

constexpr const char* kKernels[] = {"bfs", "sssp", "pagerank", "cc",
                                    "tricnt"};

struct Golden {
    const char* config;
    const char* kernel;
    Counters counters;
};

// Recorded from the simulator; see the file comment before editing.
const Golden kGolden[] = {
    {"xy", "bfs",
     {36750u, 14611u, 10697u, 8807u, 1008u, 0u,
      882u, 14611u, 2104u, 1757u, 347u, 0u,
      0u, 33000u, 87616u, 851891u, 1451366u, 347u,
      0u, 2104u, 1245u, 51u, 827u}},
    {"xy", "sssp",
     {149806u, 53871u, 36935u, 28669u, 2607u, 0u,
      5659u, 53871u, 9768u, 8906u, 862u, 0u,
      0u, 255405u, 598891u, 6461465u, 14206525u, 862u,
      0u, 9768u, 7048u, 441u, 3474u}},
    {"xy", "pagerank",
     {179505u, 46223u, 43663u, 25567u, 5634u, 1u,
      12461u, 46223u, 24419u, 23818u, 601u, 0u,
      0u, 128302u, 496809u, 5099737u, 2857866u, 601u,
      0u, 24419u, 16526u, 66u, 15549u}},
    {"xy", "cc",
     {61697u, 39440u, 27698u, 23525u, 866u, 0u,
      3307u, 39440u, 4533u, 3980u, 553u, 0u,
      0u, 184624u, 404577u, 4867048u, 14630318u, 553u,
      0u, 4533u, 3337u, 342u, 516u}},
    {"xy", "tricnt",
     {75031u, 171838u, 82521u, 76324u, 3954u, 0u,
      2243u, 171838u, 7561u, 6979u, 582u, 0u,
      0u, 26900u, 124633u, 1482167u, 25103u, 582u,
      0u, 7561u, 3364u, 1u, 3112u}},
    {"yx", "bfs",
     {38395u, 14615u, 10701u, 8794u, 1011u, 0u,
      896u, 14615u, 2117u, 1770u, 347u, 0u,
      0u, 35596u, 92990u, 921050u, 1683962u, 347u,
      0u, 2117u, 1262u, 56u, 836u}},
    {"yx", "sssp",
     {147939u, 53829u, 36893u, 28654u, 2605u, 1u,
      5633u, 53829u, 9726u, 8864u, 862u, 0u,
      0u, 261711u, 610971u, 6314007u, 12905584u, 862u,
      0u, 9726u, 7021u, 454u, 3430u}},
    {"yx", "pagerank",
     {180560u, 46203u, 43643u, 25490u, 5747u, 0u,
      12406u, 46203u, 24463u, 23862u, 601u, 0u,
      0u, 127973u, 496704u, 5104475u, 3304447u, 601u,
      0u, 24463u, 16527u, 65u, 15536u}},
    {"yx", "cc",
     {58794u, 39364u, 27622u, 23552u, 866u, 0u,
      3204u, 39364u, 4417u, 3864u, 553u, 0u,
      0u, 177292u, 389234u, 4671285u, 16940484u, 553u,
      0u, 4417u, 3234u, 328u, 504u}},
    {"yx", "tricnt",
     {72136u, 171832u, 82515u, 76365u, 3971u, 0u,
      2179u, 171832u, 7530u, 6948u, 582u, 0u,
      0u, 27056u, 124112u, 1420982u, 42665u, 582u,
      0u, 7530u, 3282u, 2u, 3075u}},
    {"o1turn", "bfs",
     {37661u, 14615u, 10701u, 8796u, 1020u, 0u,
      885u, 14615u, 2114u, 1767u, 347u, 0u,
      0u, 35072u, 91893u, 903484u, 1592921u, 347u,
      0u, 2114u, 1260u, 55u, 827u}},
    {"o1turn", "sssp",
     {147030u, 54125u, 37097u, 28823u, 2609u, 0u,
      5665u, 54125u, 9786u, 8924u, 862u, 0u,
      0u, 259900u, 607804u, 6357390u, 12203115u, 862u,
      0u, 9786u, 7055u, 450u, 3460u}},
    {"o1turn", "pagerank",
     {181134u, 46219u, 43659u, 25512u, 5747u, 1u,
      12399u, 46219u, 24487u, 23886u, 601u, 0u,
      0u, 128025u, 496920u, 5101114u, 3589437u, 601u,
      0u, 24487u, 16525u, 65u, 15563u}},
    {"o1turn", "cc",
     {53981u, 39340u, 27598u, 23654u, 866u, 0u,
      3078u, 39340u, 4279u, 3726u, 553u, 0u,
      0u, 171918u, 377569u, 4551413u, 13735123u, 553u,
      0u, 4279u, 3108u, 318u, 492u}},
    {"o1turn", "tricnt",
     {74601u, 171843u, 82526u, 76370u, 3939u, 0u,
      2217u, 171843u, 7562u, 6980u, 582u, 0u,
      0u, 28806u, 128095u, 1524861u, 99565u, 582u,
      0u, 7562u, 3323u, 5u, 3120u}},
    {"ooo", "bfs",
     {10032u, 14602u, 10688u, 9001u, 1002u, 0u,
      685u, 14602u, 1909u, 1562u, 347u, 0u,
      0u, 21858u, 63498u, 620234u, 1368481u, 347u,
      0u, 1909u, 1042u, 30u, 761u}},
    {"ooo", "sssp",
     {82540u, 56410u, 38800u, 30533u, 2607u, 0u,
      5660u, 56410u, 9826u, 8964u, 862u, 0u,
      0u, 255786u, 600283u, 6231031u, 13553451u, 862u,
      0u, 9826u, 7078u, 441u, 3567u}},
    {"ooo", "pagerank",
     {99539u, 46281u, 43721u, 26819u, 5704u, 0u,
      11198u, 46281u, 23800u, 23199u, 601u, 0u,
      0u, 124366u, 475413u, 4787899u, 4275271u, 601u,
      0u, 23800u, 15290u, 64u, 14872u}},
    {"ooo", "cc",
     {38639u, 39380u, 27638u, 23438u, 866u, 0u,
      3334u, 39380u, 4549u, 3996u, 553u, 0u,
      0u, 182582u, 400640u, 4812829u, 17874130u, 553u,
      0u, 4549u, 3364u, 338u, 505u}},
    {"ooo", "tricnt",
     {44641u, 171840u, 82523u, 76837u, 3867u, 0u,
      1819u, 171840u, 7378u, 6796u, 582u, 0u,
      0u, 25690u, 117586u, 1410079u, 622u, 582u,
      0u, 7378u, 2906u, 0u, 2952u}},
    {"remote", "bfs",
     {69327u, 14609u, 10695u, 0u, 10695u, 0u,
      0u, 14609u, 10695u, 10348u, 347u, 0u,
      0u, 22036u, 46494u, 461782u, 0u, 347u,
      0u, 10695u, 0u, 0u, 0u}},
    {"remote", "sssp",
     {285745u, 53753u, 36821u, 0u, 36821u, 0u,
      0u, 53753u, 36821u, 35959u, 862u, 0u,
      0u, 75246u, 156505u, 1783092u, 0u, 862u,
      0u, 36821u, 0u, 0u, 0u}},
    {"remote", "pagerank",
     {166300u, 46152u, 43592u, 0u, 43592u, 0u,
      0u, 46152u, 43592u, 42991u, 601u, 0u,
      0u, 87850u, 179893u, 1898409u, 0u, 601u,
      0u, 43592u, 0u, 0u, 0u}},
    {"remote", "cc",
     {128792u, 39424u, 27682u, 0u, 27682u, 0u,
      0u, 39424u, 27682u, 27129u, 553u, 0u,
      0u, 55058u, 113973u, 1058269u, 0u, 553u,
      0u, 27682u, 0u, 0u, 0u}},
    {"remote", "tricnt",
     {342703u, 171768u, 82451u, 0u, 82451u, 0u,
      0u, 171768u, 82451u, 81869u, 582u, 0u,
      0u, 165580u, 335220u, 4111733u, 0u, 582u,
      0u, 82451u, 0u, 0u, 0u}},
    {"locality2", "bfs",
     {34360u, 14608u, 10694u, 7510u, 2946u, 0u,
      238u, 14608u, 3245u, 2898u, 347u, 0u,
      0u, 14408u, 38903u, 383917u, 355835u, 347u,
      0u, 3245u, 292u, 13u, 165u}},
    {"locality2", "sssp",
     {152186u, 54744u, 37462u, 23469u, 11833u, 0u,
      2160u, 54744u, 14614u, 13752u, 862u, 0u,
      0u, 120230u, 284553u, 3044760u, 4964904u, 862u,
      0u, 14614u, 2987u, 166u, 1508u}},
    {"locality2", "pagerank",
     {157288u, 46158u, 43598u, 15161u, 24622u, 0u,
      3815u, 46158u, 31709u, 31108u, 601u, 0u,
      0u, 84022u, 271448u, 2702908u, 0u, 601u,
      0u, 31709u, 6454u, 0u, 6297u}},
    {"locality2", "cc",
     {58455u, 39408u, 27666u, 20793u, 5397u, 0u,
      1476u, 39408u, 7212u, 6659u, 553u, 0u,
      0u, 119878u, 260973u, 3068436u, 7451620u, 553u,
      0u, 7212u, 1491u, 204u, 386u}},
    {"locality2", "tricnt",
     {81843u, 171803u, 82486u, 69672u, 12298u, 0u,
      516u, 171803u, 13455u, 12873u, 582u, 0u,
      0u, 32064u, 103664u, 1259781u, 0u, 582u,
      0u, 13455u, 1100u, 0u, 1089u}},
    {"real", "bfs",
     {8950u, 14595u, 10681u, 9499u, 717u, 0u,
      465u, 14595u, 1358u, 1011u, 347u, 0u,
      0u, 4580u, 22607u, 41225u, 17368u, 347u,
      0u, 1358u, 681u, 8u, 605u}},
    {"real", "sssp",
     {77949u, 55168u, 37906u, 31971u, 1934u, 7u,
      3994u, 55168u, 7291u, 6429u, 862u, 0u,
      0u, 26111u, 113066u, 213467u, 266u, 862u,
      0u, 7291u, 4843u, 297u, 3069u}},
    {"real", "pagerank",
     {167755u, 46219u, 43659u, 28270u, 3528u, 3u,
      11858u, 46219u, 21556u, 20955u, 601u, 0u,
      0u, 74981u, 334335u, 630949u, 1391u, 601u,
      0u, 21556u, 14042u, 59u, 13764u}},
    {"real", "cc",
     {21312u, 39357u, 27615u, 26387u, 714u, 0u,
      514u, 39357u, 1296u, 743u, 553u, 0u,
      0u, 4454u, 21375u, 39259u, 1u, 553u,
      0u, 1296u, 528u, 60u, 217u}},
    {"real", "tricnt",
     {68960u, 171811u, 82494u, 78194u, 2775u, 0u,
      1525u, 171811u, 5501u, 4919u, 582u, 0u,
      0u, 17318u, 80619u, 151719u, 64u, 582u,
      0u, 5501u, 2294u, 0u, 2334u}},
};

const Golden*
goldenFor(const std::string& config, const std::string& kernel)
{
    for (const Golden& g : kGolden) {
        if (config == g.config && kernel == g.kernel) {
            return &g;
        }
    }
    return nullptr;
}

std::string
rowOf(const char* config, const char* kernel, const Counters& c)
{
    std::ostringstream os;
    os << "    {\"" << config << "\", \"" << kernel << "\",\n     {";
    for (std::size_t i = 0; i < c.size(); ++i) {
        os << (i == 0 ? "" : i % 6 == 0 ? ",\n      " : ", ") << c[i]
           << "u";
    }
    os << "}},";
    return os.str();
}

/** Run one kernel on @p m; the kernel's answer is not checked here. */
void
runKernel(Machine& m, const char* kernel, const graph::Graph& g)
{
    const std::string k = kernel;
    if (k == "bfs") {
        core::bfs(m, kThreads, g, 0);
    } else if (k == "sssp") {
        core::sssp(m, kThreads, g, 0);
    } else if (k == "pagerank") {
        core::pageRank(m, kThreads, g, 2, 0.15, nullptr,
                       core::PageRankMode::kScatter);
    } else if (k == "cc") {
        core::connectedComponents(m, kThreads, g);
    } else {
        core::triangleCount(m, kThreads, g);
    }
}

class SimGolden : public ::testing::TestWithParam<NamedConfig> {};

TEST_P(SimGolden, EveryCounterMatchesRecording)
{
    const graph::Graph g = graph::generators::uniformRandom(256, 2048, 32, 11);
    const NamedConfig& nc = GetParam();
    Machine m(nc.make());
    for (const char* kernel : kKernels) {
        runKernel(m, kernel, g);
        const Counters got = countersOf(m.lastStats());
        const Golden* want = goldenFor(nc.name, kernel);
        if (want == nullptr) {
            ADD_FAILURE() << "no recording for " << nc.name << "/" << kernel
                          << "; measured:\n"
                          << rowOf(nc.name, kernel, got);
            continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i], want->counters[i])
                << nc.name << "/" << kernel << " " << kCounterNames[i];
        }
        if (got != want->counters) {
            ADD_FAILURE() << "measured:\n" << rowOf(nc.name, kernel, got);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, SimGolden, ::testing::ValuesIn(kConfigs),
                         [](const auto& info) {
                             return std::string(info.param.name);
                         });

} // namespace
} // namespace crono::sim
