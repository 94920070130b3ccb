/**
 * @file
 * Tests for the crono_analyze static-analysis framework (DESIGN.md
 * §16): the lexer (raw strings, digit separators, macro
 * continuations), the structural parser (scope tree, lambda
 * boundaries, capture lists), every pass in the registry — positive,
 * negative, and suppressed for each — the `crono-lint: allow`
 * contract with its hygiene rules, the suppression-file checks, the
 * on-disk fixtures under tests/lint_fixtures/, and the DESIGN.md rule
 * table (generated from ruleCatalog(), so drift fails here).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/static/analyzer.h"
#include "analysis/static/lexer.h"
#include "analysis/static/parser.h"
#include "analysis/static/passes.h"

namespace crono::staticlint {
namespace {

std::size_t
countRule(const std::vector<Finding>& fs, std::string_view rule)
{
    return static_cast<std::size_t>(
        std::count_if(fs.begin(), fs.end(), [&](const Finding& f) {
            return f.rule == rule;
        }));
}

std::string
dump(const std::vector<Finding>& fs)
{
    std::ostringstream os;
    for (const Finding& f : fs) {
        os << f.file << ":" << f.line << " [" << f.rule << "] "
           << f.message << "\n";
    }
    return os.str();
}

/** Analyze an unlayered pseudo-file: every rule but include-layering. */
std::vector<Finding>
lint(std::string_view text)
{
    return analyzeText("t.cpp", text);
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
fixturePath(const std::string& name)
{
    return std::string(CRONO_LINT_FIXTURE_DIR) + "/" + name;
}

// ------------------------------------------------------------ lexer

TEST(Lexer, RawStringsLexAsSingleLiteral)
{
    const auto toks = lex(
        "auto a = R\"(std::mutex inside; \"quoted\")\";\n"
        "auto b = LR\"x(paren )\" trap)x\";\n");
    std::size_t strings = 0;
    for (const Token& t : toks) {
        if (t.kind == Tok::kString) {
            ++strings;
        }
        // Nothing inside the raw literals may surface as code.
        EXPECT_FALSE(t.kind == Tok::kIdent && t.text == "mutex");
        EXPECT_FALSE(t.kind == Tok::kIdent && t.text == "trap");
    }
    EXPECT_EQ(strings, 2u);
}

TEST(Lexer, DigitSeparatorsAreNumbersNotCharLiterals)
{
    const auto toks =
        lex("std::uint64_t n = 1'000'000; int h = 0xFF'00; "
            "std::mutex m;");
    bool sep_number = false;
    for (const Token& t : toks) {
        EXPECT_NE(t.kind, Tok::kChar) << t.text;
        if (t.kind == Tok::kNumber && t.text == "1'000'000") {
            sep_number = true;
        }
    }
    EXPECT_TRUE(sep_number);
    // A naive stripper would treat 1'000 as an opening char literal
    // and swallow the rest of the line; the mutex must still be seen.
    const auto fs = lint("std::uint64_t n = 1'000'000; std::mutex m;");
    EXPECT_EQ(countRule(fs, "raw-sync"), 1u) << dump(fs);
}

TEST(Lexer, LineContinuationsPreservePhysicalLines)
{
    const auto toks = lex("#define ACQ(m) \\\n"
                          "    pthread_mutex_lock(&(m))\n"
                          "int after = 0;\n");
    int lock_line = 0;
    int after_line = 0;
    for (const Token& t : toks) {
        if (t.kind == Tok::kIdent && t.text == "pthread_mutex_lock") {
            lock_line = t.line;
        }
        if (t.kind == Tok::kIdent && t.text == "after") {
            after_line = t.line;
        }
    }
    EXPECT_EQ(lock_line, 2);  // physical line survives the splice
    EXPECT_EQ(after_line, 3); // and the next line is not shifted
    // The continuation-carried token is visible to the rules.
    const auto fs = lint("#define ACQ(m) \\\n"
                         "    pthread_mutex_lock(&(m))\n");
    EXPECT_EQ(countRule(fs, "raw-sync"), 1u) << dump(fs);
}

TEST(Lexer, IncludeYieldsHeaderNameTokens)
{
    const auto toks =
        lex("#include <atomic>\n#include \"graph/graph.h\"\n");
    std::vector<std::string> headers;
    for (const Token& t : toks) {
        if (t.kind == Tok::kHeaderName) {
            headers.push_back(t.text);
        }
    }
    ASSERT_EQ(headers.size(), 2u);
    EXPECT_EQ(headers[0], "<atomic>");
    EXPECT_EQ(headers[1], "\"graph/graph.h\"");
}

TEST(Lexer, StripPreservesLayoutAndBlanksContents)
{
    const std::string src = "int a = 0; // std::mutex in comment\n"
                            "const char* s = \"std::atomic\";\n"
                            "auto r = R\"(volatile)\";\n"
                            "int b = 1'000; std::mutex m;\n";
    const std::string out = stripCommentsAndStrings(src);
    ASSERT_EQ(out.size(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (src[i] == '\n') {
            EXPECT_EQ(out[i], '\n') << i;
        }
    }
    EXPECT_EQ(out.find("mutex in comment"), std::string::npos);
    EXPECT_EQ(out.find("std::atomic"), std::string::npos);
    EXPECT_EQ(out.find("volatile"), std::string::npos);
    // Real code survives, including after a digit separator.
    EXPECT_NE(out.find("std::mutex m;"), std::string::npos);
    EXPECT_NE(out.find("int a = 0;"), std::string::npos);
}

// ----------------------------------------------------------- parser

TEST(Parser, FunctionLambdaAndCaptureStructure)
{
    const Ast ast = parse(lex(
        "void f(int a) {\n"
        "    int x = 0;\n"
        "    auto g = [&, v](int p) { return p + v + x; };\n"
        "    auto h = [&x](int q) { return q + x; };\n"
        "}\n"));
    ASSERT_EQ(ast.lambdas.size(), 2u);
    const Lambda& g = ast.lambdas[0];
    EXPECT_TRUE(g.default_ref);
    ASSERT_EQ(g.val_captures.size(), 1u);
    EXPECT_EQ(g.val_captures[0], "v");
    ASSERT_EQ(g.params.size(), 1u);
    EXPECT_EQ(g.params[0], "p");
    const Lambda& h = ast.lambdas[1];
    EXPECT_FALSE(h.default_ref);
    ASSERT_EQ(h.ref_captures.size(), 1u);
    EXPECT_EQ(h.ref_captures[0], "x");
    std::size_t functions = 0;
    std::size_t lambda_scopes = 0;
    for (const Scope& s : ast.scopes) {
        functions += s.kind == ScopeKind::kFunction ? 1 : 0;
        lambda_scopes += s.kind == ScopeKind::kLambda ? 1 : 0;
    }
    EXPECT_EQ(functions, 1u);
    EXPECT_EQ(lambda_scopes, 2u);
}

TEST(Parser, TrailingSpecifiersStillClassifyAsFunction)
{
    const Ast ast = parse(
        lex("struct S { int g() const noexcept { return 1; } };"));
    const bool has_function = std::any_of(
        ast.scopes.begin(), ast.scopes.end(), [](const Scope& s) {
            return s.kind == ScopeKind::kFunction;
        });
    EXPECT_TRUE(has_function);
}

TEST(Parser, SubscriptsAreNotLambdas)
{
    const Ast ast = parse(
        lex("void f(int* a, int i) { a[0] = 1; a[i + 1] = 2; }"));
    EXPECT_TRUE(ast.lambdas.empty());
}

TEST(Parser, UnderConditionalWalk)
{
    const Ast ast = parse(lex("void f(bool b) {\n"
                              "    if (b) { int inner = 0; }\n"
                              "    int outer = 0;\n"
                              "    for (;;) { int loop = 0; }\n"
                              "}\n"));
    const auto scope_of = [&](std::string_view name) -> int {
        for (CodeIdx i = 0; i < ast.size(); ++i) {
            if (ast.tok(i).kind == Tok::kIdent &&
                ast.tok(i).text == name) {
                return ast.scope_at[i];
            }
        }
        return -1;
    };
    EXPECT_TRUE(ast.underConditional(scope_of("inner")));
    EXPECT_FALSE(ast.underConditional(scope_of("outer")));
    EXPECT_FALSE(ast.underConditional(scope_of("loop")));
}

// ----------------------------------------------------- rule catalog

TEST(Rules, CatalogIsCompleteAndKnown)
{
    const auto& cat = ruleCatalog();
    EXPECT_EQ(cat.size(), 11u);
    for (const RuleInfo& r : cat) {
        EXPECT_TRUE(ruleKnown(r.id)) << r.id;
        EXPECT_NE(ruleTableMarkdown().find(std::string(r.id)),
                  std::string::npos)
            << r.id;
    }
    EXPECT_FALSE(ruleKnown("no-such-rule"));
}

TEST(Rules, LayerPolicyGatesCtxDiscipline)
{
    // Ctx-discipline rules: kernels, graph, and the bnb framework.
    EXPECT_TRUE(ruleApplies("raw-sync", "src/core/bfs.h"));
    EXPECT_TRUE(ruleApplies("raw-sync", "src/graph/builder.cpp"));
    EXPECT_TRUE(ruleApplies("raw-sync", "src/runtime/bnb.h"));
    // The Ctx implementation itself is exempt by documented policy.
    EXPECT_FALSE(ruleApplies("raw-sync", "src/runtime/executor.h"));
    EXPECT_FALSE(ruleApplies("raw-sync", "src/sim/machine.cpp"));
    EXPECT_FALSE(ruleApplies("raw-sync", "src/obs/telemetry.h"));
    // Flow passes and hygiene run everywhere.
    EXPECT_TRUE(
        ruleApplies("barrier-divergence", "src/sim/machine.cpp"));
    EXPECT_TRUE(ruleApplies("capture-escape", "tools/x.cpp"));
    // Unlayered pseudo-files get everything except layering.
    EXPECT_TRUE(ruleApplies("raw-sync", "t.cpp"));
    EXPECT_FALSE(ruleApplies("include-layering", "t.cpp"));
}

TEST(Rules, LayerDagOrder)
{
    EXPECT_EQ(layerOf("src/common/aligned.h"), 0);
    EXPECT_LT(layerOf("src/obs/telemetry.h"),
              layerOf("src/sim/machine.h"));
    EXPECT_LT(layerOf("src/sim/machine.h"),
              layerOf("src/runtime/executor.h"));
    EXPECT_LT(layerOf("src/runtime/executor.h"),
              layerOf("src/graph/graph.h"));
    EXPECT_LT(layerOf("src/graph/graph.h"),
              layerOf("src/analysis/report.h"));
    EXPECT_LT(layerOf("src/analysis/report.h"),
              layerOf("src/core/bfs.h"));
    EXPECT_LT(layerOf("src/core/bfs.h"),
              layerOf("tools/crono_bench_main.cpp"));
    EXPECT_EQ(layerOf("tools/x.cpp"), layerOf("bench/x.cpp"));
    EXPECT_EQ(layerOf("elsewhere/x.cpp"), -1);
    EXPECT_EQ(layerOfInclude("graph/graph.h"),
              layerOf("src/graph/graph.h"));
    EXPECT_EQ(layerOfInclude("vector"), -1);
}

// -------------------------------------------- ctx-discipline passes

TEST(CtxDiscipline, FlagsEachTokenRule)
{
    const auto fs =
        lint("#include <mutex>\n"
             "std::mutex m;\n"
             "volatile int v = 0;\n"
             "void f() { std::for_each(std::execution::par, "
             "a, b, op); }\n"
             "std::vector<double> slots(nthreads);\n");
    EXPECT_EQ(countRule(fs, "raw-include"), 1u) << dump(fs);
    EXPECT_EQ(countRule(fs, "raw-sync"), 1u) << dump(fs);
    EXPECT_EQ(countRule(fs, "volatile"), 1u) << dump(fs);
    EXPECT_EQ(countRule(fs, "parallel-stl"), 1u) << dump(fs);
    EXPECT_EQ(countRule(fs, "padded-slot"), 1u) << dump(fs);
}

TEST(CtxDiscipline, PthreadAndBuiltinAtomicsFlagged)
{
    const auto fs = lint("void f() { pthread_mutex_lock(&m); "
                         "__atomic_fetch_add(&x, 1, 0); "
                         "__sync_synchronize(); }");
    EXPECT_EQ(countRule(fs, "raw-sync"), 3u) << dump(fs);
}

TEST(CtxDiscipline, PaddedSlotsAndFunctionsNotFlagged)
{
    EXPECT_TRUE(
        lint("std::vector<Padded<double>> slots(nthreads);").empty());
    // A function *returning* a vector, with a thread-count parameter,
    // is not a per-thread slot variable — the token shape after the
    // template-id is the same, so the pass must look for the body.
    EXPECT_TRUE(lint("inline std::vector<double>\n"
                     "makeSlots(int nthreads)\n"
                     "{\n"
                     "    return {};\n"
                     "}\n")
                    .empty());
    EXPECT_TRUE(
        lint("std::vector<double> makeSlots(int nthreads);").empty());
}

TEST(CtxDiscipline, StringsAndCommentsDoNotTrip)
{
    EXPECT_TRUE(lint("// std::mutex in a comment\n"
                     "const char* s = \"std::atomic<int>\";\n"
                     "auto r = R\"(volatile int x;)\";\n")
                    .empty());
}

// -------------------------------------------------- capture escape

TEST(CaptureEscape, SharedAliasWriteFlaggedValueLocalNot)
{
    const auto fs = lint(
        "template <class Ctx>\n"
        "void sum(Ctx& ctx, std::uint64_t n, std::uint64_t& total) {\n"
        "    std::uint64_t mine = 0;\n"
        "    rt::par::vertexMap(ctx, n, [&](std::uint64_t v) {\n"
        "        total += v;\n"
        "        mine += v;\n"
        "    });\n"
        "    ctx.fetchAdd(total, mine);\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "capture-escape"), 1u) << dump(fs);
    const auto it =
        std::find_if(fs.begin(), fs.end(), [](const Finding& f) {
            return f.rule == "capture-escape";
        });
    EXPECT_EQ(it->line, 5); // the `total += v;` line, not `mine`
    EXPECT_NE(it->message.find("total"), std::string::npos);
}

TEST(CaptureEscape, ExplicitRefCaptureFlaggedValueCaptureNot)
{
    const auto by_ref = lint(
        "template <class Ctx>\n"
        "void f(Ctx& ctx, std::uint64_t n, std::uint64_t& total) {\n"
        "    rt::par::vertexMap(ctx, n, [&total](std::uint64_t v) {\n"
        "        total += v;\n"
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(by_ref, "capture-escape"), 1u)
        << dump(by_ref);
    const auto by_val = lint(
        "template <class Ctx>\n"
        "void f(Ctx& ctx, std::uint64_t n, std::uint64_t total) {\n"
        "    rt::par::vertexMap(ctx, n, [total](std::uint64_t v) "
        "mutable {\n"
        "        total += v;\n"
        "    });\n"
        "}\n");
    EXPECT_EQ(countRule(by_val, "capture-escape"), 0u)
        << dump(by_val);
}

TEST(CaptureEscape, CtxAndTidIndexedSlotsExempt)
{
    EXPECT_TRUE(lint("template <class Ctx>\n"
                     "void f(Ctx& ctx, std::uint64_t n, Slots& slots) "
                     "{\n"
                     "    rt::par::vertexMap(ctx, n, "
                     "[&](std::uint64_t v) {\n"
                     "        ctx.fetchAdd(slots.total, v);\n"
                     "        slots[ctx.tid()].value += v;\n"
                     "    });\n"
                     "}\n")
                    .empty());
}

TEST(CaptureEscape, BnbPolicyEmitLambdaCovered)
{
    const auto fs = lint(
        "template <class Ctx>\n"
        "void dfs(Ctx& ctx, Policy& policy, Stats& st) {\n"
        "    unsigned long emitted = 0;\n"
        "    policy.expand(ctx, n, [&](const Node& child) {\n"
        "        ++emitted;\n"
        "        ++st.donations;\n"
        "    });\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "capture-escape"), 1u) << dump(fs);
    EXPECT_EQ(fs.front().line, 6); // st, not the value local emitted
}

// ---------------------------------------------- barrier divergence

TEST(BarrierDivergence, FlagsDivergentShapesNotUniformLoops)
{
    const auto fs = lint("template <class Ctx>\n"
                         "void k(Ctx& ctx, int rounds) {\n"
                         "    for (int r = 0; r < rounds; ++r) {\n"
                         "        ctx.barrier();\n" // uniform: fine
                         "    }\n"
                         "    if (ctx.tid() == 0) {\n"
                         "        ctx.barrier();\n" // divergent
                         "    }\n"
                         "    if (ctx.tid() == 1)\n"
                         "        ctx.barrier();\n" // braceless
                         "}\n");
    EXPECT_EQ(countRule(fs, "barrier-divergence"), 2u) << dump(fs);
}

TEST(BarrierDivergence, ConditionalReturnBeforeBarrier)
{
    const auto fs = lint("template <class Ctx>\n"
                         "void k(Ctx& ctx) {\n"
                         "    if (ctx.tid() == 0) {\n"
                         "        return;\n" // skips the rendezvous
                         "    }\n"
                         "    ctx.barrier();\n"
                         "}\n");
    ASSERT_EQ(countRule(fs, "barrier-divergence"), 1u) << dump(fs);
    EXPECT_EQ(fs.front().line, 4);
    // A return *after* the last barrier is a normal early exit.
    EXPECT_TRUE(lint("template <class Ctx>\n"
                     "void k(Ctx& ctx) {\n"
                     "    ctx.barrier();\n"
                     "    if (ctx.tid() == 0) {\n"
                     "        return;\n"
                     "    }\n"
                     "}\n")
                    .empty());
}

// ------------------------------------------------------ read poll

TEST(ReadPoll, FlagsConditionPollsNotScansBodiesOrDeclaredRacyLoads)
{
    const auto fs = lint(
        "template <class Ctx>\n"
        "void k(Ctx& ctx, unsigned& f, unsigned& n, unsigned* a) {\n"
        "    while (ctx.read(f) == 0) {}\n"           // poll
        "    for (; ctx.read<unsigned>(n) > 0;) {}\n" // poll
        "    do {} while (ctx.read(f));\n"            // poll
        "    while (ctx.readAtomic(f) == 0) {}\n"     // declared racy
        "    for (unsigned i = ctx.read(n); i > 0; --i) {\n" // init
        "        ctx.write(f, ctx.read(f) + 1);\n"    // body
        "    }\n"
        "    for (unsigned j = 0; ctx.read(a[j]) != 0; ++j) {}\n" // scan
        "    unsigned s = 0;\n"
        "    while (ctx.read(a[s]) != 0) { s += 2; }\n" // scan
        "    for (;;) {}\n"
        "}\n");
    ASSERT_EQ(countRule(fs, "read-poll"), 3u) << dump(fs);
    EXPECT_EQ(fs[0].line, 3);
    EXPECT_EQ(fs[1].line, 4);
    EXPECT_EQ(fs[2].line, 5);
    EXPECT_EQ(fs.size(), 3u) << dump(fs);
}

// ----------------------------------------------- include layering

TEST(IncludeLayering, UpwardIncludesFlaggedDownwardNot)
{
    const auto upward = analyzeSources(
        {{"src/obs/metrics_probe.h",
          "#include \"common/macros.h\"\n"
          "#include \"runtime/executor.h\"\n"}});
    EXPECT_EQ(countRule(upward.findings, "include-layering"), 1u)
        << dump(upward.findings);
    EXPECT_EQ(upward.findings.front().line, 2);
    const auto downward = analyzeSources(
        {{"src/core/kernel_probe.h",
          "#include \"graph/graph.h\"\n"
          "#include \"runtime/par.h\"\n"
          "#include \"obs/telemetry.h\"\n"}});
    EXPECT_EQ(countRule(downward.findings, "include-layering"), 0u)
        << dump(downward.findings);
    // tools/ and bench/ sit on top and may include anything.
    const auto tools = analyzeSources(
        {{"tools/bench_compare.cpp",
          "#include \"core/suite.h\"\n#include \"obs/json.h\"\n"}});
    EXPECT_EQ(countRule(tools.findings, "include-layering"), 0u);
    // System headers are not part of the DAG.
    const auto sys = analyzeSources(
        {{"src/common/aligned.h", "#include <vector>\n"}});
    EXPECT_EQ(countRule(sys.findings, "include-layering"), 0u);
}

// --------------------------------------------------- allow contract

TEST(Allows, JustifiedAllowSuppressesSameLineAndLineAbove)
{
    const auto above = analyzeSources(
        {{"t.cpp",
          "// crono-lint: allow(raw-sync): host-side setup thread\n"
          "std::thread t;\n"}});
    EXPECT_TRUE(above.findings.empty()) << dump(above.findings);
    EXPECT_EQ(above.suppressed, 1u);
    const auto same = analyzeSources(
        {{"t.cpp",
          "std::thread t; // crono-lint: allow(raw-sync): host side\n"}});
    EXPECT_TRUE(same.findings.empty()) << dump(same.findings);
    EXPECT_EQ(same.suppressed, 1u);
}

TEST(Allows, MissingJustificationIsBadAllow)
{
    const auto fs = lint("// crono-lint: allow(raw-sync)\n"
                         "std::thread t;\n");
    EXPECT_EQ(countRule(fs, "bad-allow"), 1u) << dump(fs);
    // The malformed allow suppresses nothing: the raw-sync stays.
    EXPECT_EQ(countRule(fs, "raw-sync"), 1u) << dump(fs);
}

TEST(Allows, UnknownRuleIdRejected)
{
    const auto fs =
        lint("// crono-lint: allow(made-up-rule): because\n"
             "int x = 0;\n");
    EXPECT_EQ(countRule(fs, "bad-allow"), 1u) << dump(fs);
}

TEST(Allows, HygieneRulesAreNeverSuppressible)
{
    const auto fs = lint(
        "// crono-lint: allow(stale-suppression): trying to hide\n"
        "int x = 0;\n");
    EXPECT_EQ(countRule(fs, "bad-allow"), 1u) << dump(fs);
}

TEST(Allows, DoesNotLeakToOtherRulesOrLines)
{
    const auto fs = lint(
        "// crono-lint: allow(raw-sync): for the mutex only\n"
        "std::mutex m; volatile int v = 0;\n"
        "std::mutex m2;\n");
    EXPECT_EQ(countRule(fs, "raw-sync"), 1u) << dump(fs); // m2 only
    EXPECT_EQ(countRule(fs, "volatile"), 1u) << dump(fs);
}

TEST(Allows, UnusedAllowBecomesStaleSuppression)
{
    const auto fs = lint(
        "// crono-lint: allow(raw-sync): mutex was removed since\n"
        "int x = 0;\n");
    ASSERT_EQ(countRule(fs, "stale-suppression"), 1u) << dump(fs);
    EXPECT_EQ(fs.front().line, 1);
}

TEST(Allows, BacktickedDocMentionIsNotADirective)
{
    EXPECT_TRUE(
        lint("// the `crono-lint: allow(rule): why` contract\n"
             "int x = 0;\n")
            .empty());
}

// ------------------------------------------- suppression-file rules

TEST(SuppressionFiles, EntryWithoutJustificationCommentIsBadAllow)
{
    Options opt;
    opt.suppression_files.push_back(
        {"detector.allow", "race:relaxSlot\n"});
    const auto res =
        analyzeSources({{"t.cpp", "void relaxSlot() {}\n"}}, opt);
    EXPECT_EQ(countRule(res.findings, "bad-allow"), 1u)
        << dump(res.findings);
}

TEST(SuppressionFiles, BlankLineDetachesTheComment)
{
    Options opt;
    opt.suppression_files.push_back(
        {"detector.allow",
         "# justified: benign per-slot race\n"
         "\n"
         "race:relaxSlot\n"});
    const auto res =
        analyzeSources({{"t.cpp", "void relaxSlot() {}\n"}}, opt);
    EXPECT_EQ(countRule(res.findings, "bad-allow"), 1u)
        << dump(res.findings);
}

TEST(SuppressionFiles, PatternMatchingNothingIsStale)
{
    Options opt;
    opt.suppression_files.push_back(
        {"tsan.supp",
         "# justified: historical suppression\n"
         "race:functionThatNoLongerExists\n"});
    const auto res = analyzeSources({{"t.cpp", "int x = 0;\n"}}, opt);
    EXPECT_EQ(countRule(res.findings, "stale-suppression"), 1u)
        << dump(res.findings);
}

TEST(SuppressionFiles, JustifiedMatchingEntryIsClean)
{
    Options opt;
    opt.suppression_files.push_back(
        {"tsan.supp",
         "# declared-racy probe: stale reads only defer work\n"
         "race:*relaxSlot*\n"});
    const auto res =
        analyzeSources({{"t.cpp", "void relaxSlot() {}\n"}}, opt);
    EXPECT_TRUE(res.findings.empty()) << dump(res.findings);
}

// ------------------------------------------------ on-disk fixtures

TEST(Fixtures, RawSyncBadFlagsEveryConstruct)
{
    const auto res =
        analyzeFiles({fixturePath("raw_sync_bad.cpp.fixture")});
    EXPECT_EQ(countRule(res.findings, "raw-include"), 2u)
        << dump(res.findings);
    EXPECT_EQ(countRule(res.findings, "raw-sync"), 4u)
        << dump(res.findings);
    EXPECT_EQ(countRule(res.findings, "volatile"), 1u)
        << dump(res.findings);
    EXPECT_EQ(countRule(res.findings, "padded-slot"), 1u)
        << dump(res.findings);
}

TEST(Fixtures, CleanFixtureIsClean)
{
    const auto res =
        analyzeFiles({fixturePath("clean_ok.cpp.fixture")});
    EXPECT_TRUE(res.findings.empty()) << dump(res.findings);
    EXPECT_EQ(res.suppressed, 1u); // the exercised allow(volatile)
}

TEST(Fixtures, CaptureEscapeDetectedAndAllowed)
{
    const auto bad = analyzeFiles(
        {fixturePath("capture_escape_bad.cpp.fixture")});
    ASSERT_EQ(bad.findings.size(), 1u) << dump(bad.findings);
    EXPECT_EQ(bad.findings.front().rule, "capture-escape");
    EXPECT_NE(bad.findings.front().message.find("total"),
              std::string::npos);
    const auto ok = analyzeFiles(
        {fixturePath("capture_escape_allowed.cpp.fixture")});
    EXPECT_TRUE(ok.findings.empty()) << dump(ok.findings);
    EXPECT_EQ(ok.suppressed, 1u);
}

TEST(Fixtures, BarrierDivergenceDetectedAndAllowed)
{
    const auto bad = analyzeFiles(
        {fixturePath("barrier_divergence_bad.cpp.fixture")});
    EXPECT_EQ(countRule(bad.findings, "barrier-divergence"), 3u)
        << dump(bad.findings);
    EXPECT_EQ(bad.findings.size(), 3u) << dump(bad.findings);
    const auto ok = analyzeFiles(
        {fixturePath("barrier_divergence_allowed.cpp.fixture")});
    EXPECT_TRUE(ok.findings.empty()) << dump(ok.findings);
    EXPECT_EQ(ok.suppressed, 1u);
}

TEST(Fixtures, ReadPollDetectedAndAllowed)
{
    const auto bad =
        analyzeFiles({fixturePath("read_poll_bad.cpp.fixture")});
    EXPECT_EQ(countRule(bad.findings, "read-poll"), 3u)
        << dump(bad.findings);
    EXPECT_EQ(bad.findings.size(), 3u) << dump(bad.findings);
    const auto ok =
        analyzeFiles({fixturePath("read_poll_allowed.cpp.fixture")});
    EXPECT_TRUE(ok.findings.empty()) << dump(ok.findings);
    EXPECT_EQ(ok.suppressed, 1u);
}

TEST(Fixtures, IncludeLayeringDetectedAndAllowed)
{
    // Layering depends on the file's repo-relative path, so feed the
    // fixture text under a pretend src/obs/ location.
    const auto bad = analyzeSources(
        {{"src/obs/layering_probe.h",
          slurp(fixturePath("include_layering_bad.h.fixture"))}});
    ASSERT_EQ(bad.findings.size(), 1u) << dump(bad.findings);
    EXPECT_EQ(bad.findings.front().rule, "include-layering");
    const auto ok = analyzeSources(
        {{"src/obs/layering_probe.h",
          slurp(fixturePath("include_layering_allowed.h.fixture"))}});
    EXPECT_TRUE(ok.findings.empty()) << dump(ok.findings);
    EXPECT_EQ(ok.suppressed, 1u);
}

TEST(Fixtures, StaleAllowDetected)
{
    const auto res =
        analyzeFiles({fixturePath("stale_allow_bad.cpp.fixture")});
    ASSERT_EQ(res.findings.size(), 1u) << dump(res.findings);
    EXPECT_EQ(res.findings.front().rule, "stale-suppression");
}

// ------------------------------------------------------ misc driver

TEST(Driver, UnreadableFileIsAFinding)
{
    const auto res =
        analyzeFiles({fixturePath("does_not_exist.cpp")});
    ASSERT_EQ(res.findings.size(), 1u);
    EXPECT_EQ(res.findings.front().rule, "io");
}

TEST(Driver, FindingsAreSortedByLinePerFile)
{
    const auto fs = lint("std::mutex a;\n"
                         "int ok = 0;\n"
                         "std::mutex b;\n"
                         "volatile int v = 0;\n");
    ASSERT_EQ(fs.size(), 3u) << dump(fs);
    EXPECT_LT(fs[0].line, fs[1].line);
    EXPECT_LT(fs[1].line, fs[2].line);
}

// ----------------------------------------------------- docs drift

TEST(Docs, DesignRuleTableMatchesCatalog)
{
    const std::string design = slurp(CRONO_DESIGN_MD);
    const std::string table = ruleTableMarkdown();
    std::istringstream lines(table);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty()) {
            continue;
        }
        EXPECT_NE(design.find(line), std::string::npos)
            << "DESIGN.md rule table is out of date; regenerate with "
               "`crono_analyze --rules-md`. Missing line:\n"
            << line;
    }
}

} // namespace
} // namespace crono::staticlint
