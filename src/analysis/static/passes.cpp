#include "analysis/static/passes.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>

namespace crono::staticlint {

namespace {

bool
isPunct(const Token& t, std::string_view s)
{
    return t.kind == Tok::kPunct && t.text == s;
}

bool
isIdent(const Token& t, std::string_view s)
{
    return t.kind == Tok::kIdent && t.text == s;
}

/** std:: members banned in Ctx-disciplined code (prefix-matched, so
 *  "atomic" also catches atomic_ref / atomic_flag / atomic<T>). */
constexpr std::string_view kRawSyncStd[] = {
    "atomic",        "mutex",          "shared_mutex",
    "timed_mutex",   "recursive_mutex", "condition_variable",
    "lock_guard",    "unique_lock",    "scoped_lock",
    "shared_lock",   "counting_semaphore", "binary_semaphore",
    "barrier",       "latch",          "thread",
    "jthread",       "call_once",      "once_flag",
    "future",        "promise",        "async",
};

constexpr std::string_view kRawIncludes[] = {
    "atomic",    "mutex",     "shared_mutex", "thread",
    "condition_variable",     "barrier",      "latch",
    "semaphore", "future",    "stop_token",   "execution",
};

/** rt::par primitives and rt::bnb policy entry points whose lambda
 *  arguments must honor the Ctx write contract. */
constexpr std::string_view kParPrimitives[] = {
    "vertexMap",       "vertexMapStriped", "vertexMapCapture",
    "edgeMapPush",     "edgeMapPull",      "edgeMapPullAll",
    "reduce",          "reducePerThread",
    // rt::bnb policy protocol: expand/forEachRoot receive an Emit
    // lambda from the searcher's per-thread DFS loop.
    "expand",          "forEachRoot",
};

constexpr std::string_view kThreadCountNames[] = {
    "nthreads", "nThreads", "num_threads", "numThreads"};

void
report(const FileUnit& u, int line, std::string_view rule,
       std::string message, std::vector<Finding>* out)
{
    for (const RuleInfo& r : ruleCatalog()) {
        if (r.id == rule) {
            out->push_back({u.path, line, std::string(rule),
                            std::move(message), u.lineText(line),
                            r.severity});
            return;
        }
    }
    out->push_back({u.path, line, std::string(rule),
                    std::move(message), u.lineText(line),
                    Severity::kError});
}

} // namespace

const std::vector<RuleInfo>&
ruleCatalog()
{
    static const std::vector<RuleInfo> kCatalog = {
        {"raw-sync", Severity::kError,
         "raw std:: synchronization / threads / pthread / builtin "
         "atomics bypass the ExecutionContext — use "
         "ctx.read/write/fetchAdd/compareExchange, SimMutex, or "
         "rt::par",
         "src/core, src/graph, rt::bnb (runtime/obs/sim implement the "
         "Ctx and are exempt by policy)"},
        {"raw-include", Severity::kError,
         "#include of a threading or atomics header in Ctx-"
         "disciplined code",
         "src/core, src/graph, rt::bnb"},
        {"parallel-stl", Severity::kError,
         "std::execution policies hide threads the simulator cannot "
         "model",
         "src/core, src/graph, rt::bnb"},
        {"volatile", Severity::kError,
         "volatile does not order or atomicize accesses — use Ctx "
         "primitives",
         "everywhere"},
        {"padded-slot", Severity::kError,
         "per-thread accumulator slots must be padded (Padded<T>) to "
         "avoid false sharing",
         "src/core, src/graph, rt::bnb"},
        {"capture-escape", Severity::kError,
         "a lambda passed to an rt::par primitive or rt::bnb policy "
         "writes a by-reference capture that aliases shared storage "
         "(a reference/pointer declaration) without going through "
         "ctx.*, a tid-indexed Padded slot, or tryClaim; value locals "
         "of the enclosing SPMD frame are thread-private and exempt",
         "everywhere"},
        {"barrier-divergence", Severity::kError,
         "a barrier reached under divergent control flow (if/else/"
         "switch, or a conditional return that skips a later barrier) "
         "deadlocks the region",
         "everywhere"},
        {"read-poll", Severity::kError,
         "ctx.read( in a while/for/do condition, of an address the loop "
         "does not advance: natively read() is a plain load the "
         "compiler may hoist out of the loop, so the poll can spin "
         "forever — poll with ctx.readAtomic",
         "everywhere"},
        {"include-layering", Severity::kError,
         "#include against the layer DAG common → obs → sim → runtime "
         "→ graph → analysis → core → serve → tools/bench",
         "every file inside a known layer"},
        {"stale-suppression", Severity::kError,
         "an allow comment, detector.allow or tsan.supp entry that "
         "suppresses nothing is itself an error (never suppressible)",
         "everywhere"},
        {"bad-allow", Severity::kError,
         "malformed or justification-free suppression (never "
         "suppressible)",
         "everywhere"},
    };
    return kCatalog;
}

bool
ruleKnown(std::string_view id)
{
    const auto& cat = ruleCatalog();
    return std::any_of(cat.begin(), cat.end(), [&](const RuleInfo& r) {
        return r.id == id;
    });
}

std::string
ruleTableMarkdown()
{
    std::ostringstream os;
    os << "| rule | severity | applies to | summary |\n";
    os << "|---|---|---|---|\n";
    for (const RuleInfo& r : ruleCatalog()) {
        os << "| `" << r.id << "` | "
           << (r.severity == Severity::kError ? "error" : "warning")
           << " | " << r.applies << " | " << r.summary << " |\n";
    }
    return os.str();
}

int
layerOf(std::string_view rel)
{
    struct Entry {
        std::string_view prefix;
        int layer;
    };
    static constexpr Entry kMap[] = {
        {"src/common/", 0}, {"src/obs/", 1},     {"src/sim/", 2},
        {"src/runtime/", 3}, {"src/graph/", 4},  {"src/analysis/", 5},
        {"src/core/", 6},   {"src/serve/", 7},   {"tools/", 8},
        {"bench/", 8},
    };
    for (const Entry& e : kMap) {
        if (rel.substr(0, e.prefix.size()) == e.prefix) {
            return e.layer;
        }
    }
    return -1;
}

int
layerOfInclude(std::string_view inc)
{
    struct Entry {
        std::string_view prefix;
        int layer;
    };
    static constexpr Entry kMap[] = {
        {"common/", 0},  {"obs/", 1},   {"sim/", 2},
        {"runtime/", 3}, {"graph/", 4}, {"analysis/", 5},
        {"core/", 6},    {"serve/", 7},
    };
    for (const Entry& e : kMap) {
        if (inc.substr(0, e.prefix.size()) == e.prefix) {
            return e.layer;
        }
    }
    return -1;
}

std::string_view
layerName(int layer)
{
    switch (layer) {
      case 0: return "src/common";
      case 1: return "src/obs";
      case 2: return "src/sim";
      case 3: return "src/runtime";
      case 4: return "src/graph";
      case 5: return "src/analysis";
      case 6: return "src/core";
      case 7: return "src/serve";
      case 8: return "tools|bench";
      default: return "<unknown>";
    }
}

namespace {

/** Files subject to the full Ctx-discipline contract. */
bool
ctxDisciplined(std::string_view rel)
{
    if (rel.substr(0, 9) == "src/core/" ||
        rel.substr(0, 10) == "src/graph/") {
        return true;
    }
    // The rt::bnb framework routes every access through a Ctx like
    // kernel code does, so it must lint clean too.
    if (rel.substr(0, 16) == "src/runtime/bnb.") {
        return true;
    }
    return false;
}

} // namespace

bool
ruleApplies(std::string_view rule, std::string_view rel)
{
    // A file outside every known layer (test snippets, fixtures fed
    // directly to the CLI) gets every rule — the old linter's
    // behavior for direct invocations.
    if (layerOf(rel) == -1) {
        return rule != "include-layering";
    }
    if (rule == "raw-sync" || rule == "raw-include" ||
        rule == "parallel-stl" || rule == "padded-slot") {
        return ctxDisciplined(rel);
    }
    return true; // volatile, flow passes, layering, hygiene
}

std::string
FileUnit::lineText(int line) const
{
    if (line <= 0) {
        return {};
    }
    std::size_t pos = 0;
    for (int l = 1; l < line; ++l) {
        pos = text.find('\n', pos);
        if (pos == std::string::npos) {
            return {};
        }
        ++pos;
    }
    std::size_t end = text.find('\n', pos);
    end = end == std::string::npos ? text.size() : end;
    std::string_view sv{text.data() + pos, end - pos};
    while (!sv.empty() && (sv.front() == ' ' || sv.front() == '\t')) {
        sv.remove_prefix(1);
    }
    while (!sv.empty() &&
           (sv.back() == ' ' || sv.back() == '\t' ||
            sv.back() == '\r')) {
        sv.remove_suffix(1);
    }
    return std::string(sv.substr(0, 160));
}

FileUnit
makeUnit(std::string path, std::string rel, std::string text)
{
    FileUnit u;
    u.path = std::move(path);
    u.rel = std::move(rel);
    u.ast = parse(lex(text));
    u.text = std::move(text);
    return u;
}

// ------------------------------------------------- ctx discipline

void
passCtxDiscipline(const FileUnit& u, std::vector<Finding>* out)
{
    const Ast& ast = u.ast;
    const bool sync_on = ruleApplies("raw-sync", u.rel);
    const bool inc_on = ruleApplies("raw-include", u.rel);
    const bool stl_on = ruleApplies("parallel-stl", u.rel);
    const bool vol_on = ruleApplies("volatile", u.rel);
    const bool pad_on = ruleApplies("padded-slot", u.rel);

    for (CodeIdx i = 0; i < ast.size(); ++i) {
        const Token& t = ast.tok(i);
        if (t.kind == Tok::kHeaderName && inc_on) {
            if (t.text.size() > 2 && t.text.front() == '<') {
                const std::string_view hdr{t.text.data() + 1,
                                           t.text.size() - 2};
                for (const std::string_view banned : kRawIncludes) {
                    if (hdr == banned) {
                        report(u, t.line, "raw-include",
                               "#include <" + std::string(hdr) +
                                   "> pulls raw threading into "
                                   "Ctx-disciplined code",
                               out);
                    }
                }
            }
            continue;
        }
        if (t.kind != Tok::kIdent) {
            continue;
        }
        if (vol_on && t.text == "volatile") {
            report(u, t.line, "volatile",
                   "volatile does not order or atomicize accesses — "
                   "use Ctx primitives",
                   out);
            continue;
        }
        if (sync_on && (t.text.rfind("pthread_", 0) == 0 ||
                        t.text.rfind("__atomic_", 0) == 0 ||
                        t.text.rfind("__sync_", 0) == 0)) {
            report(u, t.line, "raw-sync",
                   "raw synchronization '" + t.text +
                       "' bypasses the ExecutionContext — use "
                       "ctx.read/write/fetchAdd/compareExchange, "
                       "SimMutex, or rt::par",
                   out);
            continue;
        }
        if (t.text != "std" || i + 2 >= ast.size() ||
            !isPunct(ast.tok(i + 1), "::") ||
            ast.tok(i + 2).kind != Tok::kIdent) {
            continue;
        }
        const std::string& member = ast.tok(i + 2).text;
        if (stl_on && member == "execution") {
            report(u, t.line, "parallel-stl",
                   "std::execution policies spawn threads the "
                   "simulator cannot observe",
                   out);
            continue;
        }
        if (sync_on) {
            for (const std::string_view base : kRawSyncStd) {
                if (member.rfind(base, 0) == 0) {
                    report(u, t.line, "raw-sync",
                           "raw synchronization 'std::" + member +
                               "' bypasses the ExecutionContext — "
                               "use ctx.read/write/fetchAdd/"
                               "compareExchange, SimMutex, or rt::par",
                           out);
                    break;
                }
            }
        }
        if (pad_on && member == "vector" && i + 3 < ast.size() &&
            isPunct(ast.tok(i + 3), "<")) {
            // Balance the template argument, checking for Padded /
            // AlignedVector elements; then look for a thread-count
            // identifier before the statement ends.
            int angle = 1;
            CodeIdx j = i + 4;
            bool padded = false;
            for (; j < ast.size() && angle > 0; ++j) {
                const Token& a = ast.tok(j);
                if (a.kind == Tok::kPunct) {
                    if (a.text == "<") {
                        ++angle;
                    } else if (a.text == ">") {
                        --angle;
                    } else if (a.text == ">>") {
                        angle -= 2;
                    }
                } else if (a.kind == Tok::kIdent &&
                           (a.text.find("Padded") !=
                                std::string::npos ||
                            a.text.find("AlignedVector") !=
                                std::string::npos)) {
                    padded = true;
                }
            }
            if (padded || angle > 0) {
                continue;
            }
            // `std::vector<double> name(...)` is also the shape of a
            // function returning a vector. Skip function definitions
            // (close paren followed by `{`) and prototypes (two
            // adjacent identifiers — a declared parameter — inside
            // the parens); a variable's ctor args are expressions.
            {
                CodeIdx d = j;
                while (d < ast.size() &&
                       (isPunct(ast.tok(d), "&") ||
                        isPunct(ast.tok(d), "*"))) {
                    ++d;
                }
                if (d + 1 < ast.size() &&
                    ast.tok(d).kind == Tok::kIdent &&
                    isPunct(ast.tok(d + 1), "(")) {
                    const CodeIdx close = ast.match[d + 1];
                    if (close != kNoIdx) {
                        bool is_function =
                            close + 1 < ast.size() &&
                            isPunct(ast.tok(close + 1), "{");
                        for (CodeIdx k = d + 2;
                             !is_function && k + 1 < close; ++k) {
                            if (ast.tok(k).kind == Tok::kIdent &&
                                ast.tok(k + 1).kind == Tok::kIdent) {
                                is_function = true;
                            }
                        }
                        if (is_function) {
                            continue;
                        }
                    }
                }
            }
            for (CodeIdx k = j;
                 k < ast.size() && k < j + 64 &&
                 !isPunct(ast.tok(k), ";");
                 ++k) {
                const Token& a = ast.tok(k);
                if (a.kind != Tok::kIdent) {
                    continue;
                }
                const bool tc = std::any_of(
                    std::begin(kThreadCountNames),
                    std::end(kThreadCountNames),
                    [&](std::string_view n) { return a.text == n; });
                if (tc) {
                    report(u, t.line, "padded-slot",
                           "per-thread slot vector sized by a thread "
                           "count — use Padded<T> elements (rt::par) "
                           "to avoid false sharing",
                           out);
                    break;
                }
            }
        }
    }
}

// ------------------------------------------------- capture escape

namespace {

constexpr std::string_view kAssignOps[] = {
    "=",  "+=", "-=", "*=", "/=",  "%=",
    "&=", "|=", "^=", "<<=", ">>="};

bool
isAssignOp(const Token& t)
{
    return t.kind == Tok::kPunct &&
           std::any_of(std::begin(kAssignOps), std::end(kAssignOps),
                       [&](std::string_view op) {
                           return t.text == op;
                       });
}

/** Does the initializer / subscript after @p i mention a tid? A
 *  reference bound through a tid index (`auto& slot =
 *  counters[ctx.tid()]`) aliases the thread's own slot. */
bool
tidInitialized(const Ast& ast, CodeIdx i)
{
    for (CodeIdx k = i + 1; k < ast.size() && k < i + 32; ++k) {
        const Token& t = ast.tok(k);
        if (isPunct(t, ";") || isPunct(t, "{")) {
            return false;
        }
        if (t.kind == Tok::kIdent &&
            t.text.find("tid") != std::string::npos) {
            return true;
        }
    }
    return false;
}

/**
 * Collect declaration-shaped token patterns in [lo, hi), splitting
 * them by what the name can reach: value declarations go to @p safe
 * (per-thread storage in an SPMD frame), reference/pointer
 * declarations go to @p shared (they alias storage created
 * elsewhere, possibly shared between threads) — unless the
 * initializer is tid-indexed, which pins the alias to the thread's
 * own slot.
 */
void
collectDecls(const Ast& ast, CodeIdx lo, CodeIdx hi,
             std::set<std::string>* safe,
             std::set<std::string>* shared,
             bool skip_nested = false)
{
    for (CodeIdx i = lo; i < hi && i < ast.size(); ++i) {
        const Token& t = ast.tok(i);
        // When scanning an enclosing scope for names visible at
        // position hi, declarations inside sibling scopes (a brace
        // pair that closes before hi) are out of scope there — and
        // in a class body they belong to *other methods' frames*.
        if (skip_nested && isPunct(t, "{") &&
            ast.match[i] != kNoIdx && ast.match[i] < hi) {
            i = ast.match[i];
            continue;
        }
        if (t.kind != Tok::kIdent || i == 0 || i + 1 >= ast.size()) {
            continue;
        }
        // auto [a, b] = ... / auto& [a, b] = ... structured bindings.
        if (isIdent(t, "auto") && (isPunct(ast.tok(i + 1), "[") ||
                                   (isPunct(ast.tok(i + 1), "&") &&
                                    i + 2 < ast.size() &&
                                    isPunct(ast.tok(i + 2), "[")))) {
            const bool by_ref = isPunct(ast.tok(i + 1), "&");
            const CodeIdx open = by_ref ? i + 2 : i + 1;
            const CodeIdx close = ast.match[open];
            std::set<std::string>* dst =
                by_ref && !tidInitialized(ast, close == kNoIdx
                                                   ? open
                                                   : close)
                    ? shared
                    : safe;
            for (CodeIdx k = open + 1;
                 k != kNoIdx && close != kNoIdx && k < close; ++k) {
                if (ast.tok(k).kind == Tok::kIdent) {
                    dst->insert(ast.tok(k).text);
                }
            }
            continue;
        }
        const Token& prev = ast.tok(i - 1);
        const Token& next = ast.tok(i + 1);
        // A declared name is preceded by type-ish material...
        const bool type_before =
            (prev.kind == Tok::kIdent && !isIdent(prev, "return") &&
             !isIdent(prev, "case") && !isIdent(prev, "new") &&
             !isIdent(prev, "delete") && !isIdent(prev, "goto") &&
             !isIdent(prev, "else") && !isIdent(prev, "do")) ||
            isPunct(prev, ">") || isPunct(prev, "&") ||
            isPunct(prev, "*") || isPunct(prev, "&&");
        // ...and followed by an initializer, separator, or range-for
        // colon — never by an operator that would make this a use.
        const bool decl_after =
            isPunct(next, "=") || isPunct(next, ";") ||
            isPunct(next, "{") || isPunct(next, ":") ||
            isPunct(next, ",") || isPunct(next, ")");
        if (!type_before || !decl_after) {
            continue;
        }
        const bool aliasing = isPunct(prev, "&") ||
                              isPunct(prev, "&&") ||
                              isPunct(prev, "*");
        if (aliasing && !tidInitialized(ast, i)) {
            shared->insert(t.text);
        } else {
            safe->insert(t.text);
        }
    }
}

constexpr std::string_view kTrailingSpecifiers[] = {
    "const", "noexcept", "override", "final", "mutable"};

/**
 * Locate the parameter list `( ... )` preceding a function or lambda
 * body brace at @p open (stepping back over trailing specifiers and
 * return types) and classify each parameter: by-value → @p safe
 * (copied into the per-thread frame), reference/pointer → @p shared
 * (aliases the caller's — possibly shared — storage).
 */
void
classifyParams(const Ast& ast, CodeIdx open,
               std::set<std::string>* safe,
               std::set<std::string>* shared)
{
    if (open == kNoIdx || open == 0) {
        return;
    }
    CodeIdx j = open - 1;
    for (int guard = 0; guard < 24 && j > 0; ++guard) {
        const Token& t = ast.tok(j);
        if (isPunct(t, ")")) {
            break;
        }
        const bool skippable =
            (t.kind == Tok::kIdent &&
             std::any_of(std::begin(kTrailingSpecifiers),
                         std::end(kTrailingSpecifiers),
                         [&](std::string_view s) {
                             return t.text == s;
                         })) ||
            t.kind == Tok::kIdent || isPunct(t, "->") ||
            isPunct(t, "::") || isPunct(t, "<") || isPunct(t, ">") ||
            isPunct(t, "*") || isPunct(t, "&") || isPunct(t, "&&");
        if (!skippable) {
            return; // not a function-header shape
        }
        --j;
    }
    if (j == 0 || !isPunct(ast.tok(j), ")")) {
        return;
    }
    const CodeIdx popen = ast.match[j];
    if (popen == kNoIdx) {
        return;
    }
    // Split on depth-0 commas; in each chunk the declared name is
    // the last identifier before any default argument.
    CodeIdx name = kNoIdx;
    bool in_default = false;
    int depth = 0;
    const auto commit = [&]() {
        if (name != kNoIdx && name > popen) {
            const Token& prev = ast.tok(name - 1);
            if (isPunct(prev, "&") || isPunct(prev, "&&") ||
                isPunct(prev, "*")) {
                shared->insert(ast.tok(name).text);
            } else {
                safe->insert(ast.tok(name).text);
            }
        }
        name = kNoIdx;
        in_default = false;
    };
    for (CodeIdx k = popen + 1; k < j; ++k) {
        const Token& t = ast.tok(k);
        if (t.kind == Tok::kPunct) {
            if (t.text == "(" || t.text == "[" || t.text == "{" ||
                t.text == "<") {
                ++depth;
            } else if (t.text == ")" || t.text == "]" ||
                       t.text == "}" || t.text == ">") {
                --depth;
            } else if (t.text == "," && depth == 0) {
                commit();
                continue;
            } else if (t.text == "=" && depth == 0) {
                in_default = true;
            }
        }
        if (t.kind == Tok::kIdent && depth == 0 && !in_default) {
            name = k;
        }
    }
    commit();
}

/**
 * Walk the LHS postfix chain ending at @p j (inclusive) leftward.
 * Returns the base identifier's code index, or kNoIdx to skip
 * (parenthesized/call-result/qualified targets). Sets *tid_indexed
 * when the chain's subscripts or members mention a tid.
 */
CodeIdx
chainBase(const Ast& ast, CodeIdx j, CodeIdx lo, bool* tid_indexed)
{
    *tid_indexed = false;
    CodeIdx base = kNoIdx;
    while (j != kNoIdx && j >= lo) {
        const Token& t = ast.tok(j);
        if (isPunct(t, "]")) {
            const CodeIdx open = ast.match[j];
            if (open == kNoIdx) {
                return kNoIdx;
            }
            for (CodeIdx k = open + 1; k < j; ++k) {
                if (ast.tok(k).kind == Tok::kIdent &&
                    ast.tok(k).text.find("tid") != std::string::npos) {
                    *tid_indexed = true;
                }
            }
            if (open == 0) {
                return kNoIdx;
            }
            j = open - 1;
            continue;
        }
        if (t.kind == Tok::kIdent) {
            base = j;
            if (j >= 1 + lo &&
                (isPunct(ast.tok(j - 1), ".") ||
                 isPunct(ast.tok(j - 1), "->"))) {
                if (t.text.find("tid") != std::string::npos) {
                    *tid_indexed = true;
                }
                j -= 2;
                continue;
            }
            if (j >= 1 + lo && isPunct(ast.tok(j - 1), "::")) {
                return kNoIdx; // qualified name — not a capture
            }
            return base;
        }
        if (isPunct(t, "*")) { // *ptr = ... — dereference target
            return kNoIdx;
        }
        return kNoIdx; // ')' or anything else: give up quietly
    }
    return base;
}

} // namespace

void
passCaptureEscape(const FileUnit& u, std::vector<Finding>* out)
{
    if (!ruleApplies("capture-escape", u.rel)) {
        return;
    }
    const Ast& ast = u.ast;
    for (CodeIdx i = 0; i + 1 < ast.size(); ++i) {
        const Token& t = ast.tok(i);
        if (t.kind != Tok::kIdent || !isPunct(ast.tok(i + 1), "(")) {
            continue;
        }
        const bool prim = std::any_of(
            std::begin(kParPrimitives), std::end(kParPrimitives),
            [&](std::string_view p) { return t.text == p; });
        if (!prim) {
            continue;
        }
        const CodeIdx call_close = ast.match[i + 1];
        if (call_close == kNoIdx) {
            continue;
        }
        for (const Lambda& lam : ast.lambdas) {
            if (lam.intro <= i + 1 || lam.intro >= call_close ||
                lam.body_open == kNoIdx ||
                lam.body_close == kNoIdx) {
                continue;
            }
            if (!lam.default_ref && lam.ref_captures.empty()) {
                continue; // nothing captured by reference
            }
            // The lambda's own parameters and body locals are
            // per-invocation; what the primitive hands in (reduce
            // accumulators and the like) is the primitive's business.
            std::set<std::string> locals(lam.params.begin(),
                                         lam.params.end());
            std::set<std::string> shared_alias;
            collectDecls(ast, lam.body_open + 1, lam.body_close,
                         &locals, &shared_alias);
            // Nested lambdas' parameters and by-value captures are
            // local to their own bodies; fold them in so their
            // writes don't misattribute.
            for (const Lambda& nested : ast.lambdas) {
                if (nested.intro > lam.body_open &&
                    nested.intro < lam.body_close) {
                    locals.insert(nested.params.begin(),
                                  nested.params.end());
                    locals.insert(nested.val_captures.begin(),
                                  nested.val_captures.end());
                }
            }
            // Enclosing frames run per-thread under the SPMD
            // executor (the kernel function body *is* the per-thread
            // program), so their value locals are thread-private.
            // Only names that alias storage created elsewhere —
            // reference/pointer declarations and parameters — can
            // reach a shared object.
            for (int sc = lam.intro < ast.scope_at.size()
                              ? ast.scope_at[lam.intro]
                              : -1;
                 sc >= 0; sc = ast.scopes[sc].parent) {
                const Scope& S = ast.scopes[sc];
                if (S.open == kNoIdx) {
                    continue;
                }
                collectDecls(ast, S.open + 1, lam.intro, &locals,
                             &shared_alias, /*skip_nested=*/true);
                if (S.kind == ScopeKind::kFunction ||
                    S.kind == ScopeKind::kLambda) {
                    classifyParams(ast, S.open, &locals,
                                   &shared_alias);
                }
            }
            const std::set<std::string> by_val(
                lam.val_captures.begin(), lam.val_captures.end());
            const std::set<std::string> by_ref(
                lam.ref_captures.begin(), lam.ref_captures.end());

            const auto flag = [&](CodeIdx base, CodeIdx op,
                                  bool tid_indexed) {
                const std::string& name = ast.tok(base).text;
                if (tid_indexed || name == "ctx" ||
                    locals.count(name) != 0 ||
                    by_val.count(name) != 0) {
                    return;
                }
                const bool ref_captured =
                    by_ref.count(name) != 0 || lam.default_ref;
                if (!ref_captured ||
                    shared_alias.count(name) == 0) {
                    return; // value local of a per-thread frame
                }
                report(u, ast.tok(op).line, "capture-escape",
                       "lambda passed to " + t.text +
                           " writes by-reference capture '" + name +
                           "', which aliases shared storage — route "
                           "shared writes through ctx.write/fetchAdd/"
                           "compareExchange, a Padded slot indexed by "
                           "ctx.tid(), or tryClaim",
                       out);
            };

            for (CodeIdx j = lam.body_open + 1; j < lam.body_close;
                 ++j) {
                const Token& op = ast.tok(j);
                if (isAssignOp(op) && j > lam.body_open + 1) {
                    bool tid = false;
                    const CodeIdx base = chainBase(
                        ast, j - 1, lam.body_open + 1, &tid);
                    // `Type* p = ...` / `Type& r = ...` directly
                    // before the `=` is a declaration initializer,
                    // not a write to captured state.
                    if (base == j - 1 && base > lam.body_open + 1) {
                        const Token& head = ast.tok(base - 1);
                        if (isPunct(head, "*") ||
                            isPunct(head, "&") ||
                            isPunct(head, "&&") ||
                            isPunct(head, ">") ||
                            (head.kind == Tok::kIdent &&
                             !isIdent(head, "return") &&
                             !isIdent(head, "else") &&
                             !isIdent(head, "do") &&
                             !isIdent(head, "goto"))) {
                            continue;
                        }
                    }
                    if (base != kNoIdx) {
                        flag(base, j, tid);
                    }
                } else if (isPunct(op, "++") || isPunct(op, "--")) {
                    bool tid = false;
                    CodeIdx base = kNoIdx;
                    if (j + 1 < lam.body_close &&
                        ast.tok(j + 1).kind == Tok::kIdent &&
                        (j == lam.body_open + 1 ||
                         ast.tok(j - 1).kind == Tok::kPunct)) {
                        base = j + 1; // pre-increment
                        if (j + 2 < lam.body_close &&
                            isPunct(ast.tok(j + 2), "::")) {
                            base = kNoIdx;
                        }
                    } else if (j > lam.body_open + 1) {
                        base = chainBase(ast, j - 1,
                                         lam.body_open + 1, &tid);
                    }
                    if (base != kNoIdx) {
                        flag(base, j, tid);
                    }
                }
            }
        }
    }
}

// --------------------------------------------- barrier divergence

namespace {

/** Is code token @p i a `.barrier()` / `->barrier()` call? */
bool
isBarrierCall(const Ast& ast, CodeIdx i)
{
    if (!isIdent(ast.tok(i), "barrier") || i == 0 ||
        i + 1 >= ast.size()) {
        return false;
    }
    const Token& prev = ast.tok(i - 1);
    return (isPunct(prev, ".") || isPunct(prev, "->")) &&
           isPunct(ast.tok(i + 1), "(");
}

} // namespace

void
passBarrierDivergence(const FileUnit& u, std::vector<Finding>* out)
{
    if (!ruleApplies("barrier-divergence", u.rel)) {
        return;
    }
    const Ast& ast = u.ast;

    // Pass A: braced conditionals — walk the scope chain from each
    // barrier call to its enclosing function/lambda.
    std::vector<CodeIdx> barriers;
    for (CodeIdx i = 0; i < ast.size(); ++i) {
        if (!isBarrierCall(ast, i)) {
            continue;
        }
        barriers.push_back(i);
        if (ast.underConditional(ast.scope_at[i])) {
            report(u, ast.tok(i).line, "barrier-divergence",
                   "barrier under if/else/switch — threads that take "
                   "the other path never arrive and the region "
                   "deadlocks; hoist the barrier or prove the "
                   "condition uniform and allow it",
                   out);
        }
    }

    // Pass B: braceless conditionals (`if (x) ctx.barrier();`) and
    // conditional returns that skip a later barrier in the same body.
    for (CodeIdx i = 0; i < ast.size(); ++i) {
        const Token& t = ast.tok(i);
        CodeIdx stmt_begin = kNoIdx;
        if (isIdent(t, "if") && i + 1 < ast.size() &&
            isPunct(ast.tok(i + 1), "(")) {
            const CodeIdx close = ast.match[i + 1];
            if (close == kNoIdx || close + 1 >= ast.size()) {
                continue;
            }
            const Token& next = ast.tok(close + 1);
            if (isPunct(next, "{") || isIdent(next, "if")) {
                continue; // braced, or `else if` chain
            }
            stmt_begin = close + 1;
        } else if (isIdent(t, "else") && i + 1 < ast.size() &&
                   !isPunct(ast.tok(i + 1), "{") &&
                   !isIdent(ast.tok(i + 1), "if")) {
            stmt_begin = i + 1;
        } else {
            continue;
        }
        // The single statement runs to the first depth-0 ';'.
        int depth = 0;
        for (CodeIdx j = stmt_begin;
             j < ast.size() && j < stmt_begin + 256; ++j) {
            const Token& s = ast.tok(j);
            if (s.kind == Tok::kPunct) {
                if (s.text == "(" || s.text == "[" || s.text == "{") {
                    ++depth;
                } else if (s.text == ")" || s.text == "]" ||
                           s.text == "}") {
                    --depth;
                } else if (s.text == ";" && depth == 0) {
                    break;
                }
            }
            if (isBarrierCall(ast, j)) {
                report(u, ast.tok(j).line, "barrier-divergence",
                       "barrier in a braceless conditional statement "
                       "— threads that skip it never arrive",
                       out);
            }
            if (isIdent(s, "return")) {
                // Conditional return: divergent if the enclosing
                // body still has a barrier ahead.
                const int body =
                    ast.enclosingBody(ast.scope_at[j]);
                for (const CodeIdx b : barriers) {
                    if (b > j &&
                        ast.enclosingBody(ast.scope_at[b]) == body) {
                        report(u, ast.tok(j).line,
                               "barrier-divergence",
                               "conditional return before a barrier "
                               "in the same parallel body — the "
                               "returning thread never arrives",
                               out);
                        break;
                    }
                }
            }
        }
    }

    // Pass C: braced conditional returns that skip a later barrier.
    for (CodeIdx i = 0; i < ast.size(); ++i) {
        if (!isIdent(ast.tok(i), "return")) {
            continue;
        }
        const int scope = ast.scope_at[i];
        if (scope < 0 || !ast.underConditional(scope)) {
            continue;
        }
        const int body = ast.enclosingBody(scope);
        if (body < 0) {
            continue;
        }
        for (const CodeIdx b : barriers) {
            if (b > i && ast.enclosingBody(ast.scope_at[b]) == body) {
                report(u, ast.tok(i).line, "barrier-divergence",
                       "conditional return before a barrier in the "
                       "same parallel body — the returning thread "
                       "never arrives at the rendezvous",
                       out);
                break;
            }
        }
    }
}

// ----------------------------------------------------- read poll

namespace {

/** True iff code token @p i is the `read` of a `ctx.read(` or
 *  `ctx->read(` call (explicit template arguments included). */
bool
isCtxReadCall(const Ast& ast, CodeIdx i)
{
    if (!isIdent(ast.tok(i), "read") || i < 2 || i + 1 >= ast.size()) {
        return false;
    }
    const Token& op = ast.tok(i - 1);
    const Token& next = ast.tok(i + 1);
    return (isPunct(op, ".") || isPunct(op, "->")) &&
           isIdent(ast.tok(i - 2), "ctx") &&
           (isPunct(next, "(") || isPunct(next, "<"));
}

/** End (exclusive) of the statement starting at @p begin: its
 *  matching '}' when braced, else the first depth-0 ';'. */
CodeIdx
statementEnd(const Ast& ast, CodeIdx begin)
{
    if (begin >= ast.size()) {
        return ast.size();
    }
    if (isPunct(ast.tok(begin), "{")) {
        const CodeIdx m = ast.match[begin];
        return m == kNoIdx ? ast.size() : m + 1;
    }
    for (CodeIdx j = begin; j < ast.size(); ++j) {
        const CodeIdx m = ast.match[j];
        if (m != kNoIdx && m > j) {
            j = m;
        } else if (isPunct(ast.tok(j), ";")) {
            return j + 1;
        }
    }
    return ast.size();
}

bool
isMutatingOp(const Token& t)
{
    constexpr std::string_view kOps[] = {
        "=",  "+=", "-=", "*=", "/=",  "%=",  "&=",
        "|=", "^=", "<<=", ">>=", "++", "--"};
    return t.kind == Tok::kPunct &&
           std::find(std::begin(kOps), std::end(kOps), t.text) !=
               std::end(kOps);
}

/** True iff an identifier of the read call at @p call (its argument
 *  list) is assigned, incremented or decremented in [from, to): the
 *  loop moves the address, so the read is a scan, not a poll. */
bool
readAddressAdvances(const Ast& ast, CodeIdx call, CodeIdx from,
                    CodeIdx to)
{
    CodeIdx open = call + 1;
    if (isPunct(ast.tok(open), "<")) { // skip explicit template args
        while (open < ast.size() && !isPunct(ast.tok(open), "(")) {
            ++open;
        }
    }
    const CodeIdx close =
        open < ast.size() ? ast.match[open] : kNoIdx;
    if (close == kNoIdx) {
        return false;
    }
    std::set<std::string> names;
    for (CodeIdx j = open + 1; j < close; ++j) {
        if (ast.tok(j).kind == Tok::kIdent) {
            names.insert(ast.tok(j).text);
        }
    }
    for (CodeIdx j = from; j < to && j < ast.size(); ++j) {
        const Token& t = ast.tok(j);
        if (t.kind != Tok::kIdent || names.count(t.text) == 0) {
            continue;
        }
        if ((j + 1 < ast.size() && isMutatingOp(ast.tok(j + 1))) ||
            (j > 0 && (isPunct(ast.tok(j - 1), "++") ||
                       isPunct(ast.tok(j - 1), "--")))) {
            return true;
        }
    }
    return false;
}

} // namespace

void
passReadPoll(const FileUnit& u, std::vector<Finding>* out)
{
    if (!ruleApplies("read-poll", u.rel)) {
        return;
    }
    const Ast& ast = u.ast;
    for (CodeIdx i = 0; i + 1 < ast.size(); ++i) {
        const bool is_while = isIdent(ast.tok(i), "while");
        if ((!is_while && !isIdent(ast.tok(i), "for")) ||
            !isPunct(ast.tok(i + 1), "(")) {
            continue;
        }
        const CodeIdx close = ast.match[i + 1];
        if (close == kNoIdx) {
            continue;
        }
        // The condition of `while (c)` / `do ... while (c)` is the
        // whole parenthesis; of `for (init; c; step)` the part between
        // the two depth-0 semicolons (a range-for has none). The loop
        // runs the condition, the body and a for's step clause.
        CodeIdx begin = i + 2;
        CodeIdx end = close;
        CodeIdx loop_from = i + 2;
        CodeIdx loop_to = statementEnd(ast, close + 1);
        if (is_while && i > 0 && isPunct(ast.tok(i - 1), "}")) {
            const CodeIdx open = ast.match[i - 1];
            if (open != kNoIdx && open > 0 &&
                isIdent(ast.tok(open - 1), "do")) {
                loop_from = open;
                loop_to = close;
            }
        }
        if (!is_while) {
            std::vector<CodeIdx> semis;
            for (CodeIdx j = i + 2; j < close; ++j) {
                const CodeIdx m = ast.match[j];
                if (m != kNoIdx && m > j) {
                    j = m; // skip a nested bracket group
                } else if (isPunct(ast.tok(j), ";")) {
                    semis.push_back(j);
                }
            }
            if (semis.size() != 2) {
                continue;
            }
            begin = semis[0] + 1;
            end = semis[1];
            loop_from = begin;
        }
        for (CodeIdx j = begin; j < end; ++j) {
            if (isCtxReadCall(ast, j) &&
                !readAddressAdvances(ast, j, loop_from, loop_to)) {
                report(u, ast.tok(j).line, "read-poll",
                       "ctx.read in a loop condition, of an address "
                       "the loop does not move — a plain load may be "
                       "hoisted out of the loop and the poll spin "
                       "forever; use ctx.readAtomic for a value "
                       "another thread writes while this loop runs, "
                       "or read it into a local before the loop",
                       out);
            }
        }
    }
}

// ---------------------------------------------- include layering

void
passIncludeLayering(const FileUnit& u, std::vector<Finding>* out)
{
    if (!ruleApplies("include-layering", u.rel)) {
        return;
    }
    const int file_layer = layerOf(u.rel);
    if (file_layer < 0) {
        return;
    }
    const Ast& ast = u.ast;
    for (CodeIdx i = 0; i < ast.size(); ++i) {
        const Token& t = ast.tok(i);
        if (t.kind != Tok::kHeaderName || t.text.size() <= 2 ||
            t.text.front() != '"') {
            continue;
        }
        const std::string_view inc{t.text.data() + 1,
                                   t.text.size() - 2};
        const int inc_layer = layerOfInclude(inc);
        if (inc_layer < 0 || inc_layer <= file_layer) {
            continue;
        }
        report(u, t.line, "include-layering",
               "#include \"" + std::string(inc) + "\" reaches up the "
               "layer DAG: " + std::string(layerName(file_layer)) +
               " may not depend on " +
               std::string(layerName(inc_layer)) +
               " (common → obs → sim → runtime → graph → analysis → "
               "core → serve → tools/bench)",
               out);
    }
}

} // namespace crono::staticlint
