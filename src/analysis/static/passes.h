/**
 * @file
 * crono_analyze pass registry and the analysis passes (DESIGN.md §16).
 *
 * A pass is a function over one parsed translation unit (FileUnit)
 * that appends Findings. The registry (ruleCatalog) carries, for
 * every rule id, its severity, a one-line summary, and the layer
 * policy describing where the rule applies — the policy is part of
 * the rule's contract and is rendered into DESIGN.md's rule table via
 * ruleTableMarkdown(), so documentation cannot drift from the code.
 *
 * Layer policy. The Ctx-discipline rules (raw-sync, raw-include,
 * parallel-stl, padded-slot) apply only to code that is *subject to*
 * the Ctx contract: src/core, src/graph, and the rt::bnb framework
 * files. src/runtime, src/obs and src/sim legitimately use raw
 * synchronization to *implement* the contract (NativeCtx's barrier is
 * a condition variable; telemetry rings are seq-cst published), so
 * those rules are off there by policy rather than drowned in allow
 * comments — that policy decision is the explicit justification
 * ISSUE 9 asks for, and it is documented here and in the rule table.
 * The flow-aware rules (capture-escape, barrier-divergence, read-poll)
 * and the hygiene rules apply everywhere; include-layering applies to every
 * file whose layer is known. A file outside any known layer root
 * (unit-test snippets, fixtures) gets every rule, which preserves the
 * old linter's behavior for direct file invocations.
 */

#ifndef CRONO_ANALYSIS_STATIC_PASSES_H_
#define CRONO_ANALYSIS_STATIC_PASSES_H_

#include <string>
#include <string_view>
#include <vector>

#include "analysis/static/parser.h"

namespace crono::staticlint {

enum class Severity { kError, kWarning };

/** One finding, the unit of the crono.lint.v1 report. */
struct Finding {
    std::string file;
    int line = 0;          ///< 1-based
    std::string rule;      ///< rule id, e.g. "barrier-divergence"
    std::string message;
    std::string snippet;   ///< trimmed source line, may be empty
    Severity severity = Severity::kError;
};

struct RuleInfo {
    std::string_view id;
    Severity severity;
    std::string_view summary;
    std::string_view applies; ///< human-readable layer policy
};

/** Registry of every rule id, in catalog order. */
const std::vector<RuleInfo>& ruleCatalog();

/** True iff @p id names a cataloged rule. */
bool ruleKnown(std::string_view id);

/** The catalog as a GitHub-markdown table (used by DESIGN.md §16;
 *  tests diff the committed table against this). */
std::string ruleTableMarkdown();

// ----------------------------------------------------------- layering

/** Layer index of a repo-relative path, or -1 when unknown. The DAG
 *  is common(0) → obs(1) → sim(2) → runtime(3) → graph(4) →
 *  analysis(5) → core(6) → tools/bench(7): a file may include only
 *  its own or lower layers. */
int layerOf(std::string_view rel);

/** Layer index of a project #include path ("graph/graph.h" → 4),
 *  or -1 for non-project headers. */
int layerOfInclude(std::string_view inc);

/** Human name of a layer index ("src/graph", "tools|bench"). */
std::string_view layerName(int layer);

/** True iff @p rule applies to the file at repo-relative @p rel. */
bool ruleApplies(std::string_view rule, std::string_view rel);

// ------------------------------------------------------------- passes

/** One parsed file, shared by every pass. */
struct FileUnit {
    std::string path; ///< as reported in findings
    std::string rel;  ///< repo-relative path for layer policy
    std::string text;
    Ast ast;

    /** Trimmed content of 1-based @p line (for snippets). */
    std::string lineText(int line) const;
};

/** Build a FileUnit (lex + parse) for @p path / @p rel / @p text. */
FileUnit makeUnit(std::string path, std::string rel, std::string text);

/** The six token rules of the original linter, re-expressed on the
 *  token stream: raw-sync, raw-include, parallel-stl, volatile,
 *  padded-slot. (bad-allow lives with the suppression machinery.) */
void passCtxDiscipline(const FileUnit& u, std::vector<Finding>* out);

/** Shared lambda captures written outside the Ctx contract inside a
 *  lambda passed to an rt::par primitive. */
void passCaptureEscape(const FileUnit& u, std::vector<Finding>* out);

/** Barriers reached on divergent control paths: a `.barrier()` call
 *  nested under if/else/switch (braced or not) inside its enclosing
 *  function or lambda, or a conditional return that can skip a later
 *  barrier in the same body. */
void passBarrierDivergence(const FileUnit& u,
                           std::vector<Finding>* out);

/** `ctx.read(` in a while/for/do condition: natively a plain load,
 *  which the compiler may hoist, so a polling loop may never exit. */
void passReadPoll(const FileUnit& u, std::vector<Finding>* out);

/** Upward or cyclic #include against the layer DAG. */
void passIncludeLayering(const FileUnit& u, std::vector<Finding>* out);

} // namespace crono::staticlint

#endif // CRONO_ANALYSIS_STATIC_PASSES_H_
