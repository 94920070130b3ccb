#include "analysis/static/analyzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "obs/json.h"

namespace crono::staticlint {

namespace {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                          s.front() == '\r')) {
        s.remove_prefix(1);
    }
    while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                          s.back() == '\r')) {
        s.remove_suffix(1);
    }
    return s;
}

/** trim(), plus a trailing block-comment closer so directives on the
 *  last line of a / * ... * / comment still parse. */
std::string_view
trimCommentLine(std::string_view s)
{
    s = trim(s);
    if (s.size() >= 2 && s.substr(s.size() - 2) == "*/") {
        s = trim(s.substr(0, s.size() - 2));
    }
    return s;
}

/** One allow directive, with bookkeeping for hygiene. */
struct Allow {
    int line = 0; ///< line the directive sits on
    std::string rule;
    bool used = false;
};

struct FileAllows {
    std::vector<Allow> allows;
    std::vector<Finding> bad; ///< malformed directives (bad-allow)
};

/**
 * Parse `crono-lint: allow(rule): why` directives out of the file's
 * comment tokens. Runs on tokens, not raw lines, so directives work
 * inside block comments and survive line continuations.
 */
FileAllows
parseAllows(const FileUnit& u)
{
    FileAllows fa;
    constexpr std::string_view kMarker = "crono-lint:";
    for (const Token& t : u.ast.tokens) {
        if (t.kind != Tok::kComment) {
            continue;
        }
        // Scan each physical line of the comment separately.
        int line = t.line;
        std::size_t pos = 0;
        while (pos <= t.text.size()) {
            const std::size_t nl = t.text.find('\n', pos);
            const std::string_view ln =
                std::string_view(t.text).substr(
                    pos, nl == std::string::npos ? nl : nl - pos);
            pos = nl == std::string::npos ? t.text.size() + 1 : nl + 1;
            const std::size_t m = ln.find(kMarker);
            if (m == std::string_view::npos) {
                ++line;
                continue;
            }
            // Documentation *mentions* the directive in backticks
            // (`crono-lint: allow(rule): why`); only bare directives
            // are suppressions.
            if (ln.substr(0, m).find('`') != std::string_view::npos) {
                ++line;
                continue;
            }
            const auto bad = [&](const std::string& why) {
                fa.bad.push_back({u.path, line, "bad-allow", why,
                                  u.lineText(line),
                                  Severity::kError});
            };
            std::string_view rest =
                trimCommentLine(ln.substr(m + kMarker.size()));
            constexpr std::string_view kAllow = "allow(";
            if (rest.substr(0, kAllow.size()) != kAllow) {
                bad("crono-lint directive is not 'allow(rule): ...'");
                ++line;
                continue;
            }
            rest.remove_prefix(kAllow.size());
            const std::size_t close = rest.find(')');
            if (close == std::string_view::npos) {
                bad("unterminated allow(rule)");
                ++line;
                continue;
            }
            const std::string rule{trim(rest.substr(0, close))};
            rest = trim(rest.substr(close + 1));
            if (rest.empty() || rest.front() != ':' ||
                trim(rest.substr(1)).empty()) {
                bad("allow(" + rule +
                    ") has no justification — write 'allow(" + rule +
                    "): why this is safe here'");
                ++line;
                continue;
            }
            if (!ruleKnown(rule)) {
                bad("allow(" + rule + "): unknown rule id");
                ++line;
                continue;
            }
            if (rule == "bad-allow" || rule == "stale-suppression") {
                bad("allow(" + rule +
                    "): hygiene rules are never suppressible");
                ++line;
                continue;
            }
            fa.allows.push_back({line, rule, false});
            ++line;
        }
    }
    return fa;
}

/** Apply allows: move unsuppressed findings to @p out, mark used
 *  entries, count suppressed. bad-allow / stale-suppression pass
 *  through untouched. */
std::size_t
applyAllows(std::vector<Finding>&& raw, FileAllows* fa,
            std::vector<Finding>* out)
{
    std::size_t suppressed = 0;
    for (Finding& f : raw) {
        bool covered = false;
        if (f.rule != "bad-allow" && f.rule != "stale-suppression") {
            for (Allow& a : fa->allows) {
                if (a.rule == f.rule &&
                    (a.line == f.line || a.line == f.line - 1)) {
                    a.used = true;
                    covered = true;
                }
            }
        }
        if (covered) {
            ++suppressed;
        } else {
            out->push_back(std::move(f));
        }
    }
    return suppressed;
}

/** Parse a detector.allow / tsan.supp file: entries with the
 *  comment-justification contract. Returns (line, pattern) pairs and
 *  appends structural violations to @p out. */
std::vector<std::pair<int, std::string>>
parseSuppressionFile(const SourceFile& sf, std::vector<Finding>* out)
{
    std::vector<std::pair<int, std::string>> entries;
    std::istringstream in(sf.text);
    std::string raw;
    int lineno = 0;
    bool prev_comment = false;
    while (std::getline(in, raw)) {
        ++lineno;
        const std::string_view line = trim(raw);
        if (line.empty()) {
            prev_comment = false; // blank detaches the comment
            continue;
        }
        if (line.front() == '#') {
            prev_comment = true;
            continue;
        }
        const std::size_t colon = line.find(':');
        const auto snippet = std::string(line.substr(0, 120));
        if (colon == std::string_view::npos) {
            out->push_back({sf.path, lineno, "bad-allow",
                            "suppression entry is not "
                            "'directive:pattern'",
                            snippet, Severity::kError});
            prev_comment = false;
            continue;
        }
        if (!prev_comment) {
            out->push_back({sf.path, lineno, "bad-allow",
                            "suppression entry lacks the required "
                            "justification comment directly above it",
                            snippet, Severity::kError});
        }
        std::string pattern{trim(line.substr(colon + 1))};
        entries.emplace_back(lineno, std::move(pattern));
        prev_comment = false;
    }
    return entries;
}

/** Does @p pattern (possibly with TSan-style '*' wildcards) match
 *  anything in the analyzed sources? The longest literal fragment
 *  must appear as a substring of some file's text. */
bool
patternMatchesSources(const std::string& pattern,
                      const std::vector<SourceFile>& files)
{
    std::string longest;
    std::string cur;
    for (const char c : pattern) {
        if (c == '*' || c == '^' || c == '$') {
            if (cur.size() > longest.size()) {
                longest = cur;
            }
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (cur.size() > longest.size()) {
        longest = cur;
    }
    if (longest.empty()) {
        return true; // pure-wildcard pattern matches trivially
    }
    for (const SourceFile& f : files) {
        if (f.text.find(longest) != std::string::npos) {
            return true;
        }
    }
    return false;
}

std::string
relativize(const std::string& path, const std::string& root)
{
    if (root.empty()) {
        return path;
    }
    std::string r = root;
    if (!r.empty() && r.back() != '/') {
        r.push_back('/');
    }
    if (path.rfind(r, 0) == 0) {
        return path.substr(r.size());
    }
    return path;
}

} // namespace

AnalysisResult
analyzeSources(const std::vector<SourceFile>& files,
               const Options& opt)
{
    AnalysisResult res;
    res.files_analyzed = files.size();
    for (const SourceFile& sf : files) {
        const std::string rel = relativize(sf.path, opt.root);
        const FileUnit u = makeUnit(rel, rel, sf.text);

        std::vector<Finding> raw;
        passCtxDiscipline(u, &raw);
        passCaptureEscape(u, &raw);
        passBarrierDivergence(u, &raw);
        passReadPoll(u, &raw);
        passIncludeLayering(u, &raw);

        FileAllows fa = parseAllows(u);
        std::vector<Finding> kept(std::move(fa.bad));
        res.suppressed += applyAllows(std::move(raw), &fa, &kept);
        // Hygiene: an allow that suppressed nothing has rotted.
        for (const Allow& a : fa.allows) {
            if (!a.used) {
                kept.push_back(
                    {u.path, a.line, "stale-suppression",
                     "allow(" + a.rule +
                         ") suppresses nothing on this or the next "
                         "line — remove it (or it is masking a fixed "
                         "finding)",
                     u.lineText(a.line), Severity::kError});
            }
        }
        std::sort(kept.begin(), kept.end(),
                  [](const Finding& x, const Finding& y) {
                      return x.line < y.line;
                  });
        res.findings.insert(res.findings.end(),
                            std::make_move_iterator(kept.begin()),
                            std::make_move_iterator(kept.end()));
    }

    // Suppression-file hygiene against the full analyzed set.
    for (const SourceFile& supp : opt.suppression_files) {
        std::vector<Finding> fs;
        const auto entries = parseSuppressionFile(supp, &fs);
        for (const auto& [line, pattern] : entries) {
            if (!patternMatchesSources(pattern, files)) {
                fs.push_back(
                    {supp.path, line, "stale-suppression",
                     "suppression pattern '" + pattern +
                         "' matches no symbol in the analyzed "
                         "sources — the suppression has rotted",
                     pattern, Severity::kError});
            }
        }
        res.findings.insert(res.findings.end(),
                            std::make_move_iterator(fs.begin()),
                            std::make_move_iterator(fs.end()));
    }
    return res;
}

std::vector<Finding>
analyzeText(std::string_view path, std::string_view text)
{
    return analyzeSources({{std::string(path), std::string(text)}})
        .findings;
}

AnalysisResult
analyzeFiles(const std::vector<std::string>& paths,
             const Options& opt)
{
    std::vector<SourceFile> files;
    std::vector<Finding> io;
    for (const std::string& p : paths) {
        std::ifstream in(p);
        if (!in) {
            io.push_back({relativize(p, opt.root), 0, "io",
                          "cannot read file", "", Severity::kError});
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        files.push_back({p, buf.str()});
    }
    AnalysisResult res = analyzeSources(files, opt);
    res.findings.insert(res.findings.end(),
                        std::make_move_iterator(io.begin()),
                        std::make_move_iterator(io.end()));
    return res;
}

std::vector<std::string>
collectSources(const std::string& path)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    std::error_code ec;
    if (fs::is_regular_file(path, ec)) {
        out.push_back(path);
        return out;
    }
    const std::set<std::string> exts{".h", ".hpp", ".cpp", ".cc"};
    for (fs::recursive_directory_iterator it(path, ec), end;
         !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file() &&
            exts.count(it->path().extension().string()) != 0) {
            out.push_back(it->path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
writeReportJson(const AnalysisResult& res, std::string_view root)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("crono.lint.v1");
    w.key("root").value(root);
    w.key("files_analyzed")
        .value(static_cast<std::uint64_t>(res.files_analyzed));
    w.key("suppressed")
        .value(static_cast<std::uint64_t>(res.suppressed));
    w.key("finding_count")
        .value(static_cast<std::uint64_t>(res.findings.size()));
    w.key("findings").beginArray();
    for (const Finding& f : res.findings) {
        w.beginObject();
        w.key("file").value(f.file);
        w.key("line").value(static_cast<std::int64_t>(f.line));
        w.key("rule").value(f.rule);
        w.key("severity")
            .value(f.severity == Severity::kError ? "error"
                                                  : "warning");
        w.key("message").value(f.message);
        w.key("snippet").value(f.snippet);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace crono::staticlint
