/**
 * @file
 * neofog_lint engine: comment/string stripping, suppression-trailer
 * parsing, the R1-R4 token passes, and the report printers.  The
 * semantic passes (R5-R8) live in model.cc.  See lint.hh for the
 * contract and DESIGN.md "Static analysis & enforced invariants" for
 * the rule rationale.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
#include <map>
#include <ostream>
#include <regex>
#include <set>
#include <sstream>

#include "scan.hh"

namespace neofog::lint {

namespace {

// ---------------------------------------------------------------- rules

const char *kRuleIds[kRuleCount] = {
    "R1.determinism", "R2.layering", "R3.observability", "R4.hygiene",
    "R5.snapshot",    "R6.metric",   "R7.registry",      "R8.global"};
const char *kRuleNames[kRuleCount] = {
    "determinism", "layering", "observability", "hygiene",
    "snapshot",    "metric",   "registry",      "global"};

/**
 * Layer DAG over `src/` subsystems: which subsystem directories each
 * directory's includes may point into.  This is the refined,
 * per-directory form of the coarse tiers
 *   sim -> {hw, energy, workload} -> {node, net, balance}
 *       -> {fog, virt}
 * (DESIGN.md): every edge points strictly downward; within-tier edges
 * (hw -> energy, workload -> kernels) are listed explicitly so the
 * whole relation stays an acyclic allowlist rather than a tier
 * heuristic.
 *
 * `snapshot` sits beside fog: it may include from every subsystem it
 * serializes, but only fog (and the out-of-tree tools/ and examples/)
 * may include snapshot — component headers keep their serialize()
 * members as archive-type templates precisely so they never need the
 * snapshot headers themselves.
 *
 * `dist` (the multi-process coordinator/worker runtime) tops the DAG:
 * it may include everything, and nothing in src/ includes it back —
 * only examples/, bench/, and tests link against it.
 */
const std::map<std::string, std::set<std::string>> &
layerTable()
{
    static const std::map<std::string, std::set<std::string>> table = {
        {"sim", {}},
        {"kernels", {"sim"}},
        {"energy", {"sim"}},
        {"hw", {"sim", "energy"}},
        {"workload", {"sim", "hw", "kernels"}},
        {"net", {"sim", "hw"}},
        {"balance", {"sim"}},
        {"node", {"sim", "energy", "hw", "net"}},
        {"virt", {"sim", "hw", "net"}},
        {"snapshot",
         {"sim", "kernels", "energy", "hw", "workload", "net",
          "balance", "node", "virt"}},
        {"fog",
         {"sim", "kernels", "energy", "hw", "workload", "net",
          "balance", "node", "virt", "snapshot"}},
        // The distributed runtime drives fog systems over the
        // snapshot wire format; it sits at the very top of the DAG
        // and nothing in src/ may include it back.
        {"dist",
         {"sim", "kernels", "energy", "hw", "workload", "net",
          "balance", "node", "virt", "snapshot", "fog"}},
    };
    return table;
}

/**
 * Files allowed to seed an Rng from scratch: the generator itself
 * and FogSystem's per-chain fork loop.  Everything else must receive
 * a stream by value or fork one.
 */
const std::set<std::string> &
sanctionedSeedFiles()
{
    static const std::set<std::string> files = {
        "src/sim/rng.hh",
        "src/sim/rng.cc",
        "src/fog/fog_system.cc",
    };
    return files;
}

/**
 * Sink implementations: the files that *are* the sanctioned output
 * layer and therefore hold the only direct stream writes (R3).
 */
const std::set<std::string> &
sinkFiles()
{
    static const std::set<std::string> files = {
        "src/sim/logging.cc",   // inform/warn/panic stderr sink
        "bench/bench_util.hh",  // harness stdout/err sink + ResultSink
    };
    return files;
}

// ------------------------------------------------------- path analysis

/** "src/fog/chain_engine.cc" -> "fog"; "" when not under src/. */
std::string
srcLayerOf(const std::string &rel_path)
{
    if (!startsWith(rel_path, "src/"))
        return {};
    const std::size_t start = 4;
    const std::size_t slash = rel_path.find('/', start);
    if (slash == std::string::npos)
        return {};
    return rel_path.substr(start, slash - start);
}

// ---------------------------------------------------------- rule passes

struct PendingFinding {
    int line;
    Rule rule;
    std::string message;
};

/** Regex-ban description: pattern plus the message shown on a hit. */
struct TokenBan {
    std::regex pattern;
    const char *what;
};

const std::vector<TokenBan> &
determinismBans()
{
    // Word boundaries keep `airtime(` / `snprintf(` etc. clean.
    static const std::vector<TokenBan> bans = [] {
        std::vector<TokenBan> v;
        auto add = [&v](const char *re, const char *what) {
            v.push_back({std::regex(re), what});
        };
        add(R"(\brand\s*\()", "rand()");
        add(R"(\bsrand\s*\()", "srand()");
        add(R"(\brandom_device\b)", "std::random_device");
        add(R"(\btime\s*\()", "time()");
        add(R"(\bclock\s*\()", "clock()");
        add(R"(\bsystem_clock\b)", "std::chrono::system_clock");
        add(R"(\bhigh_resolution_clock\b)",
            "std::chrono::high_resolution_clock");
        add(R"(\bthis_thread\s*::\s*get_id\b)",
            "std::this_thread::get_id()");
        add(R"(\bpthread_self\s*\()", "pthread_self()");
        add(R"(\bgettid\s*\()", "gettid()");
        return v;
    }();
    return bans;
}

const std::vector<TokenBan> &
observabilityBans()
{
    static const std::vector<TokenBan> bans = [] {
        std::vector<TokenBan> v;
        auto add = [&v](const char *re, const char *what) {
            v.push_back({std::regex(re), what});
        };
        add(R"(\bcout\b)", "std::cout");
        add(R"(\bcerr\b)", "std::cerr");
        add(R"(\bclog\b)", "std::clog");
        // \bprintf does not match snprintf/fprintf (word chars on
        // both sides of the boundary), so each spelling is explicit.
        add(R"(\bprintf\s*\()", "printf()");
        add(R"(\bfprintf\s*\()", "fprintf()");
        add(R"(\bvprintf\s*\()", "vprintf()");
        add(R"(\bputs\s*\()", "puts()");
        add(R"(\bfputs\s*\()", "fputs()");
        add(R"(\bputchar\s*\()", "putchar()");
        add(R"(\bfputc\s*\()", "fputc()");
        return v;
    }();
    return bans;
}

/** R1b: `Rng name(args)` or `Rng(args)` with a non-empty seed. */
bool
seedsRng(const std::string &code)
{
    if (code.find("Rng") == std::string::npos)
        return false;
    // Forking an existing stream is the sanctioned mechanism.
    if (code.find(".fork(") != std::string::npos)
        return false;
    static const std::regex direct(R"(\bRng\s*\(\s*[^)\s])");
    static const std::regex named(
        R"(\bRng\s+[A-Za-z_]\w*\s*\(\s*[^)\s])");
    return std::regex_search(code, direct) ||
           std::regex_search(code, named);
}

/** R2: first path component of a local include, "" if none. */
std::string
includeTarget(const std::string &code, std::string &full)
{
    static const std::regex re(R"(^\s*#\s*include\s*\"([^\"]+)\")");
    std::smatch m;
    if (!std::regex_search(code, m, re))
        return {};
    full = m[1];
    const std::size_t slash = full.find('/');
    if (slash == std::string::npos)
        return full; // unqualified — caller decides
    return full.substr(0, slash);
}

// Note: #include lines are parsed from the raw line text (their
// quoted path is a string literal, blanked in `code`).

struct FileScope {
    bool checkDeterminism = false; ///< R1 token bans
    bool checkSeeding = false;     ///< R1b Rng construction
    bool checkLayering = false;    ///< R2
    bool checkObservability = false; ///< R3
    bool checkHygiene = false;     ///< R4 (headers)
    std::string layer;             ///< src/ subsystem, if any
};

/**
 * Decide which rules apply to a path.  `src/` gets everything;
 * `bench/` gets R1 tokens + R3 (its harnesses must stay deterministic
 * and route text through bench_util's sink); `examples/` are
 * application code — stdout is their user interface and picking seeds
 * is their prerogative — so only R4 applies there.
 */
FileScope
scopeOf(const std::string &rel_path)
{
    FileScope s;
    s.layer = srcLayerOf(rel_path);
    const bool in_src = startsWith(rel_path, "src/");
    const bool in_bench = startsWith(rel_path, "bench/");
    const bool in_examples = startsWith(rel_path, "examples/");
    const bool sink = sinkFiles().count(rel_path) > 0;
    const bool seeder = sanctionedSeedFiles().count(rel_path) > 0;
    if (in_src) {
        s.checkDeterminism = true;
        s.checkSeeding = !seeder;
        s.checkLayering = !s.layer.empty();
        s.checkObservability = !sink;
        s.checkHygiene = true;
    } else if (in_bench) {
        s.checkDeterminism = true;
        s.checkObservability = !sink;
        s.checkHygiene = true;
    } else if (in_examples) {
        s.checkHygiene = true;
    }
    return s;
}

/** JSON string escaping (control chars, quotes, backslashes). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * GitHub workflow-command data escaping: % first, then newlines
 * (https://docs.github.com/actions "workflow commands" grammar).
 */
std::string
githubEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '%': out += "%25"; break;
        case '\r': out += "%0D"; break;
        case '\n': out += "%0A"; break;
        default: out += c;
        }
    }
    return out;
}

} // namespace

// ------------------------------------------------------------- public

const char *
ruleId(Rule rule)
{
    return kRuleIds[static_cast<int>(rule)];
}

const char *
ruleName(Rule rule)
{
    return kRuleNames[static_cast<int>(rule)];
}

bool
ruleFromName(const std::string &name, Rule &out)
{
    for (int i = 0; i < kRuleCount; ++i) {
        if (name == kRuleNames[i]) {
            out = static_cast<Rule>(i);
            return true;
        }
    }
    return false;
}

bool
projectRule(Rule rule)
{
    return static_cast<int>(rule) >=
           static_cast<int>(Rule::Snapshot);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".hpp") ||
           endsWith(path, ".h");
}

bool
lintableFile(const std::string &rel_path)
{
    return endsWith(rel_path, ".cc") || endsWith(rel_path, ".cpp") ||
           endsWith(rel_path, ".cxx") || isHeaderPath(rel_path);
}

// ------------------------------------- comment/string/trailer scanning

LineScan
scanLine(const std::string &line, ScanState &state)
{
    LineScan out;
    out.code.assign(line.size(), ' ');
    out.full.assign(line.size(), ' ');
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (i < n) {
        if (state.inBlockComment) {
            const std::size_t end = line.find("*/", i);
            const std::size_t stop =
                end == std::string::npos ? n : end;
            out.comment.append(line, i, stop - i);
            if (end == std::string::npos)
                return out;
            state.inBlockComment = false;
            i = end + 2;
            continue;
        }
        if (state.inRawString) {
            const std::size_t end = line.find(state.rawDelimiter, i);
            if (end == std::string::npos)
                return out;
            state.inRawString = false;
            i = end + state.rawDelimiter.size();
            continue;
        }
        const char c = line[i];
        if (c == '/' && i + 1 < n && line[i + 1] == '/') {
            out.comment.append(line, i + 2, n - i - 2);
            return out;
        }
        if (c == '/' && i + 1 < n && line[i + 1] == '*') {
            state.inBlockComment = true;
            i += 2;
            continue;
        }
        if (c == 'R' && i + 1 < n && line[i + 1] == '"' &&
            (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                            line[i - 1])) &&
                        line[i - 1] != '_'))) {
            const std::size_t paren = line.find('(', i + 2);
            if (paren != std::string::npos) {
                state.rawDelimiter =
                    ")" + line.substr(i + 2, paren - i - 2) + "\"";
                state.inRawString = true;
                const std::size_t end =
                    line.find(state.rawDelimiter, paren + 1);
                if (end != std::string::npos) {
                    state.inRawString = false;
                    i = end + state.rawDelimiter.size();
                } else {
                    return out;
                }
                continue;
            }
        }
        if (c == '\'' && i > 0 &&
            std::isdigit(static_cast<unsigned char>(line[i - 1]))) {
            // Digit separator (20'000), not a char literal.
            out.full[i] = c;
            ++i;
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            const std::size_t start = i;
            ++i;
            while (i < n) {
                if (line[i] == '\\')
                    i += 2;
                else if (line[i] == quote) {
                    ++i;
                    break;
                } else
                    ++i;
            }
            // Literal stays visible in `full` (content extraction);
            // `code` keeps the blanks.
            const std::size_t stop = std::min(i, n);
            for (std::size_t k = start; k < stop; ++k)
                out.full[k] = line[k];
            continue;
        }
        out.code[i] = c;
        out.full[i] = c;
        ++i;
    }
    return out;
}

Trailer
parseTrailer(const std::string &comment)
{
    Trailer t;
    const std::size_t at = comment.find("neofog-lint:");
    if (at == std::string::npos)
        return t;
    t.present = true;
    static const std::regex re(
        R"(neofog-lint:\s*allow\(([A-Za-z0-9_.]+)\)\s*:\s*(\S.*))");
    std::smatch m;
    if (!std::regex_search(comment, m, re))
        return t;
    t.ruleText = m[1];
    t.justification = m[2];
    // Accept both the short name ("determinism") and the full id
    // ("R1.determinism").
    std::string name = t.ruleText;
    const std::size_t dot = name.find('.');
    if (dot != std::string::npos)
        name = name.substr(dot + 1);
    if (!ruleFromName(name, t.rule))
        return t;
    t.wellFormed = true;
    return t;
}

void
lintFile(const std::string &rel_path, const std::string &content,
         Result &result)
{
    ++result.filesScanned;
    const FileScope scope = scopeOf(rel_path);

    std::vector<PendingFinding> pending;
    std::vector<std::pair<int, Trailer>> trailers; // line -> trailer

    bool sawPragmaOnce = false;
    std::string guardMacro;  // from #ifndef
    bool guardDefined = false;
    bool sawUsingNamespace = false;
    int usingNamespaceLine = 0;

    ScanState state;
    std::istringstream is(content);
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        const LineScan scan = scanLine(raw, state);
        const std::string &code = scan.code;

        const Trailer trailer = parseTrailer(scan.comment);
        if (trailer.present && !trailer.wellFormed) {
            pending.push_back(
                {lineno, Rule::Hygiene,
                 "malformed neofog-lint trailer (want "
                 "`neofog-lint: allow(<rule>): <justification>` "
                 "with a known rule and a non-empty justification)"});
        } else if (trailer.wellFormed) {
            trailers.emplace_back(lineno, trailer);
        }

        // --- R4: header hygiene bookkeeping -------------------------
        if (code.find("#pragma") != std::string::npos &&
            code.find("once") != std::string::npos)
            sawPragmaOnce = true;
        {
            static const std::regex ifndef_re(
                R"(^\s*#\s*ifndef\s+([A-Za-z_]\w*))");
            static const std::regex define_re(
                R"(^\s*#\s*define\s+([A-Za-z_]\w*))");
            std::smatch m;
            if (guardMacro.empty() &&
                std::regex_search(code, m, ifndef_re)) {
                guardMacro = m[1];
            } else if (!guardMacro.empty() && !guardDefined &&
                       std::regex_search(code, m, define_re) &&
                       m[1] == guardMacro) {
                guardDefined = true;
            }
        }
        {
            static const std::regex using_re(
                R"(\busing\s+namespace\b)");
            if (!sawUsingNamespace &&
                std::regex_search(code, using_re)) {
                sawUsingNamespace = true;
                usingNamespaceLine = lineno;
            }
        }

        // --- R1: determinism ---------------------------------------
        if (scope.checkDeterminism) {
            for (const TokenBan &ban : determinismBans()) {
                if (std::regex_search(code, ban.pattern)) {
                    pending.push_back(
                        {lineno, Rule::Determinism,
                         std::string("banned source of "
                                     "nondeterminism: ") +
                             ban.what});
                }
            }
        }
        if (scope.checkSeeding && seedsRng(code)) {
            pending.push_back(
                {lineno, Rule::Determinism,
                 "Rng seeded outside the sanctioned fork points "
                 "(receive a stream by value or fork an existing "
                 "one; see src/fog/fog_system.cc)"});
        }

        // --- R2: layer DAG -----------------------------------------
        if (scope.checkLayering) {
            std::string full;
            const std::string target = includeTarget(raw, full);
            if (!target.empty()) {
                if (full.find('/') == std::string::npos) {
                    pending.push_back(
                        {lineno, Rule::Layering,
                         "unqualified local include \"" + full +
                             "\" (use the layer-qualified path, "
                             "e.g. \"sim/types.hh\")"});
                } else {
                    const auto &table = layerTable();
                    const auto it = table.find(scope.layer);
                    const bool known_target =
                        table.count(target) > 0;
                    if (it != table.end() && known_target &&
                        target != scope.layer &&
                        it->second.count(target) == 0) {
                        pending.push_back(
                            {lineno, Rule::Layering,
                             "layer '" + scope.layer +
                                 "' must not include '" + full +
                                 "' (allowed: own layer + " +
                                 [&] {
                                     std::string s;
                                     for (const auto &a : it->second)
                                         s += a + " ";
                                     return s.empty()
                                         ? std::string("nothing")
                                         : s;
                                 }() +
                                 "— see the layer DAG in "
                                 "DESIGN.md)"});
                    }
                }
            }
        }

        // --- R3: observability -------------------------------------
        if (scope.checkObservability) {
            for (const TokenBan &ban : observabilityBans()) {
                if (std::regex_search(code, ban.pattern)) {
                    pending.push_back(
                        {lineno, Rule::Observability,
                         std::string("direct stream output (") +
                             ban.what +
                             ") in routed code; use report_io/"
                             "metrics/logging (src) or bench_util's "
                             "sink (bench)"});
                }
            }
        }
    }

    // --- R4: whole-file header checks ------------------------------
    if (scope.checkHygiene && isHeaderPath(rel_path)) {
        if (!sawPragmaOnce && !((!guardMacro.empty()) && guardDefined))
            pending.push_back(
                {1, Rule::Hygiene,
                 "header lacks an include guard "
                 "(#ifndef/#define pair or #pragma once)"});
        else if (!sawPragmaOnce && !guardMacro.empty() &&
                 !startsWith(guardMacro, "NEOFOG_"))
            pending.push_back(
                {1, Rule::Hygiene,
                 "include guard '" + guardMacro +
                     "' does not follow the NEOFOG_<PATH>_HH "
                     "convention"});
        if (sawUsingNamespace)
            pending.push_back(
                {usingNamespaceLine, Rule::Hygiene,
                 "`using namespace` in a header leaks into every "
                 "includer"});
    }

    // --- apply suppressions ----------------------------------------
    std::set<std::size_t> usedTrailers;
    for (const PendingFinding &f : pending) {
        bool suppressed = false;
        for (std::size_t t = 0; t < trailers.size(); ++t) {
            if (trailers[t].first == f.line &&
                trailers[t].second.rule == f.rule) {
                if (usedTrailers.insert(t).second) {
                    result.suppressions.push_back(
                        {rel_path, f.line, f.rule,
                         trailers[t].second.justification});
                }
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            result.findings.push_back(
                {rel_path, f.line, f.rule, f.message});
    }
    for (std::size_t t = 0; t < trailers.size(); ++t) {
        // R5-R8 trailers are settled by lintModel once the whole
        // model is collected — not "unused" just because the token
        // passes had nothing to suppress here.
        if (projectRule(trailers[t].second.rule))
            continue;
        if (usedTrailers.count(t) == 0) {
            result.findings.push_back(
                {rel_path, trailers[t].first, Rule::Hygiene,
                 std::string("unused suppression for ") +
                     ruleId(trailers[t].second.rule) +
                     " (nothing to allow on this line — delete "
                     "it)"});
        }
    }
}

int
exitCode(const Result &result)
{
    return result.findings.empty() ? 0 : 1;
}

void
printReport(const Result &result, std::ostream &os)
{
    for (const Finding &f : result.findings) {
        os << f.file << ":" << f.line << ": [" << ruleId(f.rule)
           << "] " << f.message << "\n";
    }
    int counts[kRuleCount] = {};
    for (const Finding &f : result.findings)
        ++counts[static_cast<int>(f.rule)];
    os << "\nneofog_lint: scanned " << result.filesScanned
       << " files: " << result.findings.size() << " violation(s)";
    if (!result.findings.empty()) {
        os << " (";
        bool first = true;
        for (int i = 0; i < kRuleCount; ++i) {
            if (counts[i] == 0)
                continue;
            if (!first)
                os << ", ";
            first = false;
            os << kRuleIds[i] << ": " << counts[i];
        }
        os << ")";
    }
    os << ", " << result.suppressions.size()
       << " suppression(s)\n";
    for (const Suppression &s : result.suppressions) {
        os << "  allowed " << ruleId(s.rule) << " at " << s.file
           << ":" << s.line << " — " << s.justification << "\n";
    }
}

void
printJson(const Result &result, std::ostream &os)
{
    os << "{\n"
       << "  \"schema\": \"neofog-lint-v1\",\n"
       << "  \"files_scanned\": " << result.filesScanned << ",\n"
       << "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        os << (i ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(f.file) << "\", \"line\": " << f.line
           << ", \"rule\": \"" << ruleId(f.rule)
           << "\", \"message\": \"" << jsonEscape(f.message)
           << "\"}";
    }
    os << (result.findings.empty() ? "" : "\n  ") << "],\n"
       << "  \"suppressions\": [";
    for (std::size_t i = 0; i < result.suppressions.size(); ++i) {
        const Suppression &s = result.suppressions[i];
        os << (i ? "," : "") << "\n    {\"file\": \""
           << jsonEscape(s.file) << "\", \"line\": " << s.line
           << ", \"rule\": \"" << ruleId(s.rule)
           << "\", \"justification\": \""
           << jsonEscape(s.justification) << "\"}";
    }
    os << (result.suppressions.empty() ? "" : "\n  ") << "]\n"
       << "}\n";
}

void
printGithub(const Result &result, std::ostream &os)
{
    for (const Finding &f : result.findings) {
        os << "::error file=" << githubEscape(f.file)
           << ",line=" << f.line << ",title=" << ruleId(f.rule)
           << "::" << githubEscape(f.message) << "\n";
    }
    os << "neofog_lint: " << result.findings.size()
       << " violation(s), " << result.suppressions.size()
       << " suppression(s) across " << result.filesScanned
       << " file(s)\n";
}

void
printRules(std::ostream &os)
{
    os << "neofog_lint rules:\n"
       << "  R1.determinism   no rand()/random_device/time()/wall "
          "clocks/thread ids; no Rng\n"
       << "                   seeding outside the sanctioned fork "
          "points (src/, tokens also in bench/)\n"
       << "  R2.layering      src/ includes must follow the layer "
          "DAG: sim -> {hw, energy,\n"
       << "                   workload} -> {node, net, balance} -> "
          "{fog, virt}; snapshot may\n"
       << "                   include everything below fog, only fog "
          "includes snapshot (refined\n"
       << "                   per-dir allowlist; see DESIGN.md)\n"
       << "  R3.observability no direct stdout/stderr writes in src/ "
          "or bench/; route through\n"
       << "                   report_io/metrics/logging or "
          "bench_util's sink\n"
       << "  R4.hygiene       headers need NEOFOG_* include guards "
          "(or #pragma once) and must\n"
       << "                   not say `using namespace`; "
          "suppressions must parse and be used\n"
       << "  R5.snapshot      every data member of a struct with "
          "serialize(Archive&) is\n"
       << "                   referenced inside it (const/reference "
          "members and registry-walked\n"
       << "                   bodies exempt); scratch/derived fields "
          "need allow(snapshot)\n"
       << "  R6.metric        every member of a MetricRegistry-backed "
          "report struct appears as\n"
       << "                   a &Report::member MetricDef\n"
       << "  R7.registry      every ParamSpec a policy registers is "
          "read in its builder\n"
       << "                   (p.i/p.d/p.b) and carries non-empty "
          "docs\n"
       << "  R8.global        no mutable namespace-scope/static-local/"
          "class-static state in\n"
       << "                   src/ (race + determinism hazard); "
          "sanctioned sinks allowlisted\n"
       << "Suppress one line: trailing "
          "`// neofog-lint: allow(<rule>): <justification>`\n";
}

} // namespace neofog::lint
