/**
 * @file
 * Declaration parser + semantic passes (R5-R8) of neofog_lint.
 *
 * collectFile walks a file's comment/string-stripped character stream
 * with a brace/statement machine: a scope stack (namespace / class /
 * function / skipped region) decides whether a terminated statement is
 * a data member, a mutable global, or noise, and serialize(Archive&)
 * bodies are captured verbatim for the coverage check.  Three
 * line-level side scans collect MetricRegistry member-pointer
 * declarations, PolicyRegistry add({...}) registrations, and R5-R8
 * suppression trailers.  lintModel then runs the cross-file rule
 * passes over the merged model.  See model.hh for the parser contract
 * and its known limits.
 */

#include "model.hh"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <regex>
#include <sstream>

#include "scan.hh"

namespace neofog::lint {

namespace {

// ------------------------------------------------------- text helpers

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Word-boundary containment of @p word in @p hay. */
bool
containsWord(const std::string &hay, const std::string &word)
{
    if (word.empty())
        return false;
    std::size_t at = 0;
    while ((at = hay.find(word, at)) != std::string::npos) {
        const bool left_ok = at == 0 || !isIdentChar(hay[at - 1]);
        const std::size_t end = at + word.size();
        const bool right_ok = end >= hay.size() ||
                              !isIdentChar(hay[end]);
        if (left_ok && right_ok)
            return true;
        at = end;
    }
    return false;
}

bool
startsWithWord(const std::string &s, const char *word)
{
    const std::string t = trim(s);
    const std::size_t n = std::char_traits<char>::length(word);
    return t.compare(0, n, word) == 0 &&
           (t.size() == n || !isIdentChar(t[n]));
}

/**
 * Position of the first top-level `=` (assignment / default-member
 * initializer), skipping ==, <=, >=, != and compound assignments.
 * npos when none.
 */
std::size_t
topLevelAssign(const std::string &s)
{
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '=')
            continue;
        if (i + 1 < s.size() && s[i + 1] == '=') {
            ++i; // ==
            continue;
        }
        if (i > 0 && std::string("=<>!+-*/%&|^").find(s[i - 1]) !=
                         std::string::npos)
            continue;
        return i;
    }
    return std::string::npos;
}

/** Declarator part of a statement: text before any initializer. */
std::string
declaratorOf(const std::string &stmt)
{
    const std::size_t eq = topLevelAssign(stmt);
    return eq == std::string::npos ? stmt : stmt.substr(0, eq);
}

/** Last identifier token of @p s (the declared name), "" if none. */
std::string
lastIdentifier(std::string s)
{
    // Arrays and bitfields declare before the bracket / colon.
    const std::size_t bracket = s.find('[');
    if (bracket != std::string::npos)
        s = s.substr(0, bracket);
    // Single-colon (bitfield) cut; `::` survives.
    for (std::size_t i = 1; i + 1 < s.size(); ++i) {
        if (s[i] == ':' && s[i - 1] != ':' && s[i + 1] != ':') {
            s = s.substr(0, i);
            break;
        }
    }
    std::size_t e = s.size();
    while (e > 0 && !isIdentChar(s[e - 1]))
        --e;
    std::size_t b = e;
    while (b > 0 && isIdentChar(s[b - 1]))
        --b;
    if (b == e)
        return {};
    const std::string name = s.substr(b, e - b);
    if (std::isdigit(static_cast<unsigned char>(name[0])))
        return {};
    return name;
}

bool
hasConstKeyword(const std::string &s)
{
    return containsWord(s, "const") || containsWord(s, "constexpr") ||
           containsWord(s, "constinit");
}

/** "src/fog/x.cc" -> true. */
bool
inSrc(const std::string &rel_path)
{
    return startsWith(rel_path, "src/");
}

// --------------------------------------------------- sanctioned sinks

/**
 * Tool-level allowlist of the mutable globals that ARE the sanctioned
 * mechanism (R8): each entry is printed as an honored suppression so
 * the inventory stays visible in every lint report.
 */
struct SanctionedGlobal {
    const char *file;
    const char *name;
    const char *why;
};

const std::vector<SanctionedGlobal> &
sanctionedGlobals()
{
    static const std::vector<SanctionedGlobal> list = {
        {"src/balance/policy_registry.cc", "reg",
         "process-wide policy registry singleton: initialized once "
         "under the magic-static lock, read-only during simulation"},
    };
    return list;
}

// ------------------------------------------------------- line scanning

struct ScannedLine {
    std::string code; ///< strings blanked
    std::string full; ///< strings kept
};

std::vector<ScannedLine>
scanAll(const std::string &rel_path, const std::string &content,
        Model &model)
{
    std::vector<ScannedLine> lines;
    ScanState state;
    std::istringstream is(content);
    std::string raw;
    int lineno = 0;
    while (std::getline(is, raw)) {
        ++lineno;
        if (!raw.empty() && raw.back() == '\r')
            raw.pop_back();
        LineScan scan = scanLine(raw, state);
        const Trailer t = parseTrailer(scan.comment);
        if (t.wellFormed && projectRule(t.rule))
            model.trailers.push_back(
                {rel_path, lineno, t.rule, t.justification});
        lines.push_back({std::move(scan.code), std::move(scan.full)});
    }
    return lines;
}

// -------------------------------------------- statement/scope machine

struct Scope {
    enum Kind { Ns, Cls, Fn, Skip } kind = Ns;
    int structIdx = -1;    ///< Cls: index into out-structs
    bool preserveStmt = false; ///< Skip: initializer, keep statement
};

/** Strip leading access labels (`public:` ...) off a class statement. */
std::string
stripAccessLabels(std::string s)
{
    static const std::regex label(
        R"(^\s*(public|private|protected)\s*:)");
    std::smatch m;
    while (std::regex_search(s, m, label))
        s = m.suffix();
    return s;
}

/** Struct/class head: extract the declared name, "" if not a head. */
std::string
structHeadName(const std::string &stmt)
{
    std::string s = trim(stmt);
    static const std::regex tmpl(R"(^template\s*<[^>]*>\s*)");
    std::smatch m;
    if (std::regex_search(s, m, tmpl))
        s = m.suffix();
    static const std::regex head(
        R"(^(struct|class)\s+([A-Za-z_]\w*))");
    if (!std::regex_search(s, m, head))
        return {};
    return m[2];
}

/**
 * The declaration walk: structs + members + serialize bodies, mutable
 * globals/statics.  Works on the strings-blanked stream.
 */
void
walkDeclarations(const std::string &rel_path,
                 const std::vector<ScannedLine> &lines, Model &model)
{
    std::vector<Scope> st; // implicit outermost namespace scope
    st.push_back({Scope::Ns, -1, false});

    std::vector<StructDecl> structs;

    std::string stmt;
    int stmtLine = 0;
    bool captureActive = false;
    std::size_t captureDepth = 0; // st.size() while body is open
    int captureStruct = -1;

    auto appendCapture = [&](char c) {
        if (captureActive && captureStruct >= 0)
            structs[static_cast<std::size_t>(captureStruct)]
                .serializeBody += c;
    };

    auto clearStmt = [&] {
        stmt.clear();
        stmtLine = 0;
    };

    auto finalizeStmt = [&](int /*lineno*/) {
        const Scope &top = st.back();
        std::string text = top.kind == Scope::Cls
                               ? stripAccessLabels(stmt)
                               : stmt;
        const std::string trimmed = trim(text);
        if (trimmed.empty()) {
            clearStmt();
            return;
        }
        const std::string decl = declaratorOf(text);
        const bool looks_function =
            decl.find('(') != std::string::npos;
        const bool keyworded =
            startsWithWord(text, "using") ||
            startsWithWord(text, "typedef") ||
            startsWithWord(text, "friend") ||
            startsWithWord(text, "struct") ||
            startsWithWord(text, "class") ||
            startsWithWord(text, "enum") ||
            startsWithWord(text, "union") ||
            startsWithWord(text, "namespace") ||
            startsWithWord(text, "template") ||
            startsWithWord(text, "extern") ||
            startsWithWord(text, "static_assert") ||
            startsWithWord(text, "goto") ||
            containsWord(text, "operator");
        if (top.kind == Scope::Cls && top.structIdx >= 0) {
            if (!keyworded && !looks_function) {
                if (startsWithWord(text, "static")) {
                    // Class-static data member: global state, not
                    // per-instance (so not an R5 member).
                    if (!hasConstKeyword(decl)) {
                        const std::string name =
                            lastIdentifier(decl);
                        if (!name.empty())
                            model.globals.push_back(
                                {name, rel_path, stmtLine,
                                 GlobalDecl::ClassStatic});
                    }
                } else {
                    const std::string name = lastIdentifier(decl);
                    if (!name.empty()) {
                        MemberDecl m;
                        m.name = name;
                        m.line = stmtLine;
                        m.constOrRef =
                            hasConstKeyword(decl) ||
                            decl.find('&') != std::string::npos;
                        structs[static_cast<std::size_t>(
                                    top.structIdx)]
                            .members.push_back(std::move(m));
                    }
                }
            }
        } else if (top.kind == Scope::Ns) {
            if (!keyworded && !looks_function &&
                !hasConstKeyword(decl)) {
                // Require a plausible declaration: at least a type
                // token and a name token.
                const std::string name = lastIdentifier(decl);
                std::istringstream ts(trim(decl));
                std::string tok;
                int tokens = 0;
                while (ts >> tok)
                    ++tokens;
                if (!name.empty() && tokens >= 2)
                    model.globals.push_back(
                        {name, rel_path, stmtLine,
                         GlobalDecl::NamespaceScope});
            }
        } else if (top.kind == Scope::Fn) {
            if (startsWithWord(text, "static") &&
                !hasConstKeyword(decl) && !looks_function) {
                const std::string name = lastIdentifier(decl);
                if (!name.empty())
                    model.globals.push_back(
                        {name, rel_path, stmtLine,
                         GlobalDecl::StaticLocal});
            }
        }
        clearStmt();
    };

    auto enclosingStructName = [&](const std::string &name) {
        for (auto it = st.rbegin(); it != st.rend(); ++it) {
            if (it->kind == Scope::Cls && it->structIdx >= 0)
                return structs[static_cast<std::size_t>(
                                   it->structIdx)]
                           .name +
                       "::" + name;
        }
        return name;
    };

    static const std::regex serializeSig(
        R"(\bserialize\s*\(\s*Archive\s*&)");

    int lineno = 0;
    for (const ScannedLine &line : lines) {
        ++lineno;
        const std::string &code = line.code;
        if (trim(code).empty())
            continue;
        if (trim(code)[0] == '#')
            continue; // preprocessor: R2 handles includes
        for (std::size_t i = 0; i < code.size(); ++i) {
            const char c = code[i];
            if (captureActive)
                appendCapture(c);
            if (st.back().kind == Scope::Skip) {
                if (c == '{') {
                    // Nested braces inherit the preserve flag so a
                    // deep initializer cannot clear its statement.
                    st.push_back(
                        {Scope::Skip, -1, st.back().preserveStmt});
                } else if (c == '}') {
                    const bool preserved = st.back().preserveStmt;
                    st.pop_back();
                    if (!preserved)
                        clearStmt();
                    if (captureActive &&
                        st.size() < captureDepth) {
                        captureActive = false;
                        captureStruct = -1;
                    }
                }
                continue;
            }
            if (c == '{') {
                const std::string t = trim(stmt);
                const std::string headName = structHeadName(stmt);
                const bool initList =
                    !t.empty() &&
                    (t.back() == '=' || t.back() == ',' ||
                     t.back() == '(' || t.back() == '[' ||
                     endsWith(t, "return") ||
                     topLevelAssign(t) != std::string::npos);
                if (initList) {
                    st.push_back({Scope::Skip, -1, true});
                } else if (startsWithWord(t, "enum") ||
                           startsWithWord(t, "union")) {
                    st.push_back({Scope::Skip, -1, false});
                    clearStmt();
                } else if (!headName.empty()) {
                    StructDecl s;
                    s.name = enclosingStructName(headName);
                    s.file = rel_path;
                    s.line = stmtLine ? stmtLine : lineno;
                    structs.push_back(std::move(s));
                    st.push_back(
                        {Scope::Cls,
                         static_cast<int>(structs.size()) - 1,
                         false});
                    clearStmt();
                } else if (startsWithWord(t, "namespace") ||
                           startsWithWord(t, "extern")) {
                    st.push_back({Scope::Ns, -1, false});
                    clearStmt();
                } else if (t.find('(') != std::string::npos) {
                    // A copy: the push_back below may reallocate st.
                    const Scope top = st.back();
                    const bool is_serialize =
                        top.kind == Scope::Cls &&
                        top.structIdx >= 0 &&
                        std::regex_search(stmt, serializeSig);
                    st.push_back({Scope::Fn, -1, false});
                    if (is_serialize) {
                        StructDecl &owner =
                            structs[static_cast<std::size_t>(
                                top.structIdx)];
                        owner.hasSerialize = true;
                        if (owner.serializeLine == 0)
                            owner.serializeLine =
                                stmtLine ? stmtLine : lineno;
                        owner.serializeBody += ' ';
                        captureActive = true;
                        captureStruct = top.structIdx;
                        captureDepth = st.size();
                    }
                    clearStmt();
                } else if (st.back().kind == Scope::Cls) {
                    // Member brace-initializer: Type name{...};
                    st.push_back({Scope::Skip, -1, true});
                } else {
                    st.push_back({Scope::Skip, -1, true});
                }
            } else if (c == '}') {
                if (st.size() > 1)
                    st.pop_back();
                clearStmt();
                if (captureActive && st.size() < captureDepth) {
                    captureActive = false;
                    captureStruct = -1;
                }
            } else if (c == ';') {
                finalizeStmt(lineno);
            } else {
                if (trim(stmt).empty()) {
                    if (std::isspace(static_cast<unsigned char>(c)))
                        continue;
                    stmt.clear(); // drop accumulated whitespace
                    stmtLine = lineno;
                }
                stmt += c;
                // An access label is not part of the following
                // member statement (it would skew its line number).
                if (c == ':' && st.back().kind == Scope::Cls) {
                    const std::string t = trim(stmt);
                    if (t == "public:" || t == "private:" ||
                        t == "protected:")
                        clearStmt();
                }
            }
        }
        stmt += ' '; // line break separates tokens
        if (captureActive)
            appendCapture(' ');
    }

    for (StructDecl &s : structs)
        model.structs.push_back(std::move(s));
}

// ------------------------------------- MetricRegistry reference scan

void
scanMetricRefs(const std::string & /*rel_path*/,
               const std::vector<ScannedLine> &lines, Model &model)
{
    bool mentions_registry = false;
    for (const ScannedLine &l : lines) {
        if (l.code.find("MetricRegistry<") != std::string::npos) {
            mentions_registry = true;
            break;
        }
    }
    if (!mentions_registry)
        return;

    static const std::regex registry_re(
        R"(MetricRegistry<\s*([A-Za-z_]\w*)\s*>)");
    static const std::regex tparam_re(
        R"((class|typename)\s+([A-Za-z_]\w*))");
    static const std::regex tmpl_re(R"(template\s*<([^>]*)>)");
    static const std::regex alias_re(
        R"(\busing\s+([A-Za-z_]\w*)\s*=\s*([A-Za-z_][\w:]*))");
    static const std::regex memref_re(
        R"(&\s*([A-Za-z_]\w*)\s*::\s*([A-Za-z_]\w*))");

    std::set<std::string> template_params;
    std::map<std::string, std::string> aliases;
    std::set<std::string> registry_names;
    std::vector<std::pair<std::string, std::string>> refs;

    for (const ScannedLine &l : lines) {
        const std::string &code = l.code;
        auto begin = std::sregex_iterator(code.begin(), code.end(),
                                          tmpl_re);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string params = (*it)[1];
            auto pb = std::sregex_iterator(params.begin(),
                                           params.end(), tparam_re);
            for (auto pit = pb; pit != std::sregex_iterator(); ++pit)
                template_params.insert((*pit)[2]);
        }
        auto rb = std::sregex_iterator(code.begin(), code.end(),
                                       registry_re);
        for (auto it = rb; it != std::sregex_iterator(); ++it)
            registry_names.insert((*it)[1]);
        std::smatch m;
        std::string rest = code;
        while (std::regex_search(rest, m, alias_re)) {
            std::string target = m[2];
            const std::size_t colons = target.rfind("::");
            if (colons != std::string::npos)
                target = target.substr(colons + 2);
            aliases[m[1]] = target;
            rest = m.suffix();
        }
        auto mb = std::sregex_iterator(code.begin(), code.end(),
                                       memref_re);
        for (auto it = mb; it != std::sregex_iterator(); ++it)
            refs.emplace_back((*it)[1], (*it)[2]);
    }

    for (const std::string &name : registry_names) {
        if (template_params.count(name) == 0)
            model.reportStructs.insert(name);
    }
    for (const auto &[qual, member] : refs) {
        const auto alias = aliases.find(qual);
        const std::string resolved =
            alias == aliases.end() ? qual : alias->second;
        model.metricRefs[resolved].insert(member);
    }
}

// ------------------------------------ PolicyRegistry add({...}) scan

/** Map a region offset back to its 1-based source line. */
int
lineOfOffset(const std::vector<std::pair<int, std::size_t>> &map,
             std::size_t offset)
{
    int line = map.empty() ? 0 : map.front().first;
    for (const auto &[lineno, start] : map) {
        if (start > offset)
            break;
        line = lineno;
    }
    return line;
}

void
parsePolicyRegion(const std::string &rel_path,
                  const std::string &region_code,
                  const std::string &region_full,
                  const std::vector<std::pair<int, std::size_t>> &map,
                  Model &model)
{
    PolicyDecl policy;
    policy.file = rel_path;
    policy.line = map.empty() ? 0 : map.front().first;

    static const std::regex name_re(R"rx("([^"]*)")rx");
    std::smatch m;
    if (std::regex_search(region_full, m, name_re))
        policy.name = m[1];
    if (policy.name.empty())
        return; // not a braced PolicyInfo literal

    // Param entries: `{"key", ParamType::X, <default>[, "doc"]}`.
    static const std::regex param_re(
        R"rx(\{\s*"([A-Za-z0-9_]+)"\s*,\s*ParamType\s*::)rx");
    auto pb = std::sregex_iterator(region_full.begin(),
                                   region_full.end(), param_re);
    for (auto it = pb; it != std::sregex_iterator(); ++it) {
        ParamDecl param;
        param.name = (*it)[1];
        const auto entry_start =
            static_cast<std::size_t>(it->position(0));
        param.line = lineOfOffset(map, entry_start);
        // Find the matching close brace on the strings-blanked
        // stream, splitting top-level commas as we go.
        int depth = 0;
        std::vector<std::size_t> commas;
        std::size_t entry_end = region_code.size();
        for (std::size_t i = entry_start; i < region_code.size();
             ++i) {
            const char c = region_code[i];
            if (c == '{' || c == '(' || c == '[')
                ++depth;
            else if (c == '}' || c == ')' || c == ']') {
                --depth;
                if (depth == 0) {
                    entry_end = i;
                    break;
                }
            } else if (c == ',' && depth == 1) {
                commas.push_back(i);
            }
        }
        // Elements: 0 name, 1 type, 2 default, 3 doc.
        if (commas.size() >= 3) {
            const std::size_t doc_begin = commas[2] + 1;
            const std::string doc_text = region_full.substr(
                doc_begin, entry_end - doc_begin);
            static const std::regex nonempty_doc(
                R"("[^"]*[^\s"][^"]*")");
            param.hasDoc =
                std::regex_search(doc_text, nonempty_doc);
        }
        policy.params.push_back(std::move(param));
    }

    static const std::regex read_re(
        R"rx(\.\s*([idb])\s*\(\s*"([A-Za-z0-9_]+)"\s*\))rx");
    auto rb = std::sregex_iterator(region_full.begin(),
                                   region_full.end(), read_re);
    for (auto it = rb; it != std::sregex_iterator(); ++it)
        policy.reads.insert((*it)[2]);

    model.policies.push_back(std::move(policy));
}

void
scanPolicies(const std::string &rel_path,
             const std::vector<ScannedLine> &lines, Model &model)
{
    static const std::regex add_open(R"(\badd\s*\(\s*\{)");
    for (std::size_t li = 0; li < lines.size(); ++li) {
        std::smatch m;
        const std::string &code = lines[li].code;
        if (!std::regex_search(code, m, add_open))
            continue;
        const std::size_t open_paren =
            static_cast<std::size_t>(m.position(0)) +
            m.str(0).find('(');
        // Capture until the '(' closes, joining lines with '\n'.
        std::string region_code;
        std::string region_full;
        std::vector<std::pair<int, std::size_t>> map;
        int depth = 0;
        bool done = false;
        for (std::size_t lj = li; lj < lines.size() && !done; ++lj) {
            const std::string &lc = lines[lj].code;
            const std::string &lf = lines[lj].full;
            const std::size_t start =
                lj == li ? open_paren : std::size_t{0};
            map.emplace_back(static_cast<int>(lj) + 1,
                             region_code.size());
            for (std::size_t i = start; i < lc.size(); ++i) {
                region_code += lc[i];
                region_full += i < lf.size() ? lf[i] : ' ';
                if (lc[i] == '(')
                    ++depth;
                else if (lc[i] == ')') {
                    --depth;
                    if (depth == 0) {
                        done = true;
                        break;
                    }
                }
            }
            region_code += '\n';
            region_full += '\n';
        }
        parsePolicyRegion(rel_path, region_code, region_full, map,
                          model);
    }
}

// ----------------------------------------------------- pass helpers

/** Last "::" component of a qualified struct name. */
std::string
unqualified(const std::string &name)
{
    const std::size_t at = name.rfind("::");
    return at == std::string::npos ? name : name.substr(at + 2);
}

/**
 * Trailer consumption: the first matching trailer is marked used and
 * recorded as a suppression once; later findings on the same line and
 * rule reuse it (a line can hold only one trailer, and R7 can raise
 * two findings on one param line).
 */
struct TrailerLedger {
    const Model &model;
    std::vector<char> used;
    explicit TrailerLedger(const Model &m)
        : model(m), used(m.trailers.size(), 0)
    {}

    bool
    consume(const std::string &file, int line, Rule rule,
            Result &result)
    {
        for (std::size_t i = 0; i < model.trailers.size(); ++i) {
            const ModelTrailer &t = model.trailers[i];
            if (t.file != file || t.line != line || t.rule != rule)
                continue;
            if (!used[i]) {
                used[i] = 1;
                result.suppressions.push_back(
                    {t.file, t.line, t.rule, t.justification});
            }
            return true;
        }
        return false;
    }
};

} // namespace

// ------------------------------------------------------------- public

void
collectFile(const std::string &rel_path, const std::string &content,
            Model &model)
{
    ++model.filesCollected;
    std::vector<ScannedLine> lines =
        scanAll(rel_path, content, model);
    if (!inSrc(rel_path))
        return; // trailers recorded above; declarations are src-only
    walkDeclarations(rel_path, lines, model);
    scanMetricRefs(rel_path, lines, model);
    scanPolicies(rel_path, lines, model);
}

void
lintModel(const Model &model, Result &result)
{
    TrailerLedger ledger(model);

    // --- R5: snapshot coverage ---------------------------------
    static const std::regex registry_walk(R"(\bmetrics\s*\(\s*\))");
    for (const StructDecl &s : model.structs) {
        if (!s.hasSerialize)
            continue;
        // Registry-walked serialize (e.g. SystemReport) archives
        // whatever the MetricRegistry declares: member coverage is
        // R6's job there.
        if (std::regex_search(s.serializeBody, registry_walk))
            continue;
        for (const MemberDecl &m : s.members) {
            if (m.constOrRef)
                continue; // construction-derived by type
            if (containsWord(s.serializeBody, m.name))
                continue;
            if (ledger.consume(s.file, m.line, Rule::Snapshot,
                               result))
                continue;
            result.findings.push_back(
                {s.file, m.line, Rule::Snapshot,
                 "unserialized member '" + m.name + "' of '" +
                     s.name +
                     "': not referenced in serialize() — archive "
                     "it, or mark it scratch/derived with "
                     "allow(snapshot)"});
        }
    }

    // --- R6: metric coverage -----------------------------------
    for (const StructDecl &s : model.structs) {
        const std::string plain = unqualified(s.name);
        if (model.reportStructs.count(plain) == 0)
            continue;
        const auto refs = model.metricRefs.find(plain);
        for (const MemberDecl &m : s.members) {
            if (refs != model.metricRefs.end() &&
                refs->second.count(m.name))
                continue;
            if (ledger.consume(s.file, m.line, Rule::Metric, result))
                continue;
            result.findings.push_back(
                {s.file, m.line, Rule::Metric,
                 "report member '" + m.name + "' of '" + plain +
                     "' has no MetricDef: declare it (&" + plain +
                     "::" + m.name +
                     ") in the MetricRegistry list, or justify "
                     "with allow(metric)"});
        }
    }

    // --- R7: registry coverage ---------------------------------
    for (const PolicyDecl &p : model.policies) {
        for (const ParamDecl &param : p.params) {
            if (p.reads.count(param.name) == 0 &&
                !ledger.consume(p.file, param.line, Rule::Registry,
                                result)) {
                result.findings.push_back(
                    {p.file, param.line, Rule::Registry,
                     "param '" + param.name + "' of policy '" +
                         p.name +
                         "' is declared but never read in its "
                         "builder (p.i/p.d/p.b) — dead knob or "
                         "typo"});
            }
            if (!param.hasDoc &&
                !ledger.consume(p.file, param.line, Rule::Registry,
                                result)) {
                result.findings.push_back(
                    {p.file, param.line, Rule::Registry,
                     "param '" + param.name + "' of policy '" +
                         p.name +
                         "' has empty docs — every ParamSpec "
                         "documents itself in --list-balancers"});
            }
        }
    }

    // --- R8: mutable global state ------------------------------
    for (const GlobalDecl &g : model.globals) {
        bool sanctioned = false;
        for (const SanctionedGlobal &s : sanctionedGlobals()) {
            if (g.file == s.file && g.name == s.name) {
                result.suppressions.push_back(
                    {g.file, g.line, Rule::Global,
                     std::string("[tool allowlist] ") + s.why});
                sanctioned = true;
                break;
            }
        }
        if (sanctioned)
            continue;
        if (ledger.consume(g.file, g.line, Rule::Global, result))
            continue;
        const char *kind =
            g.kind == GlobalDecl::NamespaceScope
                ? "namespace-scope"
                : g.kind == GlobalDecl::StaticLocal
                      ? "function-local static"
                      : "class-static";
        result.findings.push_back(
            {g.file, g.line, Rule::Global,
             std::string("mutable ") + kind + " state '" + g.name +
                 "' is a race/determinism hazard under "
                 "chain-parallel execution — make it "
                 "const/constexpr, move it into per-chain state, "
                 "or justify with allow(global)"});
    }

    // --- unused R5-R8 trailers ---------------------------------
    for (std::size_t i = 0; i < model.trailers.size(); ++i) {
        if (ledger.used[i])
            continue;
        const ModelTrailer &t = model.trailers[i];
        result.findings.push_back(
            {t.file, t.line, Rule::Hygiene,
             std::string("unused suppression for ") +
                 ruleId(t.rule) +
                 " (nothing to allow on this line — delete it)"});
    }
}

} // namespace neofog::lint
