/**
 * @file
 * neofog_lint engine tests: every fixture under tests/lint_fixtures/
 * must be classified with the right rule ids and exit code, the
 * suppression-trailer grammar must be enforced (justification
 * required, unused trailers flagged), and the token passes must
 * ignore comments and string literals.
 *
 * Fixtures are linted under their path *relative to the fixture
 * root*, so a file stored at lint_fixtures/src/sim/foo.cc is judged
 * exactly as src/sim/foo.cc would be; the fixtures are never
 * compiled.
 */

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "lint.hh"
#include "model.hh"

using neofog::lint::Finding;
using neofog::lint::Model;
using neofog::lint::Result;
using neofog::lint::Rule;

namespace {

/** Read a fixture file's text, failing the test if it is missing. */
std::string
fixtureText(const std::string &rel_path)
{
    const std::string full =
        std::string(NEOFOG_LINT_FIXTURE_DIR) + "/" + rel_path;
    std::ifstream is(full);
    EXPECT_TRUE(is.good()) << "missing fixture " << full;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** Lint one fixture file under its logical repo-relative path. */
Result
lintFixture(const std::string &rel_path)
{
    Result result;
    neofog::lint::lintFile(rel_path, fixtureText(rel_path), result);
    return result;
}

/** Run the semantic passes (R5-R8) over one or more fixtures. */
Result
lintSemanticFixtures(std::initializer_list<std::string> rel_paths)
{
    Model model;
    Result result;
    for (const std::string &rel : rel_paths)
        neofog::lint::collectFile(rel, fixtureText(rel), model);
    neofog::lint::lintModel(model, result);
    return result;
}

/** First finding message for a rule, "" when none. */
std::string
messageOf(const Result &r, Rule rule)
{
    for (const Finding &f : r.findings)
        if (f.rule == rule)
            return f.message;
    return {};
}

int
countRule(const Result &r, Rule rule)
{
    return static_cast<int>(std::count_if(
        r.findings.begin(), r.findings.end(),
        [rule](const Finding &f) { return f.rule == rule; }));
}

bool
hasFindingAtLine(const Result &r, Rule rule, int line)
{
    return std::any_of(r.findings.begin(), r.findings.end(),
                       [rule, line](const Finding &f) {
                           return f.rule == rule && f.line == line;
                       });
}

} // namespace

TEST(LintRules, IdsAndNamesRoundTrip)
{
    EXPECT_STREQ(ruleId(Rule::Determinism), "R1.determinism");
    EXPECT_STREQ(ruleId(Rule::Layering), "R2.layering");
    EXPECT_STREQ(ruleId(Rule::Observability), "R3.observability");
    EXPECT_STREQ(ruleId(Rule::Hygiene), "R4.hygiene");
    EXPECT_STREQ(ruleId(Rule::Snapshot), "R5.snapshot");
    EXPECT_STREQ(ruleId(Rule::Metric), "R6.metric");
    EXPECT_STREQ(ruleId(Rule::Registry), "R7.registry");
    EXPECT_STREQ(ruleId(Rule::Global), "R8.global");
    for (Rule rule : {Rule::Determinism, Rule::Layering,
                      Rule::Observability, Rule::Hygiene,
                      Rule::Snapshot, Rule::Metric, Rule::Registry,
                      Rule::Global}) {
        Rule parsed = Rule::Hygiene;
        EXPECT_TRUE(
            neofog::lint::ruleFromName(ruleName(rule), parsed));
        EXPECT_EQ(parsed, rule);
    }
    Rule dummy;
    EXPECT_FALSE(neofog::lint::ruleFromName("notarule", dummy));
}

TEST(LintRules, LintableFileExtensions)
{
    EXPECT_TRUE(neofog::lint::lintableFile("src/sim/rng.cc"));
    EXPECT_TRUE(neofog::lint::lintableFile("bench/scale_test.cpp"));
    EXPECT_TRUE(neofog::lint::lintableFile("src/sim/rng.hh"));
    EXPECT_FALSE(neofog::lint::lintableFile("README.md"));
    EXPECT_FALSE(neofog::lint::lintableFile("src/CMakeLists.txt"));
}

TEST(LintFixtures, R1DeterminismFlagsEveryAmbientSource)
{
    const Result r = lintFixture("src/sim/r1_determinism.cc");
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    // random_device, time(), system_clock, rand(), stray Rng seeding.
    EXPECT_GE(countRule(r, Rule::Determinism), 5);
    EXPECT_EQ(countRule(r, Rule::Layering), 0);
    EXPECT_EQ(countRule(r, Rule::Observability), 0);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 15));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 16));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 18));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 19));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 20));
}

TEST(LintFixtures, R2LayeringFlagsUpwardIncludesOnly)
{
    const Result r = lintFixture("src/energy/r2_layering.cc");
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Layering), 2);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Layering, 4)); // fog/
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Layering, 5)); // node/
    // Own-layer and sim/ includes stay clean.
    EXPECT_FALSE(hasFindingAtLine(r, Rule::Layering, 3));
    EXPECT_FALSE(hasFindingAtLine(r, Rule::Layering, 6));
}

TEST(LintFixtures, R3ObservabilityFlagsDirectStreams)
{
    const Result r = lintFixture("src/node/r3_observability.cc");
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Observability), 3);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Observability, 11));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Observability, 12));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Observability, 13));
}

TEST(LintFixtures, R4HygieneFlagsGuardAndNamespaceLeak)
{
    const Result r = lintFixture("src/net/r4_hygiene.hh");
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Hygiene), 2);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Hygiene, 1)); // no guard
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Hygiene, 6)); // using ns
}

TEST(LintFixtures, ValidSuppressionIsHonoredAndCounted)
{
    const Result r = lintFixture("src/virt/suppression_valid.cc");
    EXPECT_EQ(neofog::lint::exitCode(r), 0);
    EXPECT_TRUE(r.findings.empty());
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, Rule::Determinism);
    EXPECT_EQ(r.suppressions[0].line, 12);
    EXPECT_FALSE(r.suppressions[0].justification.empty());
}

TEST(LintFixtures, MalformedAndUnusedTrailersAreViolations)
{
    const Result r = lintFixture("src/virt/suppression_bad.cc");
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    // Justification-less trailer: the R1 hit survives AND the trailer
    // itself is a hygiene violation.
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Determinism, 12));
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Hygiene, 12));
    // Well-formed trailer with nothing to suppress: flagged unused.
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Hygiene, 13));
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintFixtures, CleanHeaderPassesAndDecoysAreIgnored)
{
    const Result r = lintFixture("src/sim/clean.hh");
    EXPECT_EQ(neofog::lint::exitCode(r), 0)
        << (r.findings.empty() ? "" : r.findings[0].message);
    EXPECT_TRUE(r.findings.empty());
    EXPECT_TRUE(r.suppressions.empty());
}

TEST(LintScopes, ExamplesMayPrintButHeadersStayGuarded)
{
    Result r;
    neofog::lint::lintFile("examples/demo.cpp",
                           "#include <cstdio>\n"
                           "int main() { std::printf(\"hi\\n\"); }\n",
                           r);
    EXPECT_TRUE(r.findings.empty()); // R3 does not apply to examples
    Result h;
    neofog::lint::lintFile("examples/demo_util.hh",
                           "using namespace std;\n", h);
    EXPECT_EQ(countRule(h, Rule::Hygiene), 2); // guard + namespace
}

TEST(LintScopes, BenchIsDeterminismAndObservabilityChecked)
{
    Result r;
    neofog::lint::lintFile(
        "bench/fake_bench.cpp",
        "#include <cstdio>\n"
        "int main() { std::printf(\"%d\\n\", std::rand()); }\n", r);
    EXPECT_EQ(countRule(r, Rule::Determinism), 1);
    EXPECT_EQ(countRule(r, Rule::Observability), 1);
    // steady_clock is the sanctioned way to time a bench.
    Result ok;
    neofog::lint::lintFile(
        "bench/timer.cpp",
        "auto t = std::chrono::steady_clock::now();\n", ok);
    EXPECT_TRUE(ok.findings.empty());
}

TEST(LintScopes, SinkFilesAreExemptFromObservability)
{
    Result r;
    neofog::lint::lintFile("src/sim/logging.cc",
                           "void f() { std::fprintf(stderr, "
                           "\"[warn]\\n\"); }\n",
                           r);
    EXPECT_EQ(countRule(r, Rule::Observability), 0);
    Result b;
    neofog::lint::lintFile("bench/bench_util.hh",
                           "#ifndef NEOFOG_BENCH_BENCH_UTIL_HH\n"
                           "#define NEOFOG_BENCH_BENCH_UTIL_HH\n"
                           "inline void out() { std::vfprintf(stdout,"
                           " 0, 0); }\n"
                           "#endif\n",
                           b);
    EXPECT_TRUE(b.findings.empty());
}

TEST(LintScopes, SanctionedSeedPointsMaySeed)
{
    Result r;
    neofog::lint::lintFile("src/fog/fog_system.cc",
                           "Rng root(cfg.seed ^ 0xF06F06ULL);\n", r);
    EXPECT_EQ(countRule(r, Rule::Determinism), 0);
    Result bad;
    neofog::lint::lintFile("src/fog/chain_engine.cc",
                           "Rng root(cfg.seed ^ 0xF06F06ULL);\n",
                           bad);
    EXPECT_EQ(countRule(bad, Rule::Determinism), 1);
    // The retired simulator context is no longer a fork point.
    Result retired;
    neofog::lint::lintFile("src/sim/simulator.hh",
                           "Rng root(seed);\n", retired);
    EXPECT_EQ(countRule(retired, Rule::Determinism), 1);
}

TEST(LintRules, GuardMustFollowNeofogConvention)
{
    Result r;
    neofog::lint::lintFile("src/net/odd_guard.hh",
                           "#ifndef SOME_OTHER_GUARD_H\n"
                           "#define SOME_OTHER_GUARD_H\n"
                           "#endif\n",
                           r);
    EXPECT_EQ(countRule(r, Rule::Hygiene), 1);
    Result p;
    neofog::lint::lintFile("src/net/pragma.hh", "#pragma once\n", p);
    EXPECT_TRUE(p.findings.empty());
}

TEST(LintScan, DigitSeparatorsDoNotSwallowCode)
{
    // A single separator must not open a char literal that hides the
    // rest of the line from the token passes.
    Result r;
    neofog::lint::lintFile("src/sim/sep.cc",
                           "void f() { g(1'000, time(nullptr)); }\n",
                           r);
    EXPECT_EQ(countRule(r, Rule::Determinism), 1);
}

// ------------------------------------------------- semantic passes

TEST(LintSemantic, R5SnapshotNamesTheUnserializedMember)
{
    const Result r = lintSemanticFixtures({"src/hw/r5_snapshot.hh"});
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Snapshot), 1);
    // The seeded mutation is reported with rule id, member name, and
    // file:line — not a bare sizeof mismatch.
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Snapshot, 24));
    const std::string msg = messageOf(r, Rule::Snapshot);
    EXPECT_NE(msg.find("_driftScratch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("DriftModel"), std::string::npos) << msg;
}

TEST(LintSemantic, R5ExemptsConstSuppressedAndRegistryWalked)
{
    const Result r =
        lintSemanticFixtures({"src/hw/r5_snapshot_ok.hh"});
    EXPECT_EQ(neofog::lint::exitCode(r), 0)
        << (r.findings.empty() ? "" : r.findings[0].message);
    // The allow(snapshot) on _memo is honored and counted.
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, Rule::Snapshot);
    EXPECT_FALSE(r.suppressions[0].justification.empty());
}

TEST(LintSemantic, R6MetricNamesTheUnregisteredReportMember)
{
    const Result r = lintSemanticFixtures({"src/fog/r6_metric.cc"});
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Metric), 1);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Metric, 13));
    const std::string msg = messageOf(r, Rule::Metric);
    EXPECT_NE(msg.find("stranded"), std::string::npos) << msg;
    EXPECT_NE(msg.find("MiniReport"), std::string::npos) << msg;
}

TEST(LintSemantic, R6ResolvesAliasesAcrossFiles)
{
    // The report struct lives in a header, the registry declaration
    // (with a `using R = ...` alias) in a .cc — the model joins them.
    Model m;
    Result r;
    neofog::lint::collectFile(
        "src/fog/rep.hh",
        "#ifndef NEOFOG_FOG_REP_HH\n#define NEOFOG_FOG_REP_HH\n"
        "struct Rep { unsigned a = 0; unsigned b = 0; };\n"
        "#endif\n",
        m);
    neofog::lint::collectFile(
        "src/fog/rep.cc",
        "#include \"fog/rep.hh\"\n"
        "using R = Rep;\n"
        "static const MetricRegistry<Rep> regy{{{\"a\", &R::a}}};\n",
        m);
    neofog::lint::lintModel(m, r);
    EXPECT_EQ(countRule(r, Rule::Metric), 1);
    const std::string msg = messageOf(r, Rule::Metric);
    EXPECT_NE(msg.find("'b'"), std::string::npos) << msg;
    EXPECT_EQ(r.findings[0].file, "src/fog/rep.hh");
}

TEST(LintSemantic, R6IgnoresTemplateParameterRegistries)
{
    // MetricRegistry<Report> where Report is a template parameter
    // (the registry's own header) must not create a report struct.
    Model m;
    Result r;
    neofog::lint::collectFile(
        "src/sim/metrics_like.hh",
        "#ifndef NEOFOG_SIM_METRICS_LIKE_HH\n"
        "#define NEOFOG_SIM_METRICS_LIKE_HH\n"
        "template <class Report> class MetricRegistry {};\n"
        "template <class Report>\n"
        "const MetricRegistry<Report> &get();\n"
        "struct Report { int x = 0; };\n"
        "#endif\n",
        m);
    neofog::lint::lintModel(m, r);
    EXPECT_EQ(countRule(r, Rule::Metric), 0)
        << messageOf(r, Rule::Metric);
}

TEST(LintSemantic, R7FlagsUnreadAndUndocumentedParams)
{
    const Result r =
        lintSemanticFixtures({"src/balance/r7_registry.cc"});
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Registry), 2);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Registry, 16)); // unread
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Registry, 18)); // no docs
    const std::string msg = messageOf(r, Rule::Registry);
    EXPECT_NE(msg.find("ghost_knob"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'fixture'"), std::string::npos) << msg;
}

TEST(LintSemantic, R8FlagsEveryMutableGlobalKind)
{
    const Result r = lintSemanticFixtures({"src/sim/r8_global.cc"});
    EXPECT_EQ(neofog::lint::exitCode(r), 1);
    EXPECT_EQ(countRule(r, Rule::Global), 4);
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Global, 8));  // ns-scope
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Global, 9));  // static ns
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Global, 15)); // class-static
    EXPECT_TRUE(hasFindingAtLine(r, Rule::Global, 22)); // static local
    // const/constexpr declarations stay clean; the justified
    // allow(global) is honored and counted.
    EXPECT_FALSE(hasFindingAtLine(r, Rule::Global, 10));
    EXPECT_FALSE(hasFindingAtLine(r, Rule::Global, 11));
    EXPECT_FALSE(hasFindingAtLine(r, Rule::Global, 23));
    ASSERT_EQ(r.suppressions.size(), 1u);
    EXPECT_EQ(r.suppressions[0].rule, Rule::Global);
    EXPECT_EQ(r.suppressions[0].line, 29);
}

TEST(LintSemantic, UnusedProjectRuleTrailerIsFlaggedByModelOnly)
{
    // A stray allow(snapshot) with nothing to suppress: lintFile must
    // leave it alone (the model owns R5-R8 accounting) and lintModel
    // must flag it unused.
    const std::string text =
        "void f();"
        " // neofog-lint: allow(snapshot): nothing here needs it\n";
    Result file;
    neofog::lint::lintFile("src/sim/stray.cc", text, file);
    EXPECT_EQ(countRule(file, Rule::Hygiene), 0);
    Model m;
    Result sem;
    neofog::lint::collectFile("src/sim/stray.cc", text, m);
    neofog::lint::lintModel(m, sem);
    EXPECT_EQ(countRule(sem, Rule::Hygiene), 1);
    EXPECT_TRUE(hasFindingAtLine(sem, Rule::Hygiene, 1));
}

TEST(LintSemantic, DeclarationsOutsideSrcAreNotModeled)
{
    // bench/ and examples/ declarations never enter the model (the
    // semantic rules are src/-only), but their trailers still settle.
    Model m;
    Result r;
    neofog::lint::collectFile(
        "bench/scratch.cc", "int mutable_bench_counter = 0;\n", m);
    neofog::lint::lintModel(m, r);
    EXPECT_EQ(countRule(r, Rule::Global), 0);
}

// ----------------------------------------------------- output formats

TEST(LintOutput, JsonFormatCarriesSchemaFindingsAndSuppressions)
{
    Result r;
    r.filesScanned = 3;
    r.findings.push_back({"src/hw/rtc.hh", 12, Rule::Snapshot,
                          "unserialized member '_x' of \"Y\""});
    r.suppressions.push_back(
        {"src/sim/logging.cc", 10, Rule::Global, "latch"});
    std::ostringstream os;
    neofog::lint::printJson(r, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"schema\": \"neofog-lint-v1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"files_scanned\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"rule\": \"R5.snapshot\""),
              std::string::npos);
    EXPECT_NE(out.find("\"line\": 12"), std::string::npos);
    // The embedded quotes are escaped, keeping the document valid.
    EXPECT_NE(out.find("\\\"Y\\\""), std::string::npos);
    EXPECT_NE(out.find("\"rule\": \"R8.global\""), std::string::npos);
}

TEST(LintOutput, JsonFormatEmitsEmptyArraysWhenClean)
{
    Result r;
    r.filesScanned = 1;
    std::ostringstream os;
    neofog::lint::printJson(r, os);
    EXPECT_NE(os.str().find("\"findings\": []"), std::string::npos);
    EXPECT_NE(os.str().find("\"suppressions\": []"),
              std::string::npos);
}

TEST(LintOutput, GithubFormatEmitsEscapedErrorAnnotations)
{
    Result r;
    r.filesScanned = 1;
    r.findings.push_back({"src/net/loss.hh", 7, Rule::Metric,
                          "50% drop\nsecond line"});
    std::ostringstream os;
    neofog::lint::printGithub(r, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("::error file=src/net/loss.hh,line=7,"
                       "title=R6.metric::"),
              std::string::npos)
        << out;
    // % and newlines use the workflow-command escapes.
    EXPECT_NE(out.find("50%25 drop%0Asecond line"),
              std::string::npos)
        << out;
}
