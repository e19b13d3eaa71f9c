/**
 * @file
 * Tests for the balancer-spec grammar and the PolicyRegistry:
 * parsing (valid/invalid/duplicate-key/type-mismatch), canonical
 * round-trips, did-you-mean diagnostics, and registry-based
 * construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "balance/policies.hh"
#include "balance/policy_registry.hh"
#include "balance/policy_spec.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

/** Run @p fn and return the FatalError message it must throw. */
template <typename Fn>
std::string
fatalMessage(Fn &&fn)
{
    try {
        fn();
    } catch (const FatalError &err) {
        return err.what();
    }
    ADD_FAILURE() << "expected FatalError";
    return {};
}

TEST(PolicySpecParser, NameOnly)
{
    const PolicySpec spec = parsePolicySpec("distributed");
    EXPECT_EQ(spec.name, "distributed");
    EXPECT_TRUE(spec.params.empty());
}

TEST(PolicySpecParser, NameWithParams)
{
    const PolicySpec spec =
        parsePolicySpec("rf-aware:alpha=1.5,window=3");
    EXPECT_EQ(spec.name, "rf-aware");
    ASSERT_EQ(spec.params.size(), 2u);
    EXPECT_EQ(spec.params[0].first, "alpha");
    EXPECT_EQ(spec.params[0].second, "1.5");
    EXPECT_EQ(spec.params[1].first, "window");
    EXPECT_EQ(spec.params[1].second, "3");
}

TEST(PolicySpecParser, RejectsEmptyName)
{
    EXPECT_THROW(parsePolicySpec(""), FatalError);
    EXPECT_THROW(parsePolicySpec(":a=1"), FatalError);
}

TEST(PolicySpecParser, RejectsEmptyParamSection)
{
    EXPECT_THROW(parsePolicySpec("tree:"), FatalError);
}

TEST(PolicySpecParser, RejectsPairWithoutEquals)
{
    EXPECT_THROW(parsePolicySpec("tree:min_region"), FatalError);
    EXPECT_THROW(parsePolicySpec("tree:a=1,b"), FatalError);
}

TEST(PolicySpecParser, RejectsEmptyKey)
{
    EXPECT_THROW(parsePolicySpec("tree:=1"), FatalError);
}

TEST(PolicySpecParser, RejectsDuplicateKey)
{
    const std::string msg = fatalMessage(
        [] { parsePolicySpec("tree:min_region=2,min_region=3"); });
    EXPECT_NE(msg.find("duplicate key 'min_region'"),
              std::string::npos);
}

TEST(PolicyValues, IntParsingIsStrict)
{
    EXPECT_EQ(parseValue(ParamType::Int, "42", "k").i, 42);
    EXPECT_EQ(parseValue(ParamType::Int, "-7", "k").i, -7);
    EXPECT_THROW(parseValue(ParamType::Int, "4.5", "k"), FatalError);
    EXPECT_THROW(parseValue(ParamType::Int, "4x", "k"), FatalError);
    EXPECT_THROW(parseValue(ParamType::Int, "", "k"), FatalError);
}

TEST(PolicyValues, DoubleParsingIsStrictAndFinite)
{
    EXPECT_DOUBLE_EQ(parseValue(ParamType::Double, "0.25", "k").d,
                     0.25);
    EXPECT_THROW(parseValue(ParamType::Double, "1.0.2", "k"),
                 FatalError);
    EXPECT_THROW(parseValue(ParamType::Double, "inf", "k"),
                 FatalError);
    EXPECT_THROW(parseValue(ParamType::Double, "nan", "k"),
                 FatalError);
}

TEST(PolicyValues, BoolSpellings)
{
    EXPECT_TRUE(parseValue(ParamType::Bool, "true", "k").b);
    EXPECT_TRUE(parseValue(ParamType::Bool, "1", "k").b);
    EXPECT_FALSE(parseValue(ParamType::Bool, "false", "k").b);
    EXPECT_FALSE(parseValue(ParamType::Bool, "0", "k").b);
    EXPECT_THROW(parseValue(ParamType::Bool, "yes", "k"), FatalError);
}

TEST(PolicyValues, FormatRoundTrips)
{
    for (const double v : {0.02, 1.0, 8.0, 1.0 / 3.0, -2.5e-7}) {
        const ParamValue p = ParamValue::ofDouble(v);
        EXPECT_EQ(parseValue(ParamType::Double, formatValue(p), "k"),
                  p);
    }
    EXPECT_EQ(formatValue(ParamValue::ofInt(64)), "64");
    EXPECT_EQ(formatValue(ParamValue::ofBool(true)), "true");
}

TEST(PolicyRegistry, RegistersAtLeastSevenPolicies)
{
    const auto names = PolicyRegistry::instance().names();
    EXPECT_GE(names.size(), 7u);
    for (const char *expected :
         {"none", "tree", "cluster", "distributed", "greedy",
          "delay-energy", "rf-aware"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

TEST(PolicyRegistry, MakeAppliesParams)
{
    const auto bal = PolicyRegistry::instance().make(
        "distributed:interrupt_chance=0.5,neighbor_window=3");
    const auto *dist =
        dynamic_cast<const DistributedBalancer *>(bal.get());
    ASSERT_NE(dist, nullptr);
    EXPECT_DOUBLE_EQ(dist->config().interruptChance, 0.5);
    EXPECT_EQ(dist->config().neighborWindow, 3);
    // Untouched params keep their defaults.
    EXPECT_DOUBLE_EQ(dist->config().quantaPerUnit, 8.0);
}

TEST(PolicyRegistry, MakeConstructsNewPolicies)
{
    auto &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.make("greedy")->name(), "greedy-nearest-rich");
    EXPECT_EQ(reg.make("delay-energy:v=0")->name(), "delay-energy");
    EXPECT_EQ(reg.make("rf-aware:alpha=1")->name(), "rf-cost-aware");
}

TEST(PolicyRegistry, UnknownPolicySuggests)
{
    const std::string msg = fatalMessage([] {
        PolicyRegistry::instance().make("distrbuted");
    });
    EXPECT_NE(msg.find("did you mean 'distributed'"),
              std::string::npos);
    // The alternatives are listed for names too far for a guess.
    EXPECT_NE(msg.find("registered:"), std::string::npos);
    EXPECT_NE(msg.find("rf-aware"), std::string::npos);
}

TEST(PolicyRegistry, UnknownParamSuggests)
{
    const std::string msg = fatalMessage([] {
        PolicyRegistry::instance().make("greedy:max_hop=2");
    });
    EXPECT_NE(msg.find("did you mean 'max_hops'"),
              std::string::npos);
    EXPECT_NE(msg.find("min_spare"), std::string::npos);
}

TEST(PolicyRegistry, TypeMismatchDiagnosis)
{
    const std::string msg = fatalMessage([] {
        PolicyRegistry::instance().make("greedy:max_hops=2.5");
    });
    EXPECT_NE(msg.find("expects an int"), std::string::npos);
}

TEST(PolicyRegistry, CanonicalDropsDefaults)
{
    auto &reg = PolicyRegistry::instance();
    EXPECT_EQ(reg.canonicalSpec("distributed"), "distributed");
    EXPECT_EQ(reg.canonicalSpec("distributed:quanta_per_unit=8.0"),
              "distributed");
    EXPECT_EQ(reg.canonicalSpec(
                  "distributed:max_rounds=2,interrupt_chance=0.5"),
              "distributed:interrupt_chance=0.5");
}

TEST(PolicyRegistry, CanonicalOrdersByDeclaration)
{
    // Spec order is user-chosen; canonical order is ParamSpec order.
    EXPECT_EQ(PolicyRegistry::instance().canonicalSpec(
                  "rf-aware:window=3,alpha=1.5"),
              "rf-aware:alpha=1.5,window=3");
}

TEST(PolicyRegistry, CanonicalIsAFixedPoint)
{
    auto &reg = PolicyRegistry::instance();
    for (const std::string spec :
         {"none", "tree:coordinator_min_capacity=0.3",
          "cluster:cluster_size=5,head_min_capacity=0.25",
          "distributed:interrupt_chance=0.125",
          "greedy:max_hops=3,min_spare=1.5",
          "delay-energy:v=0.75,window=2,hop_cost=0.2",
          "rf-aware:alpha=1.5,hop_cost=0.1,budget=3,window=2"}) {
        const std::string canonical = reg.canonicalSpec(spec);
        EXPECT_EQ(reg.canonicalSpec(canonical), canonical) << spec;
    }
}

TEST(PolicyRegistry, RejectsDuplicateRegistration)
{
    PolicyInfo dup;
    dup.name = "distributed";
    dup.build = [](const ResolvedParams &) {
        return std::make_unique<NoBalancer>();
    };
    EXPECT_THROW(PolicyRegistry::instance().add(std::move(dup)),
                 FatalError);
}

TEST(PolicyRegistry, DescribeCoversEveryPolicyAndParam)
{
    std::ostringstream os;
    auto &reg = PolicyRegistry::instance();
    reg.describe(os);
    const std::string doc = os.str();
    for (const std::string &name : reg.names()) {
        EXPECT_NE(doc.find(name), std::string::npos) << name;
        for (const ParamSpec &p : reg.info(name).params) {
            EXPECT_NE(doc.find(p.name), std::string::npos) << p.name;
            EXPECT_NE(doc.find("default " +
                               formatValue(p.defaultValue)),
                      std::string::npos)
                << name << ":" << p.name;
        }
    }
}

} // namespace
} // namespace neofog
