/**
 * @file
 * PolicyRegistry: the self-describing factory for offloading policies.
 *
 * Each policy registers once with a name, a one-line description, its
 * ParamSpec table, and a build function from resolved parameters; the
 * registry then:
 *
 *  - constructs a configured LoadBalancer from a spec string
 *    (`policy:key=val,...`, see policy_spec.hh), failing loudly with
 *    a did-you-mean suggestion on unknown policies or parameters and
 *    a type diagnosis on bad values;
 *  - canonicalizes specs (name + non-default params in declaration
 *    order), the exact form ScenarioConfig carries into the snapshot
 *    config fingerprint;
 *  - documents itself: names(), info(), and describe(ostream) power
 *    `neofog_cli --list-balancers`.
 *
 * The built-in policies (none, tree, cluster, distributed, greedy,
 * delay-energy, rf-aware) are registered on first use; out-of-tree
 * code may add() more before constructing scenarios.
 */

#ifndef NEOFOG_BALANCE_POLICY_REGISTRY_HH
#define NEOFOG_BALANCE_POLICY_REGISTRY_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "balance/balancer.hh"
#include "balance/policy_spec.hh"

namespace neofog {

/**
 * Parameter values resolved against a policy's ParamSpec table:
 * every declared parameter is present (spec value or default) with
 * its declared type.
 */
class ResolvedParams
{
  public:
    /** Typed getters; panic on a name/type mismatch (registry bug). */
    std::int64_t i(const std::string &name) const;
    double d(const std::string &name) const;
    bool b(const std::string &name) const;

    void set(const std::string &name, const ParamValue &value);

  private:
    const ParamValue &get(const std::string &name,
                          ParamType type) const;

    std::vector<std::pair<std::string, ParamValue>> _values;
};

/** One registered policy: identity, documentation, and factory. */
struct PolicyInfo
{
    /** Registry key, the spec's leading token (e.g. "distributed"). */
    std::string name;
    /** One-line description for --list-balancers. */
    std::string description;
    /** Declared parameters, in canonical (declaration) order. */
    std::vector<ParamSpec> params;
    /** Build a balancer from fully resolved parameters. */
    std::function<std::unique_ptr<LoadBalancer>(
        const ResolvedParams &)> build;
};

class PolicyRegistry
{
  public:
    /** The process-wide registry, built-ins registered. */
    static PolicyRegistry &instance();

    /** Register a policy; fatal on a duplicate or empty name. */
    void add(PolicyInfo info);

    /** Registered policy names, in registration order. */
    std::vector<std::string> names() const;

    /** Metadata of one policy; fatal with a suggestion if unknown. */
    const PolicyInfo &info(const std::string &name) const;

    /**
     * Parse @p spec, resolve it against the named policy's ParamSpec
     * table, and construct the configured balancer.  Fatal, with a
     * did-you-mean suggestion and the registered alternatives, on an
     * unknown policy or parameter; fatal with a type diagnosis on a
     * bad value.
     */
    std::unique_ptr<LoadBalancer> make(const std::string &spec) const;

    /**
     * Canonical form of @p spec: the policy name followed by only the
     * parameters that differ from their defaults, in declaration
     * order, values in formatValue() form.  Validates exactly like
     * make().  Canonical strings are fixed points:
     * canonical(canonical(s)) == canonical(s).
     */
    std::string canonicalSpec(const std::string &spec) const;

    /**
     * Registry-derived documentation: every policy's name,
     * description, and parameter table (name, type, default, doc).
     */
    void describe(std::ostream &os) const;

  private:
    PolicyRegistry() = default;

    const PolicyInfo *find(const std::string &name) const;
    /** Resolve spec params against @p info (shared by make/canonical). */
    ResolvedParams resolve(const PolicyInfo &info,
                           const PolicySpec &spec) const;

    std::vector<PolicyInfo> _policies;
};

} // namespace neofog

#endif // NEOFOG_BALANCE_POLICY_REGISTRY_HH
