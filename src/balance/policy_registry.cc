#include "balance/policy_registry.hh"

#include <algorithm>

#include "balance/policies.hh"
#include "sim/logging.hh"

namespace neofog {

namespace {

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            row[j] = std::min(
                {row[j] + 1, row[j - 1] + 1,
                 diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
            diag = up;
        }
    }
    return row[b.size()];
}

/**
 * " — did you mean 'x'?" when some candidate is within 3 edits of
 * @p got, else "".  Ties go to the earliest candidate.
 */
std::string
didYouMean(const std::string &got,
           const std::vector<std::string> &candidates)
{
    std::size_t best = 4; // suggest only within 3 edits
    const std::string *pick = nullptr;
    for (const std::string &c : candidates) {
        const std::size_t dist = editDistance(got, c);
        if (dist < best) {
            best = dist;
            pick = &c;
        }
    }
    return pick ? " — did you mean '" + *pick + "'?" : "";
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

void
registerBuiltins(PolicyRegistry &reg)
{
    reg.add({
        "none",
        "no balancing: every node keeps its own tasks (Fig 6(b))",
        {},
        [](const ResolvedParams &) {
            return std::make_unique<NoBalancer>();
        },
    });
    reg.add({
        "tree",
        "baseline up-down multi-level binary tree; a region fails "
        "when its coordinator lacks energy (Fig 6(c))",
        {
            {"coordinator_min_capacity", ParamType::Double,
             ParamValue::ofDouble(0.2),
             "capacity a coordinator needs to run the protocol"},
            {"min_region", ParamType::Int, ParamValue::ofInt(2),
             "smallest region the recursion still balances"},
        },
        [](const ResolvedParams &p) {
            TreeBalancer::Config cfg;
            cfg.coordinatorMinCapacity =
                p.d("coordinator_min_capacity");
            cfg.minRegion =
                static_cast<std::size_t>(p.i("min_region"));
            return std::make_unique<TreeBalancer>(cfg);
        },
    });
    reg.add({
        "cluster",
        "LEACH-style cluster heads redistributing within fixed "
        "clusters only (the partitioned-cluster WSN baseline)",
        {
            {"cluster_size", ParamType::Int, ParamValue::ofInt(4),
             "nodes per cluster"},
            {"head_min_capacity", ParamType::Double,
             ParamValue::ofDouble(0.5),
             "minimum capacity a node needs to serve as head"},
        },
        [](const ResolvedParams &p) {
            ClusterBalancer::Config cfg;
            cfg.clusterSize =
                static_cast<std::size_t>(p.i("cluster_size"));
            cfg.headMinCapacity = p.d("head_min_capacity");
            return std::make_unique<ClusterBalancer>(cfg);
        },
    });
    reg.add({
        "distributed",
        "NEOFog's bottom-up pairwise negotiation with the DP "
        "assignment core (Algorithm 1, Fig 6(d))",
        {
            {"neighbor_window", ParamType::Int, ParamValue::ofInt(2),
             "neighbours probed on each side in the first round"},
            {"max_time_quanta", ParamType::Int,
             ParamValue::ofInt(64),
             "MAXTIME for the DP, in task-cost quanta"},
            {"quanta_per_unit", ParamType::Double,
             ParamValue::ofDouble(8.0),
             "cost quantization: quanta per unit taskCost"},
            {"interrupt_chance", ParamType::Double,
             ParamValue::ofDouble(0.02),
             "probability the protocol is interrupted at a region"},
            {"max_rounds", ParamType::Int, ParamValue::ofInt(2),
             "maximum redistribution rounds"},
        },
        [](const ResolvedParams &p) {
            DistributedBalancer::Config cfg;
            cfg.neighborWindow =
                static_cast<int>(p.i("neighbor_window"));
            cfg.maxTimeQuanta = p.i("max_time_quanta");
            cfg.quantaPerUnit = p.d("quanta_per_unit");
            cfg.interruptChance = p.d("interrupt_chance");
            cfg.maxRounds = static_cast<int>(p.i("max_rounds"));
            return std::make_unique<DistributedBalancer>(cfg);
        },
    });
    reg.add({
        "greedy",
        "greedy nearest-rich: overloaded nodes ship to the closest "
        "node with spare capacity, probing outward",
        {
            {"max_hops", ParamType::Int, ParamValue::ofInt(0),
             "probe radius (0 = the whole chain)"},
            {"min_spare", ParamType::Double,
             ParamValue::ofDouble(1.0),
             "spare capacity a node needs to count as rich"},
        },
        [](const ResolvedParams &p) {
            GreedyNearestRichBalancer::Config cfg;
            cfg.maxHops = static_cast<int>(p.i("max_hops"));
            cfg.minSpare = p.d("min_spare");
            return std::make_unique<GreedyNearestRichBalancer>(cfg);
        },
    });
    reg.add({
        "delay-energy",
        "Lyapunov drift-plus-penalty online control: backlog relief "
        "vs shipment energy at penalty weight v (Alenizi & Rana)",
        {
            {"v", ParamType::Double, ParamValue::ofDouble(0.5),
             "penalty weight: energy cost per unit of drift relief"},
            {"window", ParamType::Int, ParamValue::ofInt(4),
             "probe window on each side"},
            {"hop_cost", ParamType::Double,
             ParamValue::ofDouble(0.1),
             "radio energy per task per hop, in task-cost units"},
        },
        [](const ResolvedParams &p) {
            DelayEnergyBalancer::Config cfg;
            cfg.v = p.d("v");
            cfg.window = static_cast<int>(p.i("window"));
            cfg.hopCost = p.d("hop_cost");
            return std::make_unique<DelayEnergyBalancer>(cfg);
        },
    });
    reg.add({
        "rf-aware",
        "radio-front-end-aware offloading: transfer cost scales as "
        "hop_cost*dist^alpha, far shipments must beat their radio "
        "bill (Kryszkiewicz et al.)",
        {
            {"alpha", ParamType::Double, ParamValue::ofDouble(2.0),
             "path-loss exponent applied to the hop distance"},
            {"hop_cost", ParamType::Double,
             ParamValue::ofDouble(0.05),
             "radio energy for a one-hop shipment, task-cost units"},
            {"budget", ParamType::Double, ParamValue::ofDouble(2.0),
             "max total (execution + radio) cost paid per task"},
            {"window", ParamType::Int, ParamValue::ofInt(5),
             "probe window on each side"},
        },
        [](const ResolvedParams &p) {
            RfCostAwareBalancer::Config cfg;
            cfg.alpha = p.d("alpha");
            cfg.hopCost = p.d("hop_cost");
            cfg.budget = p.d("budget");
            cfg.window = static_cast<int>(p.i("window"));
            return std::make_unique<RfCostAwareBalancer>(cfg);
        },
    });
}

} // namespace

std::int64_t
ResolvedParams::i(const std::string &name) const
{
    return get(name, ParamType::Int).i;
}

double
ResolvedParams::d(const std::string &name) const
{
    return get(name, ParamType::Double).d;
}

bool
ResolvedParams::b(const std::string &name) const
{
    return get(name, ParamType::Bool).b;
}

void
ResolvedParams::set(const std::string &name, const ParamValue &value)
{
    for (auto &[n, v] : _values) {
        if (n == name) {
            v = value;
            return;
        }
    }
    _values.emplace_back(name, value);
}

const ParamValue &
ResolvedParams::get(const std::string &name, ParamType type) const
{
    for (const auto &[n, v] : _values) {
        if (n == name) {
            NEOFOG_ASSERT(v.type == type,
                          "param type mismatch for ", name);
            return v;
        }
    }
    NEOFOG_PANIC("unresolved param ", name);
}

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry reg = [] {
        PolicyRegistry r;
        registerBuiltins(r);
        return r;
    }();
    return reg;
}

void
PolicyRegistry::add(PolicyInfo info)
{
    if (info.name.empty())
        fatal("policy registry: empty policy name");
    if (!info.build)
        fatal("policy registry: policy '", info.name,
              "' has no build function");
    if (find(info.name) != nullptr)
        fatal("policy registry: duplicate policy '", info.name, "'");
    _policies.push_back(std::move(info));
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(_policies.size());
    for (const PolicyInfo &p : _policies)
        out.push_back(p.name);
    return out;
}

const PolicyInfo *
PolicyRegistry::find(const std::string &name) const
{
    for (const PolicyInfo &p : _policies) {
        if (p.name == name)
            return &p;
    }
    return nullptr;
}

const PolicyInfo &
PolicyRegistry::info(const std::string &name) const
{
    const PolicyInfo *p = find(name);
    if (p == nullptr) {
        fatal("unknown balancer policy '", name, "'",
              didYouMean(name, names()), " (registered: ",
              joinNames(names()), ")");
    }
    return *p;
}

ResolvedParams
PolicyRegistry::resolve(const PolicyInfo &info,
                        const PolicySpec &spec) const
{
    ResolvedParams out;
    for (const ParamSpec &p : info.params)
        out.set(p.name, p.defaultValue);
    for (const auto &[key, text] : spec.params) {
        const ParamSpec *match = nullptr;
        for (const ParamSpec &p : info.params) {
            if (p.name == key) {
                match = &p;
                break;
            }
        }
        if (match == nullptr) {
            std::vector<std::string> keys;
            keys.reserve(info.params.size());
            for (const ParamSpec &p : info.params)
                keys.push_back(p.name);
            fatal("balancer policy '", info.name,
                  "' has no parameter '", key, "'",
                  didYouMean(key, keys),
                  keys.empty() ? " (it takes no parameters)"
                               : " (parameters: " + joinNames(keys) +
                                     ")");
        }
        out.set(key, parseValue(match->type, text, key));
    }
    return out;
}

std::unique_ptr<LoadBalancer>
PolicyRegistry::make(const std::string &spec) const
{
    const PolicySpec parsed = parsePolicySpec(spec);
    const PolicyInfo &policy = info(parsed.name);
    return policy.build(resolve(policy, parsed));
}

std::string
PolicyRegistry::canonicalSpec(const std::string &spec) const
{
    const PolicySpec parsed = parsePolicySpec(spec);
    const PolicyInfo &policy = info(parsed.name);
    const ResolvedParams resolved = resolve(policy, parsed);

    std::string out = policy.name;
    bool first = true;
    for (const ParamSpec &p : policy.params) {
        ParamValue v = p.defaultValue;
        switch (p.type) {
          case ParamType::Int:
            v = ParamValue::ofInt(resolved.i(p.name));
            break;
          case ParamType::Double:
            v = ParamValue::ofDouble(resolved.d(p.name));
            break;
          case ParamType::Bool:
            v = ParamValue::ofBool(resolved.b(p.name));
            break;
        }
        if (v == p.defaultValue)
            continue;
        out += first ? ':' : ',';
        first = false;
        out += p.name + "=" + formatValue(v);
    }
    return out;
}

void
PolicyRegistry::describe(std::ostream &os) const
{
    for (const PolicyInfo &p : _policies) {
        os << p.name << "\n    " << p.description << "\n";
        if (p.params.empty()) {
            os << "    (no parameters)\n";
            continue;
        }
        for (const ParamSpec &s : p.params) {
            os << "    " << s.name << " (" << paramTypeName(s.type)
               << ", default " << formatValue(s.defaultValue)
               << ") — " << s.doc << "\n";
        }
    }
}

} // namespace neofog
