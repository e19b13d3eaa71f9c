#include "fog/fog_system.hh"

#include <algorithm>
#include <utility>

#include "balance/policy_registry.hh"
#include "energy/trace_cache.hh"
#include "fog/snapshot_io.hh"
#include "sim/logging.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog {

namespace {

/**
 * @p cfg after the checks a system makes of its scenario and of its
 * chain range [chain_lo, chain_hi), with its balancer spec
 * canonicalized.
 */
ScenarioConfig
checkedScenario(ScenarioConfig cfg, std::size_t chain_lo,
                std::size_t chain_hi)
{
    if (cfg.nodesPerChain == 0 || cfg.chains == 0)
        fatal("scenario needs at least one node and one chain");
    if (cfg.multiplexing < 1)
        fatal("multiplexing must be >= 1");
    if (cfg.slotInterval <= 0 || cfg.horizon < cfg.slotInterval)
        fatal("bad slot interval / horizon");
    // The CLI parser's ranges, checked here too so a resumed
    // scenario meets them; written so NaN fails them.
    requireFiniteNonNegative(cfg.meanIncome.watts(), "mean income (W)");
    if (!(cfg.realTimeRequestChance >= 0.0 &&
          cfg.realTimeRequestChance <= 1.0))
        fatal("real-time request chance must be in [0, 1], got ",
              cfg.realTimeRequestChance);
    if (chain_lo >= chain_hi || chain_hi > cfg.chains)
        fatal("chain partition [", chain_lo, ", ", chain_hi,
              ") is not a non-empty subrange of ", cfg.chains, " chains");

    // Canonicalize the balancer spec up front: one registry walk
    // validates the policy name and every parameter (failing with
    // did-you-mean diagnostics before any chain is built), and the
    // canonical form — name + non-default params only — is what
    // serializeScenario() then carries into the snapshot config
    // fingerprint, so a resume under a differently tuned policy is
    // rejected loudly instead of silently diverging.
    cfg.balancerPolicy =
        PolicyRegistry::instance().canonicalSpec(cfg.balancerPolicy);
    return cfg;
}

} // namespace

FogSystem::FogSystem(const ScenarioConfig &cfg)
    : FogSystem(cfg, 0, cfg.chains)
{}

FogSystem::FogSystem(const ScenarioConfig &cfg, std::size_t chain_lo,
                     std::size_t chain_hi)
    : _cfg(checkedScenario(cfg, chain_lo, chain_hi)),
      // Built after the scenario's own checks, which a scenario with
      // several errors fails first.
      _spec(_cfg.nodeConfig()), _chainLo(chain_lo), _chainHi(chain_hi)
{
    LossModel::check(_cfg.loss);
    // The capacitor and RTC configs every node shares, checked once
    // for the system, after the loss model: a scenario with several
    // bad fields reports the node's own first, then the loss model,
    // then these.
    const NodeState fresh = Node::freshState(_spec);

    // The deployment-wide rain stream is built once here and shared
    // read-only by every chain: the rain front is the same for all
    // nodes up to a scalar gain, so one prefix table answers every
    // node's slot-window integrals.
    if (_cfg.traceKind == TraceKind::RainLow) {
        const Tick span = _cfg.horizon + 2 * _cfg.slotInterval;
        _sharedTrace = std::make_shared<CumulativeTrace>(
            traces::makeRainUnitStream(_cfg.seed * 131 + 7, span),
            span, _cfg.energyCache.grid);
    }

    // Fork the per-chain streams up front, in chain order, from a
    // root derived only from the seed — all *global* chains, even
    // when this system simulates only a partition slice: chain c's
    // stream must be the c-th fork no matter which process runs it.
    // Every stochastic draw a chain makes afterwards comes from its
    // own stream, so neither the number of chains executing
    // concurrently nor their interleaving can perturb any chain's
    // results.
    Rng root(_cfg.seed ^ 0xF06F06ULL);
    std::vector<Rng> streams;
    streams.reserve(_cfg.chains);
    for (std::size_t c = 0; c < _cfg.chains; ++c)
        streams.push_back(root.fork());

    // The pool exists before the engines so construction itself can
    // run under the *chunked* partition: chain c's node states are
    // allocated and first-written by the same pool thread that will
    // step them in every window (runWindow below uses the same stable
    // chunk→thread mapping).
    const std::size_t owned = _chainHi - _chainLo;
    const unsigned threads = _cfg.threads == 0
        ? ThreadPool::hardwareThreads() : _cfg.threads;
    if (threads > 1 && owned > 1)
        _pool = std::make_unique<ThreadPool>(threads);

    // Engine construction is chain-parallel for the same reason the
    // window loop is: engine c writes only its own slot (distinct
    // unique_ptr elements), reads only the shared config, node spec
    // and fresh node state, the read-only shared trace, and its own
    // pre-forked RNG stream.
    // Node ids stay globally contiguous (first id derives from the
    // global chain index), so a partition's chain c is
    // indistinguishable from the full system's.
    const auto mux = static_cast<std::size_t>(_cfg.multiplexing);
    _engines.resize(owned);
    parallelForChunked(_pool.get(), owned, [&](std::size_t i) {
        const std::size_t c = _chainLo + i;
        const auto first_id =
            static_cast<std::uint32_t>(c * _cfg.nodesPerChain * mux);
        _engines[i] = std::make_unique<ChainEngine>(
            _cfg, _spec, fresh, c, first_id, streams[c], _sharedTrace);
    });
}

void
FogSystem::runWindow(std::int64_t from, std::int64_t to)
{
    NEOFOG_ASSERT(from >= 0 && to <= _cfg.slotCount() && from <= to,
                  "runWindow range");
    // Chain-major: each body runs one chain through every slot of the
    // window while its state is cache-resident, and the pool crosses
    // one barrier per window.  Chains are mutually independent, so
    // how their slots interleave is irrelevant to the outcome; each
    // chain still runs its own slots in order.  The chunked partition
    // keeps chain c on the pool thread that constructed its shard —
    // see the first-touch note in the constructor.  The body captures
    // 16 bytes, which std::function stores without allocating.
    const std::pair<std::int64_t, std::int64_t> window{from, to};
    parallelForChunked(_pool.get(), _engines.size(),
                       [this, &window](std::size_t c) {
        ChainEngine &engine = *_engines[c];
        for (std::int64_t s = window.first; s < window.second; ++s)
            engine.runSlot(s);
    });
}

SystemReport
FogSystem::run()
{
    NEOFOG_ASSERT(!_ran, "FogSystem::run called twice");
    NEOFOG_ASSERT(_chainLo == 0 && _chainHi == _cfg.chains,
                  "run() needs the full chain range; partition systems "
                  "are driven via runWindow + shardBlob");
    _ran = true;
    _report = SystemReport{};
    _report.idealPackages = _cfg.idealPackages();

    // Step the slot grid from the resume slot (0 for a fresh system),
    // pausing at every checkpoint boundary before the horizon.  The
    // state there is "after slots [0, next)", exactly what a resume
    // starting at `next` needs, and writing it reads simulation state
    // without changing it, so checkpointing never perturbs results.
    const std::int64_t slots = _cfg.slotCount();
    const std::int64_t every = _cfg.snapshot.everySlots;
    for (std::int64_t from = _resumeSlot; from < slots;) {
        const std::int64_t next = every > 0
            ? std::min(slots, from - from % every + every)
            : slots;
        runWindow(from, next);
        if (next < slots)
            saveSnapshot(next);
        from = next;
    }

    // Merge the shards serially in chain order: uint64 sums commute,
    // but double sums do not, and a fixed order keeps the energy
    // totals bit-identical across thread counts.
    finalizeShards();
    for (auto &engine : _engines)
        _report.merge(engine->shard());
    return _report;
}

void
FogSystem::finalizeShards()
{
    if (_finalized)
        return;
    _finalized = true;
    for (auto &engine : _engines)
        engine->finalizeShard();
}

std::string
FogSystem::shardBlob(std::size_t engine_idx) const
{
    NEOFOG_ASSERT(engine_idx < _engines.size(), "shard index");
    NEOFOG_ASSERT(_finalized, "shardBlob before finalizeShards");
    // serialize() mutates nothing but takes non-const refs; archive a
    // copy so the engine's shard stays untouched.
    SystemReport shard = _engines[engine_idx]->shard();
    snapshot::OutArchive ar;
    ar.pushScope("shard");
    shard.serialize(ar);
    ar.popScope();
    return ar.take();
}

std::uint64_t
FogSystem::rotationDigest() const
{
    std::string bytes;
    for (const auto &engine : _engines) {
        snapshot::appendLe64(
            bytes, static_cast<std::uint64_t>(engine->chainIndex()));
        snapshot::appendLe32(
            bytes, static_cast<std::uint32_t>(engine->state().rotation));
    }
    return snapshot::fnv1a(bytes);
}

snapshot::FieldTable
FogSystem::chainTable(ChainState &state)
{
    snapshot::OutArchive ar;
    state.serialize(ar);
    return snapshot::FieldTable::of(ar.data());
}

void
FogSystem::saveSnapshot(std::int64_t slot)
{
    snapshot::Snapshot snap;
    snap.slot = slot;
    snap.seed = _cfg.seed;
    snap.chains = _cfg.chains;

    snapshot::Section config;
    config.name = "config";
    config.data = serializeScenarioBlob(_cfg);
    snap.configHash = snapshot::fnv1a(config.data);

    snapshot::Section system;
    system.name = "system";
    {
        snapshot::OutArchive ar;
        std::int64_t s = slot;
        ar.io("slot", s);
        system.data = ar.take();
    }

    // Every chain of a system walks the same fields, so the file names
    // them once, in its table, and each chain section holds only type
    // tags and payloads.  Chain states serialize concurrently — each
    // walk touches only its own engine's state, draws nothing from any
    // RNG, and writes into its own buffer — then land in the snapshot
    // in chain order, so the byte stream is identical for any thread
    // count.  Sections are named by *global* chain index: a partition
    // system (distributed worker) writes exactly its [chainLo,
    // chainHi) slice, and the union of the workers' files covers the
    // same sections a single-process snapshot holds.
    if (!_engines.empty())
        snap.table = chainTable(_engines.front()->state());
    std::vector<snapshot::Section> chain_sections(_engines.size());
    parallelForChunked(_pool.get(), _engines.size(),
                       [&](std::size_t i) {
        const std::string name =
            "chain" + std::to_string(_engines[i]->chainIndex());
        snapshot::OutArchive ar(snapshot::Layout::Payloads);
        ar.io(name, _engines[i]->state());
        chain_sections[i].name = name;
        chain_sections[i].data = ar.take();
    });

    snap.sections.reserve(2 + chain_sections.size());
    snap.sections.push_back(std::move(config));
    snap.sections.push_back(std::move(system));
    for (auto &s : chain_sections)
        snap.sections.push_back(std::move(s));

    const std::string &dir = _cfg.snapshot.dir;
    const std::string path = (dir.empty() ? std::string(".") : dir) +
                             "/" + snapshot::snapshotFileName(slot);
    snapshot::writeSnapshot(path, snap);
}

std::unique_ptr<FogSystem>
FogSystem::resume(const std::string &path, unsigned threads,
                  ScenarioConfig::SnapshotConfig snap_cfg)
{
    const snapshot::LoadedSnapshot loaded = snapshot::loadSnapshot(path);
    ScenarioConfig cfg = archivedScenario(loaded);
    cfg.threads = threads;
    cfg.snapshot = std::move(snap_cfg);
    return restore(loaded, cfg, 0, cfg.chains);
}

std::unique_ptr<FogSystem>
FogSystem::resumePartition(const std::string &path,
                           const ScenarioConfig &host,
                           std::size_t chain_lo, std::size_t chain_hi)
{
    return resumePartition(snapshot::loadSnapshot(path), host, chain_lo,
                           chain_hi);
}

std::unique_ptr<FogSystem>
FogSystem::resumePartition(const snapshot::LoadedSnapshot &loaded,
                           const ScenarioConfig &host,
                           std::size_t chain_lo, std::size_t chain_hi)
{
    ScenarioConfig cfg = archivedScenario(loaded);

    // The worker already validated its scenario against the
    // coordinator's fingerprint at HELLO time; cross-check the
    // snapshot's archived scenario against the same fingerprint so a
    // stale directory (earlier run, different scenario) is rejected
    // before any engine state is overwritten.
    if (scenarioFingerprint(cfg) != scenarioFingerprint(host))
        fatal("partition snapshot ", loaded.path, " archives a different "
              "scenario than this worker was assigned — stale "
              "snapshot directory?");

    cfg.threads = host.threads;
    cfg.snapshot = host.snapshot;
    return restore(loaded, cfg, chain_lo, chain_hi);
}

std::unique_ptr<FogSystem>
FogSystem::restore(const snapshot::LoadedSnapshot &loaded,
                   const ScenarioConfig &cfg, std::size_t chain_lo,
                   std::size_t chain_hi)
{
    const std::string &file = loaded.path;
    const snapshot::Snapshot &snap = loaded.snap;
    if (snap.chains != cfg.chains)
        fatal("snapshot ", file, " header claims ", snap.chains,
              " chains but its config section has ", cfg.chains);
    if (snap.slot < 0 || snap.slot > cfg.slotCount())
        fatal("snapshot ", file, " slot ", snap.slot,
              " lies outside the scenario horizon of ",
              cfg.slotCount(), " slots");
    if (snap.seed != cfg.seed)
        fatal("snapshot ", file, " header seed ", snap.seed,
              " does not match its config section seed ", cfg.seed);

    // Reconstruct-then-overwrite: the constructor deterministically
    // rebuilds traces, engines, and nodes exactly as the original run
    // did (same seed, same fork order), and each chain's archived
    // ChainState then replaces all of its mutable state.  A v2 file's
    // table is checked once against the fields a fresh chain walks;
    // its chain sections then need only their type tags checked, while
    // a v1 file's chain sections carry and check their own paths.
    // Restoring is chain-parallel for the same reason serializing is;
    // a corrupt section throws out of parallelForChunked and the
    // half-built system is discarded whole.
    auto system = std::make_unique<FogSystem>(cfg, chain_lo, chain_hi);
    const snapshot::Layout layout = snap.version >= 2
        ? snapshot::Layout::Payloads
        : snapshot::Layout::Paths;
    if (layout == snapshot::Layout::Payloads && !system->_engines.empty())
        snapshot::checkTable(
            snap.table, chainTable(system->_engines.front()->state()),
            "snapshot " + file + " table");
    parallelForChunked(system->_pool.get(), system->_engines.size(),
                       [&](std::size_t i) {
        ChainEngine &engine = *system->_engines[i];
        const std::string name =
            "chain" + std::to_string(engine.chainIndex());
        const snapshot::Section *sec = snap.find(name);
        if (sec == nullptr)
            fatal("snapshot ", file, " is missing section '", name,
                  "' (written for a different chain range?)");
        snapshot::InArchive ar(sec->data, layout);
        ar.io(name, engine.state());
        if (!ar.atEnd() && layout == snapshot::Layout::Payloads)
            fatal("snapshot ", file, " section '", name,
                  "' has records past its table's last field '", name,
                  ".", snap.table.path(snap.table.size() - 1), "'");
        if (!ar.atEnd())
            fatal("snapshot ", file, " section '", name,
                  "' has trailing records (format/version skew?)");
        // The node records hold no capacity; the system's spec does.
        const std::size_t capacity = system->_spec.cfg.buffer.capacityBytes;
        const NodeShard &nodes = engine.state().nodes;
        for (std::size_t p = 0; p < nodes.rows(); ++p)
            if (nodes[p].buffer.size > capacity)
                fatal("snapshot field '", name, ".node", p,
                      ".buffer.size' holds ", nodes[p].buffer.size,
                      " bytes, more than the ", capacity,
                      "-byte buffer capacity");
    });
    system->_resumeSlot = snap.slot;
    return system;
}

const Node &
FogSystem::node(std::size_t chain, std::size_t physical_idx) const
{
    NEOFOG_ASSERT(chain < _engines.size(), "chain index");
    return _engines[chain]->node(physical_idx);
}

void
FogSystem::setObserver(std::size_t chain, std::size_t physical_idx,
                       NodeObserver *observer)
{
    NEOFOG_ASSERT(chain < _engines.size(), "chain index");
    _engines[chain]->setObserver(physical_idx, observer);
}

void
FogSystem::setProbeLog(std::size_t chain, ChainProbeLog *log)
{
    NEOFOG_ASSERT(chain < _engines.size(), "chain index");
    _engines[chain]->setProbeLog(log);
}

std::size_t
FogSystem::physicalPerChain() const
{
    return _cfg.nodesPerChain *
           static_cast<std::size_t>(_cfg.multiplexing);
}

} // namespace neofog
