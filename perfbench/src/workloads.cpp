#include "workloads.hpp"

#include <algorithm>
#include <map>

#include "frontend/hash_ring.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "workloads/profile.hpp"

namespace perfbench {

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

const char *
toString(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::ColdSim:
        return "cold_sim";
    case WorkloadKind::ColdSerial:
        return "cold_serial";
    case WorkloadKind::HotSolve:
        return "hot_solve";
    case WorkloadKind::FleetMix:
        return "fleet_mix";
    }
    return "?";
}

std::optional<WorkloadKind>
workloadFromName(std::string_view name)
{
    for (WorkloadKind k : {WorkloadKind::ColdSim, WorkloadKind::ColdSerial,
                           WorkloadKind::HotSolve, WorkloadKind::FleetMix})
        if (name == toString(k))
            return k;
    return std::nullopt;
}

std::string
Scenario::frame(std::uint64_t id) const
{
    std::string out = "{\"id\":" + std::to_string(id) + ",\"query\":\"" +
                      query + "\",\"config\":" + configJson + ",\"app\":";
    xylem::service::appendJsonString(out, app);
    out += ",\"freqGHz\":" + xylem::service::formatDouble(freqGHz);
    if (query == "transient") {
        out += ",\"steps\":" + std::to_string(steps);
        out += ",\"dtSeconds\":" + xylem::service::formatDouble(dtSeconds);
    }
    out += '}';
    return out;
}

std::string
Scenario::simKey() const
{
    return app + '@' + xylem::service::formatDouble(freqGHz);
}

std::vector<double>
dvfsPoints()
{
    // Tenths of a GHz, so every point prints (and parses) exactly.
    std::vector<double> points;
    for (int tenths = 24; tenths <= 35; ++tenths)
        points.push_back(tenths / 10.0);
    return points;
}

std::string
scenarioKeyOf(const Scenario &s)
{
    return xylem::service::scenarioKey(
        xylem::service::parseRequest(s.frame(0)));
}

namespace {

/** Every (profile, DVFS point) pair, profile by profile. */
std::vector<Scenario>
simPool()
{
    std::vector<Scenario> pool;
    for (const auto &profile : xylem::workloads::suite())
        for (double f : dvfsPoints()) {
            Scenario s;
            s.app = profile.name;
            s.freqGHz = f;
            pool.push_back(s);
        }
    return pool;
}

/** Every (profile, DVFS point) pair, shuffled by the seed. */
std::vector<Scenario>
shuffledSimPool(Rng &rng)
{
    std::vector<Scenario> pool = simPool();
    shuffle(pool, rng);
    return pool;
}

Scenario
withConfig(Scenario s, const std::string &name, const std::string &json)
{
    s.configName = name;
    s.configJson = json;
    return s;
}

/** cold_sim (4 connections) and cold_serial (1): every timed request
 *  is a distinct (profile, DVFS point). */
WorkloadPlan
coldSimPlan(Rng &rng, int connections)
{
    WorkloadPlan plan;
    plan.jobsPerDaemon = 4;
    plan.connections = connections;
    plan.window = 1;
    plan.withoutReplacement = true;
    const std::string grid32 = "{\"gridNx\":32,\"gridNy\":32}";
    // The warm-up takes one key per connection out of the pool, so no
    // timed request finds its simulation cached. Its keys are the same
    // for every seed: the profiles' simulation costs differ by up to
    // ~2x, and setup_s should not depend on which one the seed drew.
    std::vector<Scenario> pool = simPool();
    const auto warm = pool.begin() + plan.connections;
    for (auto it = pool.begin(); it != warm; ++it)
        plan.warmup.push_back(withConfig(*it, "base32", grid32));
    std::vector<Scenario> timed(warm, pool.end());
    shuffle(timed, rng);
    for (const Scenario &s : timed)
        plan.timed.push_back(withConfig(s, "base32", grid32));
    return plan;
}

WorkloadPlan
hotSolvePlan(Rng &rng)
{
    WorkloadPlan plan;
    plan.replayPrefix = 32;
    plan.jobsPerDaemon = 4;
    plan.connections = 4;
    plan.window = 4;
    plan.distinctInFlight = true;
    // The paper's evaluated stack: banke TTSVs, 80x80 grid, MG-CG.
    const std::vector<Scenario> pool = shuffledSimPool(rng);
    for (std::size_t i = 0; i < 16; ++i)
        plan.timed.push_back(
            withConfig(pool[i], "banke80", "{\"scheme\":\"banke\"}"));
    plan.warmup = plan.timed;
    return plan;
}

WorkloadPlan
fleetMixPlan(Rng &rng)
{
    WorkloadPlan plan;
    plan.replayPrefix = 96;
    plan.shards = 2;
    plan.jobsPerDaemon = 2;
    plan.connections = 4;
    plan.window = 1;
    const std::vector<std::pair<std::string, std::string>> configs = {
        {"base32", "{\"gridNx\":32,\"gridNy\":32,\"scheme\":\"base\"}"},
        {"banke32", "{\"gridNx\":32,\"gridNy\":32,\"scheme\":\"banke\"}"},
        {"prior32", "{\"gridNx\":32,\"gridNy\":32,\"scheme\":\"prior\"}"},
        {"banke48", "{\"gridNx\":48,\"gridNy\":48,\"scheme\":\"banke\"}"},
    };
    // Per config and per shard: 3 steady and 1 transient (a fixed
    // 5-step implicit-Euler run), so 24:8 overall. Candidates come
    // from the seeded sim pool and are kept while the shard that the
    // frontend's ring routes them to still has room for their kind:
    // the seed changes which scenarios run, never how evenly the ring
    // splits the work.
    constexpr int kSteadyPerShard = 3;
    constexpr int kTransientPerShard = 1;
    const xylem::frontend::HashRing ring(
        static_cast<std::size_t>(plan.shards));
    std::map<std::string, int> taken; // config|kind|shard -> count
    const std::size_t wanted = configs.size() *
                               static_cast<std::size_t>(plan.shards) *
                               (kSteadyPerShard + kTransientPerShard);
    for (const Scenario &sim : shuffledSimPool(rng)) {
        for (const auto &[name, json] : configs)
            for (bool transient : {false, true}) {
                Scenario sc = withConfig(sim, name, json);
                if (transient) {
                    sc.query = "transient";
                    sc.steps = 5;
                    sc.dtSeconds = 1e-3;
                }
                const std::string slot =
                    name + (transient ? "|t|" : "|s|") +
                    std::to_string(ring.owner(scenarioKeyOf(sc)));
                if (taken[slot] <
                    (transient ? kTransientPerShard : kSteadyPerShard)) {
                    ++taken[slot];
                    plan.timed.push_back(sc);
                }
            }
        if (plan.timed.size() == wanted)
            break;
    }
    plan.warmup = plan.timed;
    return plan;
}

} // namespace

WorkloadPlan
makePlan(WorkloadKind kind, std::uint64_t seed)
{
    Rng rng(seed);
    switch (kind) {
    case WorkloadKind::ColdSim:
        return coldSimPlan(rng, 4);
    case WorkloadKind::ColdSerial:
        return coldSimPlan(rng, 1);
    case WorkloadKind::HotSolve:
        return hotSolvePlan(rng);
    case WorkloadKind::FleetMix:
        return fleetMixPlan(rng);
    }
    return coldSimPlan(rng, 4);
}

Scheduler::Scheduler(const WorkloadPlan &plan, std::uint64_t seed)
    : plan_(plan),
      rng_(seed ^ 0x5EEDull)
{
    std::map<std::string, std::size_t> ids;
    for (const Scenario &s : plan_.timed)
        keyId_.push_back(
            ids.emplace(scenarioKeyOf(s), ids.size()).first->second);
    inflight_.assign(ids.size(), 0);
    for (std::size_t i = 0; i < plan_.timed.size(); ++i)
        order_.push_back(i);
    // cold_sim's pool is already in seeded order; the cycling
    // workloads draw a fresh permutation per pass.
    if (!plan_.withoutReplacement)
        shuffle(order_, rng_);
}

std::optional<std::size_t>
Scheduler::next()
{
    if (order_.empty() ||
        (plan_.withoutReplacement && pos_ >= order_.size()))
        return std::nullopt;
    std::optional<std::size_t> pick;
    if (plan_.distinctInFlight) {
        // Round-robin over one fixed permutation, skipping keys still
        // in flight: never stalls while any key is free.
        for (std::size_t k = 0; k < order_.size(); ++k) {
            const std::size_t at = (pos_ + k) % order_.size();
            if (inflight_[keyId_[order_[at]]] == 0) {
                pick = order_[at];
                pos_ = (at + 1) % order_.size();
                break;
            }
        }
    } else {
        if (pos_ >= order_.size() && !plan_.withoutReplacement) {
            shuffle(order_, rng_); // a fresh permutation per pass
            pos_ = 0;
        }
        pick = order_[pos_++];
    }
    if (pick)
        ++inflight_[keyId_[*pick]];
    return pick;
}

void
Scheduler::completed(std::size_t index)
{
    --inflight_[keyId_[index]];
}

} // namespace perfbench
