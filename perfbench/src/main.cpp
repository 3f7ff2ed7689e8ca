/**
 * @file
 * perfbench: the request-level benchmark of the Xylem serving stack.
 *
 *   perfbench --workload cold_sim|cold_serial|hot_solve|fleet_mix
 *             --seed N --seconds S --trace 0|1 [--bin-dir DIR]
 *             [--out-dir DIR] [--commit TEXT]
 *
 * One run spawns real xylem_serve (and, for fleet_mix, xylem_frontend)
 * processes on unix: sockets in a private temp dir under --out-dir,
 * sets them up and warms them kSetups times (setup_s is the median),
 * drives the last set closed-loop for --seconds from this single
 * process, checks the answers, and reaps every child. --trace 0
 * prints the end-to-end metrics; --trace 1 prints the per-layer ones,
 * from the served run's telemetry and daemon counters plus a traced
 * in-process replay of the same request stream. The last stdout line
 * is the JSON result; the full record (host, sample counts) goes to
 * <out-dir>/results/. See README.md for every metric and workload.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/hash_ring.hpp"
#include "loadgen.hpp"
#include "procs.hpp"
#include "replay.hpp"
#include "service/json.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr int kSetups = 5;              ///< set-ups per run (median)
constexpr double kReadyTimeoutS = 30.0; ///< health readiness wait
constexpr double kRequestTimeoutS = 60.0;
constexpr std::size_t kGateSamples = 4; ///< Engine::run checks per run

using Clock = std::chrono::steady_clock;

struct Options
{
    WorkloadKind kind = WorkloadKind::ColdSim;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string binDir;
    std::string outDir = ".";
    std::string commit = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload cold_sim|cold_serial|"
                 "hot_solve|fleet_mix --seed N --seconds S --trace 0|1 "
                 "[--bin-dir DIR] [--out-dir DIR] [--commit TEXT]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.binDir = fs::absolute(fs::path(argv[0])).parent_path().string();
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                const auto k = workloadFromName(value);
                if (!k)
                    usage("unknown workload '" + value + "'");
                o.kind = *k;
                o.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                o.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                o.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                o.trace = value == "1";
            } else if (flag == "--bin-dir") {
                o.binDir = fs::absolute(value).string();
            } else if (flag == "--out-dir") {
                o.outDir = value;
            } else if (flag == "--commit") {
                o.commit = value;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    o.outDir = fs::absolute(o.outDir).string();
    return o;
}

/** The run's private directory (sockets, daemon logs); removed when
 *  the run ends, whatever the outcome. */
class RunDir
{
  public:
    explicit RunDir(const std::string &parent)
    {
        fs::create_directories(parent);
        std::string templ = parent + "/run-XXXXXX";
        if (!::mkdtemp(templ.data()))
            throw RunError("cannot create a run directory under " + parent);
        path_ = templ;
        previous_ = fs::current_path();
        fs::current_path(path_); // socket paths stay short and relative
    }
    ~RunDir()
    {
        std::error_code ec;
        fs::current_path(previous_, ec);
        fs::remove_all(path_, ec);
    }
    RunDir(const RunDir &) = delete;
    RunDir &operator=(const RunDir &) = delete;

  private:
    fs::path path_;
    fs::path previous_;
};

/** A metric as printed and recorded. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string detail; ///< sample counts and the like
};

/** The daemons of one set-up, ready and warmed. */
struct Fleet
{
    std::unique_ptr<Children> children = std::make_unique<Children>();
    std::vector<Child> shards;
    std::string target; ///< endpoint the load generator drives
    std::unique_ptr<LoadGenerator> gen;
    PhaseResult warm;
    double setupS = 0.0;
};

Fleet
setUp(const Options &o, const WorkloadPlan &plan, int generation)
{
    Fleet f;
    const auto t0 = Clock::now();
    const int daemons = std::max(plan.shards, 1);
    for (int i = 0; i < daemons; ++i) {
        const std::string ep = "unix:s" + std::to_string(generation) + "-" +
                               std::to_string(i) + ".sock";
        f.shards.push_back(f.children->spawn(
            "serve" + std::to_string(i), ep,
            {o.binDir + "/xylem_serve", "--endpoint", ep, "--jobs",
             std::to_string(plan.jobsPerDaemon), "--quiet"}));
    }
    for (const Child &c : f.shards)
        waitReady(*f.children, c, 0, kReadyTimeoutS);
    f.target = f.shards.front().endpoint;
    if (plan.shards > 0) {
        const std::string ep =
            "unix:fe" + std::to_string(generation) + ".sock";
        std::vector<std::string> argv = {o.binDir + "/xylem_frontend",
                                         "--endpoint", ep, "--quiet"};
        for (const Child &c : f.shards) {
            argv.push_back("--shard");
            argv.push_back(c.endpoint);
        }
        const Child fe = f.children->spawn("frontend", ep, argv);
        waitReady(*f.children, fe, plan.shards, kReadyTimeoutS);
        f.target = ep;
    }
    f.gen = std::make_unique<LoadGenerator>(f.target, plan.connections,
                                            plan.window, kRequestTimeoutS,
                                            *f.children);
    f.warm = f.gen->run(plan.warmup, eachOnce(plan.warmup.size()), 0.0);
    f.setupS = secondsSince(t0);
    return f;
}

using Counters = std::map<std::string, double>;

Counters
countersOf(const Child &daemon)
{
    const std::string line =
        callOnce(daemon.endpoint, "{\"id\":0,\"query\":\"metrics\"}", 10.0,
                 "daemon " + daemon.name);
    Counters out;
    const auto resp = xylem::service::parseJson(line);
    const auto *m = resp.find("metrics");
    const auto *c = m ? m->find("counters") : nullptr;
    if (!c || !c->isObject())
        throw RunError("daemon " + daemon.name +
                       " answered metrics without counters: " + line);
    for (const auto &[name, v] : c->object())
        if (v.isNumber())
            out[name] = v.number();
    return out;
}

double
get(const Counters &c, const std::string &name)
{
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
}

/** Sum of one counter's growth over the shards. */
double
delta(const std::vector<Counters> &before, const std::vector<Counters> &after,
      const std::string &name)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < after.size(); ++i)
        sum += get(after[i], name) - get(before[i], name);
    return sum;
}

double
total(const std::vector<Counters> &snap, const std::string &name)
{
    double sum = 0.0;
    for (const Counters &c : snap)
        sum += get(c, name);
    return sum;
}

std::string
countDetail(const Percentile &p)
{
    return "samples=" + std::to_string(p.samples) +
           " beyond=" + std::to_string(p.beyond);
}

double
p50(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : percentile(v, 50).value;
}

std::string
hostJson(const Options &o)
{
    std::string out = "{\"nproc\":" +
                      std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                      ",\"build_type\":";
    xylem::service::appendJsonString(out, PERFBENCH_BUILD_TYPE);
    out += ",\"compiler\":";
    xylem::service::appendJsonString(out, PERFBENCH_COMPILER);
    out += ",\"commit\":";
    xylem::service::appendJsonString(out, o.commit);
    out += '}';
    return out;
}

struct Outcome
{
    std::vector<Metric> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;
    /** Ok timed replies, in completion order (for the record). */
    std::vector<double> timedLatencyMs;
};

void
countMismatch(Outcome &out, const std::string &what)
{
    ++out.failed;
    if (out.failures.size() < 8)
        out.failures.push_back(what);
}

/** What the served part of a run produced. */
struct Served
{
    std::vector<double> setupS;
    PhaseResult warm; ///< the last set-up's warm-up
    PhaseResult timed;
    /** Per xylem_serve, just before and just after the timed phase. */
    std::vector<Counters> before;
    std::vector<Counters> after;
    Counters frontendBefore;
    Counters frontendAfter;
    double daemonCpuS = 0.0; ///< every spawned process, timed phase
    /** Traced fleet runs: client latency - service_s straight to the
     *  owning shard. */
    std::vector<double> directTransportMs;
};

/**
 * Set up kSetups times, drive the last set of daemons through the
 * timed phase, read their counters around it, and stop them.
 */
Served
serve(const Options &o, const WorkloadPlan &plan, Outcome &out)
{
    Served s;
    Fleet fleet;
    for (int rep = 0; rep < kSetups; ++rep) {
        fleet.gen.reset();
        fleet.children->stopAll();
        fleet = setUp(o, plan, rep);
        s.setupS.push_back(fleet.setupS);
        out.attempted += fleet.warm.attempted;
        out.failed += fleet.warm.failed;
    }
    s.warm = fleet.warm;
    const std::vector<Child> &daemons = fleet.shards;
    const auto snapshot = [&](std::vector<Counters> &shards,
                              Counters &frontend) {
        for (const Child &d : daemons)
            shards.push_back(countersOf(d));
        if (plan.shards > 0)
            frontend = countersOf(fleet.children->all().back());
    };

    snapshot(s.before, s.frontendBefore);
    const double cpu0 = fleet.children->cpuSeconds();
    Scheduler sched(plan, o.seed);
    const RequestSource source{[&] { return sched.next(); },
                               [&](std::size_t i) { sched.completed(i); }};
    s.timed = fleet.gen->run(plan.timed, source, o.seconds);
    out.attempted += s.timed.attempted;
    out.failed += s.timed.failed;
    s.daemonCpuS = fleet.children->cpuSeconds() - cpu0;
    snapshot(s.after, s.frontendAfter);

    // Each fleet scenario once, serially, straight to the shard that
    // owns it, to price the bare transport.
    if (o.trace && plan.shards > 0) {
        const xylem::frontend::HashRing ring(
            static_cast<std::size_t>(plan.shards));
        for (std::size_t i = 0; i < plan.timed.size(); ++i) {
            const Child &owner =
                daemons.at(ring.owner(scenarioKeyOf(plan.timed[i])));
            const auto t0 = Clock::now();
            const std::string line = callOnce(
                owner.endpoint, plan.timed[i].frame(i + 1), kRequestTimeoutS,
                "daemon " + owner.name);
            const double latency = secondsSince(t0);
            ++out.attempted;
            const auto resp = xylem::service::parseJson(line);
            const auto *tel = resp.find("telemetry");
            const auto *service = tel ? tel->find("service_s") : nullptr;
            if (!service || !service->isNumber()) {
                countMismatch(out, "direct probe failed: " + line);
                continue;
            }
            s.directTransportMs.push_back((latency - service->number()) *
                                          1e3);
        }
    }
    fleet.gen.reset();
    fleet.children->stopAll();
    return s;
}

/**
 * Correctness gates 1 and 2 (README.md): every reply to one scenario
 * carries the same bits, and a seeded sample matches an in-process
 * Engine::run. Returns one served line per scenarioKey.
 */
std::map<std::string, std::string>
checkAnswers(const Options &o, const WorkloadPlan &plan, const Served &s,
             Outcome &out)
{
    std::map<std::string, std::string> payload_by_key;
    std::map<std::string, std::string> line_by_key;
    const auto check_payloads = [&](const std::vector<Scenario> &scen,
                                    const PhaseResult &phase) {
        for (const Reply &r : phase.replies) {
            if (!r.ok) {
                if (out.failures.size() < 8)
                    out.failures.push_back("typed error " + r.errorCode +
                                           ": " + r.line);
                continue;
            }
            const std::string key = scenarioKeyOf(scen[r.scenario]);
            const auto [it, fresh] =
                payload_by_key.emplace(key, payloadOf(r.line));
            if (fresh)
                line_by_key[key] = r.line;
            else if (it->second != payloadOf(r.line))
                countMismatch(out, "two replies to one scenario differ: " +
                                       it->second + " / " + r.line);
        }
    };
    check_payloads(plan.warmup, s.warm);
    check_payloads(plan.timed, s.timed);

    std::vector<std::size_t> sample;
    std::set<std::size_t> seen;
    for (const Reply &r : s.timed.replies)
        if (r.ok && seen.insert(r.scenario).second)
            sample.push_back(r.scenario);
    Rng rng(o.seed ^ 0x6A7Eull);
    shuffle(sample, rng);
    if (sample.size() > kGateSamples)
        sample.resize(kGateSamples);
    for (std::size_t idx : sample) {
        const std::string frame = plan.timed[idx].frame(1);
        const std::string diff = compareAnswers(
            answerOf(line_by_key.at(scenarioKeyOf(plan.timed[idx]))),
            engineAnswer(frame));
        if (!diff.empty())
            countMismatch(out, "served vs Engine::run, " + frame + ": " + diff);
    }
    return line_by_key;
}

/** One value per ok reply of the timed phase. */
template <typename F>
std::vector<double>
perOkReply(const Served &s, F value)
{
    std::vector<double> out;
    for (const Reply &r : s.timed.replies)
        if (r.ok)
            out.push_back(value(r));
    return out;
}

std::vector<Metric>
endToEndMetrics(const Served &s)
{
    const std::vector<double> latency_ms =
        perOkReply(s, [](const Reply &r) { return r.latencyS * 1e3; });
    const Percentile lp50 = percentile(latency_ms, 50);
    const Percentile lp90 = percentile(latency_ms, 90);
    return {
        {"throughput_rps",
         static_cast<double>(latency_ms.size()) / s.timed.elapsedS, "1/s",
         "ok=" + std::to_string(latency_ms.size()) + " elapsed_s=" +
             xylem::service::formatDouble(s.timed.elapsedS)},
        {"latency_p50_ms", lp50.value, "ms", countDetail(lp50)},
        {"latency_p90_ms", lp90.value, "ms", countDetail(lp90)},
        {"setup_s", median(s.setupS), "s",
         "setups=" + std::to_string(s.setupS.size())},
    };
}

/**
 * The traced replay (spans off, then on), correctness gate 3, and the
 * per-layer metrics from the replay's spans, the served telemetry and
 * the daemons' counters.
 */
std::vector<Metric>
perLayerMetrics(const Options &o, const WorkloadPlan &plan, const Served &s,
                const std::map<std::string, std::string> &line_by_key,
                Outcome &out)
{
    std::vector<Scenario> all = plan.warmup;
    all.insert(all.end(), plan.timed.begin(), plan.timed.end());
    std::vector<std::size_t> warm_idx;
    for (std::size_t i = 0; i < plan.warmup.size(); ++i)
        warm_idx.push_back(i);
    std::vector<std::size_t> timed_idx;
    for (std::size_t idx : s.timed.sent) {
        if (timed_idx.size() >= plan.replayPrefix)
            break;
        timed_idx.push_back(plan.warmup.size() + idx);
    }
    // The frontend's ring is priced on every workload (a 2-shard ring
    // where the workload has no frontend).
    const int ring_shards = std::max(plan.shards, 2);
    Tracer off(false);
    const ReplayResult plain =
        replay(all, warm_idx, timed_idx, ring_shards, off);
    Tracer on(true);
    const ReplayResult traced =
        replay(all, warm_idx, timed_idx, ring_shards, on);
    fs::create_directories(o.outDir + "/results");
    on.writeJson(o.outDir + "/results/" + o.workload + "-seed" +
                 std::to_string(o.seed) + ".spans.json");

    // Correctness 3: the decomposed replay reproduces the served bits.
    for (const auto &[idx, answer] : traced.answers) {
        const auto it = line_by_key.find(scenarioKeyOf(all[idx]));
        if (it == line_by_key.end())
            continue;
        const std::string diff = compareAnswers(answerOf(it->second), answer);
        if (!diff.empty())
            countMismatch(out, "served vs traced replay, " +
                                   all[idx].frame(1) + ": " + diff);
    }

    using Durations = std::map<std::string, std::vector<double>>;
    const Durations spans = spanDurationsMs(on.spans());
    const Durations timed_spans = spanDurationsMs(on.spans(), "timed");
    const Durations misses = spanDurationsMs(on.spans(), "", "miss");
    const auto of = [](const Durations &m, const std::string &name) {
        const auto it = m.find(name);
        return it == m.end() ? std::vector<double>{} : it->second;
    };
    const auto span_p50 = [&](const Durations &m, const std::string &name) {
        return p50(of(m, name));
    };
    const auto count_of = [&](const Durations &m, const std::string &name) {
        return "spans=" + std::to_string(of(m, name).size());
    };

    double miss_ms_total = 0.0;
    for (double v : of(misses, "core::cachedSimulate"))
        miss_ms_total += v;
    std::vector<double> step_ms = of(timed_spans, "GridModel::stepTransient");
    std::string step_detail = "spans=" + std::to_string(step_ms.size());
    if (step_ms.empty()) {
        step_ms = transientStepProbeMs(plan.timed.front(), 5);
        step_detail = "probe steps=5 (no transient queries in the stream)";
    }

    std::vector<double> per_shard;
    for (std::size_t i = 0; i < s.after.size(); ++i)
        per_shard.push_back(get(s.after[i], "service.responses") +
                            get(s.after[i], "service.errors") -
                            get(s.before[i], "service.responses") -
                            get(s.before[i], "service.errors"));
    double load_sum = 0.0;
    for (double v : per_shard)
        load_sum += v;
    const double load_ratio =
        load_sum > 0.0 ? *std::max_element(per_shard.begin(),
                                           per_shard.end()) /
                             (load_sum / static_cast<double>(per_shard.size()))
                       : 1.0;
    std::set<std::string> sent_sims; // what the last set-up was asked for
    for (const Reply &r : s.warm.replies)
        sent_sims.insert(plan.warmup[r.scenario].simKey());
    for (const Reply &r : s.timed.replies)
        sent_sims.insert(plan.timed[r.scenario].simKey());

    const auto grew = [&](const std::string &name) {
        return delta(s.before, s.after, name);
    };
    const double hits = grew("simcache.hits");
    const double sim_misses = grew("simcache.misses");
    const double attempted = static_cast<double>(s.timed.attempted);
    const std::vector<double> queue_ms =
        perOkReply(s, [](const Reply &r) { return r.queueS * 1e3; });
    const std::vector<double> solve_ms =
        perOkReply(s, [](const Reply &r) { return r.solveS * 1e3; });
    const std::vector<double> transport_ms = perOkReply(
        s, [](const Reply &r) { return (r.latencyS - r.serviceS) * 1e3; });
    const double compute_p50_ms = p50(traced.computeS) * 1e3;
    const double solves = std::max<double>(1.0, traced.solves);
    const std::vector<double> &transport =
        plan.shards > 0 ? s.directTransportMs : transport_ms;

    return {
        {"cpu.simulate_ms", span_p50(misses, "core::cachedSimulate"), "ms",
         count_of(misses, "core::cachedSimulate") + " (misses)"},
        {"cpu.sim_minsts_per_s",
         miss_ms_total > 0.0
             ? static_cast<double>(traced.instsSimulated) /
                   (miss_ms_total * 1e3)
             : 0.0,
         "Minst/s", "insts=" + std::to_string(traced.instsSimulated)},
        {"simcache.hit_share",
         hits + sim_misses > 0.0 ? hits / (hits + sim_misses) : 0.0, "ratio",
         "served timed phase"},
        {"thermal.solve_ms", span_p50(timed_spans, "GridModel::solveSteady"),
         "ms", count_of(timed_spans, "GridModel::solveSteady")},
        {"thermal.cg_iterations",
         traced.steadySolves
             ? static_cast<double>(traced.cgIterations) /
                   static_cast<double>(traced.steadySolves)
             : 0.0,
         "count", "per steady solve"},
        {"thermal.mg_cycles_per_solve",
         static_cast<double>(traced.mgCycles) / solves, "count",
         "solves=" + std::to_string(traced.solves)},
        {"thermal.transient_step_ms", p50(step_ms), "ms", step_detail},
        {"thermal.factor_reuses", static_cast<double>(traced.factorReuses),
         "count", "timed replay"},
        {"thermal.grid_nodes", static_cast<double>(traced.gridNodes),
         "count", "largest grid"},
        {"xylem.power_paint_ms",
         span_p50(spans, "StackSystem::powerMapFor"), "ms",
         count_of(spans, "StackSystem::powerMapFor")},
        {"xylem.system_build_ms", span_p50(spans, "StackSystem"), "ms",
         count_of(spans, "StackSystem")},
        {"service.queue_wait_ms", p50(queue_ms), "ms",
         "samples=" + std::to_string(queue_ms.size())},
        {"service.batched_share", grew("service.batched_requests") / attempted,
         "ratio", "of timed requests"},
        {"service.lock_wait_ms", p50(solve_ms) - compute_p50_ms, "ms",
         "solve_s p50 " + xylem::service::formatDouble(p50(solve_ms)) +
             " ms - traced compute p50 " +
             xylem::service::formatDouble(compute_p50_ms) + " ms"},
        {"service.transport_ms", p50(transport), "ms",
         (plan.shards > 0 ? "direct-to-shard probe samples="
                          : "samples=") +
             std::to_string(transport.size())},
        {"service.parse_us", span_p50(spans, "service::parseRequest") * 1e3,
         "us", count_of(spans, "service::parseRequest")},
        {"service.format_us",
         span_p50(spans, "service::formatOkResponse") * 1e3, "us",
         count_of(spans, "service::formatOkResponse")},
        {"service.dedup_hit_share", grew("service.dedup_hits") / attempted,
         "ratio", "of timed requests"},
        {"service.systems_built", total(s.after, "service.systems_built"),
         "count", "since spawn"},
        {"service.systems_evicted", total(s.after, "service.systems_evicted"),
         "count", "since spawn"},
        {"service.daemon_cpu_ms_per_req",
         s.daemonCpuS * 1e3 / static_cast<double>(transport_ms.size()), "ms",
         "all spawned daemons, timed phase"},
        {"service.retries", grew("service.retries"), "count", "timed phase"},
        {"service.escalations", grew("service.escalations"), "count",
         "timed phase"},
        {"service.shed", grew("service.shed"), "count", "timed phase"},
        {"frontend.hop_ms", p50(transport_ms), "ms",
         plan.shards > 0 ? "client latency - shard service_s"
                         : "no frontend: equals the direct transport"},
        {"frontend.route_us", span_p50(spans, "frontend::HashRing") * 1e3,
         "us",
         count_of(spans, "frontend::HashRing") +
             " ring_shards=" + std::to_string(ring_shards)},
        {"frontend.shard_load_ratio", load_ratio, "ratio",
         "shards=" + std::to_string(per_shard.size())},
        {"frontend.rerouted",
         get(s.frontendAfter, "frontend.rerouted") -
             get(s.frontendBefore, "frontend.rerouted"),
         "count", "timed phase"},
        {"frontend.duplicate_sim_share",
         total(s.after, "simcache.misses") /
             static_cast<double>(std::max<std::size_t>(1, sent_sims.size())),
         "ratio",
         "sim misses since spawn / distinct sims sent=" +
             std::to_string(sent_sims.size())},
        {"trace.overhead_share", (traced.wallS - plain.wallS) / plain.wallS,
         "ratio",
         "replay " + xylem::service::formatDouble(traced.wallS) +
             " s traced vs " + xylem::service::formatDouble(plain.wallS) +
             " s plain"},
    };
}

Outcome
runWorkload(const Options &o)
{
    const WorkloadPlan plan = makePlan(o.kind, o.seed);
    Outcome out;
    RunDir dir(o.outDir);
    const Served served = serve(o, plan, out);
    const auto line_by_key = checkAnswers(o, plan, served, out);
    if (std::none_of(served.timed.replies.begin(), served.timed.replies.end(),
                     [](const Reply &r) { return r.ok; }))
        throw RunError("no request of the timed phase was answered ok");
    out.timedLatencyMs =
        perOkReply(served, [](const Reply &r) { return r.latencyS * 1e3; });
    out.metrics = o.trace ? perLayerMetrics(o, plan, served, line_by_key, out)
                          : endToEndMetrics(served);
    return out;
}

std::string
resultJson(const Outcome &out)
{
    std::ostringstream os;
    os << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        os << (i ? "," : "") << '"' << m.name
           << "\":{\"value\":" << xylem::service::formatDouble(m.value)
           << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "}}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    installSignalHandlers();
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    if (build_type != "Release")
        std::cerr << "\n*** WARNING: perfbench was built as '" << build_type
                  << "', not Release. ***\n*** Its numbers do not describe "
                     "an optimized build. ***\n\n";
    const std::string host = hostJson(o);
    std::cout << "host: " << host << "\n";
    std::cout << "workload: " << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << o.trace << "\n";

    Outcome out;
    try {
        out = runWorkload(o);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: workload " << o.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    for (const Metric &m : out.metrics)
        std::cout << "metric " << m.name << " = "
                  << xylem::service::formatDouble(m.value) << " " << m.unit
                  << "  (" << m.detail << ")\n";
    for (const std::string &f : out.failures)
        std::cout << "FAILED: " << f << "\n";

    const std::string result = resultJson(out);
    std::error_code ec;
    fs::create_directories(o.outDir + "/results", ec);
    std::ofstream record(o.outDir + "/results/" + o.workload + "-seed" +
                         std::to_string(o.seed) + "-trace" +
                         (o.trace ? "1" : "0") + ".json");
    record << "{\"host\":" << host << ",\"workload\":\"" << o.workload
           << "\",\"seed\":" << o.seed << ",\"seconds\":"
           << xylem::service::formatDouble(o.seconds) << ",\"details\":{";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        std::string detail;
        xylem::service::appendJsonString(detail, out.metrics[i].detail);
        record << (i ? "," : "") << '"' << out.metrics[i].name
               << "\":" << detail;
    }
    record << "},\"timed_latency_ms\":[";
    for (std::size_t i = 0; i < out.timedLatencyMs.size(); ++i)
        record << (i ? "," : "")
               << xylem::service::formatDouble(out.timedLatencyMs[i]);
    record << "],\"result\":" << result << "}\n";

    std::cout << result << std::endl;
    if (out.failed != 0) {
        std::cerr << "perfbench: workload " << o.workload << " had "
                  << out.failed << " failed operation(s)\n";
        return 1;
    }
    return 0;
}
