/**
 * @file
 * Request streams of the benchmark's workloads.
 *
 * Everything here is a pure function of the workload and the seed:
 * the daemons only ever see the generated request frames. The
 * scheduler hands the load generator the next scenario to send, and
 * enforces each workload's stream property (cold_sim and cold_serial
 * never repeat a simulation key; hot_solve never has two requests with
 * one scenarioKey in flight).
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** splitmix64: a tiny seeded generator whose sequence is the same on
 *  every platform (std:: distributions are not). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, n); n > 0. */
    std::size_t below(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Fisher-Yates shuffle driven by Rng. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

enum class WorkloadKind
{
    ColdSim,
    ColdSerial,
    HotSolve,
    FleetMix,
};

const char *toString(WorkloadKind kind);
std::optional<WorkloadKind> workloadFromName(std::string_view name);

/** One request the benchmark can send (minus its correlation id). */
struct Scenario
{
    std::string query = "steady"; ///< "steady" | "transient"
    std::string configName;       ///< label of the stack config
    std::string configJson;       ///< the request's "config" object
    std::string app;
    double freqGHz = 2.4;
    int steps = 0;          ///< transient only
    double dtSeconds = 0.0; ///< transient only

    /** The request frame, without the trailing newline. */
    std::string frame(std::uint64_t id) const;
    /** (profile, DVFS point): what the simulator is keyed on. */
    std::string simKey() const;
};

/** The 12 DVFS points of the standard table, 2.4 to 3.5 GHz. */
std::vector<double> dvfsPoints();

/** A workload: the daemons to run and the requests to send them. */
struct WorkloadPlan
{
    /** 0 = one xylem_serve driven directly; N = xylem_frontend over N
     *  xylem_serve shards. */
    int shards = 0;
    int jobsPerDaemon = 4; ///< xylem_serve --jobs
    int connections = 4;   ///< client connections (at most nproc)
    int window = 1;        ///< outstanding requests per connection
    /** Sent once each before the timed phase (untimed). */
    std::vector<Scenario> warmup;
    /** The timed phase draws from these. */
    std::vector<Scenario> timed;
    /** Each timed scenario is sent at most once; running out of them
     *  ends the timed phase early. */
    bool withoutReplacement = false;
    /** Never two in-flight requests with one scenarioKey. */
    bool distinctInFlight = false;
    /** Timed requests the traced replay re-runs: the replay is
     *  serial, so the slow workloads replay fewer. */
    std::size_t replayPrefix = 12;
};

WorkloadPlan makePlan(WorkloadKind kind, std::uint64_t seed);

/** service::scenarioKey of the scenario's request. */
std::string scenarioKeyOf(const Scenario &s);

/**
 * Hands out timed-phase scenarios (indices into plan.timed) in a
 * seeded order. cold_sim and cold_serial walk their shuffled pool
 * once; hot_solve cycles round-robin through one permutation, skipping
 * keys still in flight; fleet_mix draws a fresh permutation for every
 * pass.
 */
class Scheduler
{
  public:
    Scheduler(const WorkloadPlan &plan, std::uint64_t seed);

    /** The next scenario to send, or nullopt when none may be sent
     *  now (pool exhausted, or every key in flight). */
    std::optional<std::size_t> next();
    /** A request for scenario `index` has been answered. */
    void completed(std::size_t index);

  private:
    const WorkloadPlan &plan_;
    Rng rng_;
    std::vector<std::size_t> keyId_; ///< scenario -> distinct key id
    std::vector<int> inflight_;      ///< per key id
    std::vector<std::size_t> order_; ///< current permutation
    std::size_t pos_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
