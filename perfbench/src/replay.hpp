/**
 * @file
 * In-process side of the benchmark: the traced serial replay that
 * decomposes a workload's requests into its layers, and the
 * served-versus-in-process correctness gate.
 *
 * The replay drives the layers' public functions in the order the
 * daemon does (service::parseRequest, StackSystem construction,
 * core::cachedSimulate, StackSystem::powerMapFor,
 * GridModel::solveSteady / stepTransient, service::formatOkResponse,
 * and frontend::HashRing routing), with a span around each call. The
 * spans are kept in memory and written to a file when the run ends.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

/** One recorded span: a call into a layer. */
struct Span
{
    std::string name;      ///< the layer call, e.g. "core::cachedSimulate"
    std::uint64_t request; ///< shared by every span of one request
    int parent;            ///< index of the enclosing span; -1 = root
    double startUs;        ///< since the tracer was created
    double durUs;
    std::string phase; ///< "warmup" or "timed"
    std::string note;  ///< e.g. "miss" / "hit" for the simulator
};

/** Serial span recorder. A disabled tracer records nothing (the
 *  replay's spans-off pass, which prices the tracing itself). */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Open a span; close it with end(). Returns its index (-1 when
     *  disabled). */
    int begin(const std::string &name, std::uint64_t request,
              const std::string &phase);
    void end(int index, const std::string &note = "");

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as a JSON array of objects. */
    void writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** The four result fields the correctness gate compares. */
struct Answer
{
    double procHotspotC = 0.0;
    double dramBottomHotspotC = 0.0;
    std::vector<double> coreHotspotC;
    int cgIterations = 0;
};

/** The answer in a served response line; throws on a malformed one. */
Answer answerOf(const std::string &line);
Answer answerOf(const xylem::service::EvalSummary &s);
/** Empty when bit-identical, else which field differs and how. */
std::string compareAnswers(const Answer &served, const Answer &local);

/**
 * The result part of a served line (between the id and the
 * telemetry), for checking that every reply to one scenario carries
 * the same bits.
 */
std::string payloadOf(const std::string &line);

/** In-process Engine::run of the request frame (a fresh engine). */
Answer engineAnswer(const std::string &frame);

/** What a replay measured. */
struct ReplayResult
{
    double wallS = 0.0;
    /** Per replayed request, in order: the decomposed answer. */
    std::vector<std::pair<std::size_t, Answer>> answers; ///< (scenario, answer)
    std::uint64_t instsSimulated = 0; ///< over simulator misses
    // Timed part only:
    std::uint64_t solves = 0; ///< steady solves + transient steps
    std::uint64_t steadySolves = 0;
    std::uint64_t cgIterations = 0; ///< over steady solves
    std::uint64_t mgCycles = 0;     ///< solver.mg.cycles
    std::uint64_t factorReuses = 0; ///< solver.mg.factor_reuses
    std::size_t gridNodes = 0;      ///< largest replayed grid
    /** Per timed request: the compute the daemon's solve_s covers
     *  (system build, simulate, power+paint, solve), in seconds. */
    std::vector<double> computeS;
};

/**
 * Replay `warmup` then `timed` (scenario indices into `scenarios`)
 * serially in-process, from a cold simulation cache and no resident
 * systems, with spans into `tracer`. `shards` > 0 also routes every
 * request through a HashRing over that many shards, as the frontend
 * does.
 */
ReplayResult replay(const std::vector<Scenario> &scenarios,
                    const std::vector<std::size_t> &warmup,
                    const std::vector<std::size_t> &timed, int shards,
                    Tracer &tracer);

/** Per-span-name durations in ms, optionally for one phase only. */
std::map<std::string, std::vector<double>>
spanDurationsMs(const std::vector<Span> &spans, const std::string &phase = "",
                const std::string &note = "");

/**
 * Time `steps` implicit-Euler steps from ambient for the scenario's
 * stack and power map (the transient-step price on a workload whose
 * stream has no transient queries). Returns ms per step.
 */
std::vector<double> transientStepProbeMs(const Scenario &s, int steps);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
