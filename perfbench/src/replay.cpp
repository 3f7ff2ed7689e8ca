#include "replay.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "cpu/multicore.hpp"
#include "frontend/hash_ring.hpp"
#include "runtime/metrics.hpp"
#include "service/engine.hpp"
#include "service/json.hpp"
#include "stats.hpp"
#include "workloads/profile.hpp"
#include "xylem/sim_cache.hpp"
#include "xylem/system.hpp"

namespace perfbench {

namespace svc = xylem::service;

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      t0_(std::chrono::steady_clock::now())
{}

int
Tracer::begin(const std::string &name, std::uint64_t request,
              const std::string &phase)
{
    if (!enabled_)
        return -1;
    const double now = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0_)
                           .count();
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, request, parent, now, 0.0, phase, ""});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int index, const std::string &note)
{
    if (!enabled_ || index < 0)
        return;
    const double now = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0_)
                           .count();
    Span &s = spans_[static_cast<std::size_t>(index)];
    s.durUs = now - s.startUs;
    s.note = note;
    open_.pop_back();
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string name;
        svc::appendJsonString(name, s.name);
        out << "{\"name\":" << name << ",\"request\":" << s.request
            << ",\"parent\":" << s.parent
            << ",\"start_us\":" << svc::formatDouble(s.startUs)
            << ",\"dur_us\":" << svc::formatDouble(s.durUs)
            << ",\"phase\":\"" << s.phase << "\",\"note\":\"" << s.note
            << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    if (!out)
        throw std::runtime_error("cannot write spans to " + path);
}

namespace {

/** RAII span over one layer call. */
class Scoped
{
  public:
    Scoped(Tracer &t, const std::string &name, std::uint64_t request,
           const std::string &phase)
        : tracer_(t),
          index_(t.begin(name, request, phase))
    {}
    ~Scoped() { tracer_.end(index_, note); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    std::string note;

  private:
    Tracer &tracer_;
    int index_;
};

std::uint64_t
counterValue(const char *name)
{
    return xylem::runtime::Metrics::global().counter(name).value();
}

/** One resident system with the solver scratch it reuses, as the
 *  daemon keeps one per config text. */
struct Resident
{
    explicit Resident(xylem::core::SystemConfig cfg)
        : system(std::move(cfg))
    {}
    xylem::core::StackSystem system;
    xylem::thermal::SolverWorkspace workspace;
};

} // namespace

Answer
answerOf(const std::string &line)
{
    const svc::JsonValue resp = svc::parseJson(line);
    const auto field = [&](const char *name) -> const svc::JsonValue & {
        const svc::JsonValue *v = resp.find(name);
        if (!v)
            throw std::runtime_error(std::string("reply lacks '") + name +
                                     "': " + line);
        return *v;
    };
    Answer a;
    a.procHotspotC = field("procHotspotC").number();
    a.dramBottomHotspotC = field("dramBottomHotspotC").number();
    for (const svc::JsonValue &v : field("coreHotspotC").array())
        a.coreHotspotC.push_back(v.number());
    a.cgIterations = static_cast<int>(field("cgIterations").number());
    return a;
}

Answer
answerOf(const svc::EvalSummary &s)
{
    return {s.procHotspotC, s.dramBottomHotspotC, s.coreHotspotC,
            s.cgIterations};
}

std::string
compareAnswers(const Answer &served, const Answer &local)
{
    const auto bits = [](double v) { return svc::formatDouble(v); };
    if (served.procHotspotC != local.procHotspotC)
        return "procHotspotC " + bits(served.procHotspotC) + " vs " +
               bits(local.procHotspotC);
    if (served.dramBottomHotspotC != local.dramBottomHotspotC)
        return "dramBottomHotspotC " + bits(served.dramBottomHotspotC) +
               " vs " + bits(local.dramBottomHotspotC);
    if (served.coreHotspotC != local.coreHotspotC)
        return "coreHotspotC differs";
    if (served.cgIterations != local.cgIterations)
        return "cgIterations " + std::to_string(served.cgIterations) +
               " vs " + std::to_string(local.cgIterations);
    return "";
}

std::string
payloadOf(const std::string &line)
{
    const auto from = line.find(",\"ok\"");
    const auto to = line.find(",\"telemetry\"");
    if (from == std::string::npos || to == std::string::npos || to < from)
        return line;
    return line.substr(from, to - from);
}

Answer
engineAnswer(const std::string &frame)
{
    svc::Engine engine(svc::EngineOptions{});
    return answerOf(engine.run(svc::parseRequest(frame)));
}

ReplayResult
replay(const std::vector<Scenario> &scenarios,
       const std::vector<std::size_t> &warmup,
       const std::vector<std::size_t> &timed, int shards, Tracer &tracer)
{
    xylem::core::clearSimCache();
    ReplayResult out;
    std::map<std::string, std::unique_ptr<Resident>> systems;
    std::optional<xylem::frontend::HashRing> ring;
    if (shards > 0)
        ring.emplace(static_cast<std::size_t>(shards));

    std::uint64_t request = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto run_one = [&](std::size_t index, const std::string &phase) {
        const bool is_timed = phase == "timed";
        const std::uint64_t mg0 = counterValue("solver.mg.cycles");
        const std::uint64_t reuse0 =
            counterValue("solver.mg.factor_reuses");
        Scoped root(tracer, "request", ++request, phase);
        const std::string frame = scenarios.at(index).frame(request);

        svc::Request req;
        {
            Scoped s(tracer, "service::parseRequest", request, phase);
            req = svc::parseRequest(frame);
        }
        if (ring) {
            Scoped s(tracer, "frontend::HashRing", request, phase);
            s.note = std::to_string(ring->owner(svc::scenarioKey(req)));
        }
        const auto compute0 = std::chrono::steady_clock::now();
        auto it = systems.find(req.configText);
        if (it == systems.end()) {
            Scoped s(tracer, "StackSystem", request, phase);
            it = systems
                     .emplace(req.configText,
                              std::make_unique<Resident>(req.config))
                     .first;
        }
        Resident &res = *it->second;
        const xylem::core::SystemConfig &cfg = res.system.config();
        const xylem::thermal::GridModel &model = res.system.thermalModel();
        out.gridNodes = std::max(out.gridNodes, model.numNodes());

        const std::vector<double> freqs(
            static_cast<std::size_t>(cfg.cpu.numCores), req.freqGHz);
        xylem::cpu::MulticoreConfig sim_cfg = cfg.cpu;
        sim_cfg.coreFreqGHz = freqs;
        xylem::core::SimResultPtr sim;
        {
            Scoped s(tracer, "core::cachedSimulate", request, phase);
            const std::uint64_t misses0 = counterValue("simcache.misses");
            sim = xylem::core::cachedSimulate(
                sim_cfg,
                xylem::cpu::allCoresRunning(
                    xylem::workloads::profileByName(req.app),
                    cfg.cpu.numCores));
            const bool miss = counterValue("simcache.misses") > misses0;
            s.note = miss ? "miss" : "hit";
            if (miss)
                for (const auto &core : sim->cores)
                    out.instsSimulated += core.insts;
        }
        xylem::thermal::PowerMap map = [&] {
            Scoped s(tracer, "StackSystem::powerMapFor", request, phase);
            return res.system.powerMapFor(*sim, freqs);
        }();

        svc::EvalSummary summary;
        const xylem::stack::BuiltStack &layers = res.system.builtStack();
        const auto proc_layer = static_cast<std::size_t>(layers.procMetal);
        xylem::thermal::SolveStats stats;
        if (req.query == svc::QueryType::Transient) {
            xylem::thermal::TemperatureField field = model.ambientField();
            for (int step = 0; step < req.steps; ++step) {
                Scoped s(tracer, "GridModel::stepTransient", request, phase);
                field = model.stepTransient(field, map, req.dtSeconds,
                                            &stats);
                summary.cgIterations += stats.iterations;
                out.solves += is_timed ? 1 : 0;
            }
            summary.procHotspotC = field.maxOfLayer(proc_layer);
            if (!layers.dramMetal.empty())
                summary.dramBottomHotspotC = field.maxOfLayer(
                    static_cast<std::size_t>(layers.dramMetal.front()));
        } else {
            xylem::thermal::TemperatureField field = [&] {
                Scoped s(tracer, "GridModel::solveSteady", request, phase);
                return model.solveSteady(map, &stats, nullptr,
                                         &res.workspace);
            }();
            summary.cgIterations = stats.iterations;
            summary.procHotspotC = field.maxOfLayer(proc_layer);
            summary.dramBottomHotspotC = field.maxOfLayer(
                static_cast<std::size_t>(layers.dramMetal.front()));
            for (const auto &core_rect : layers.procDie.cores)
                summary.coreHotspotC.push_back(field.maxInRect(
                    proc_layer, core_rect, layers.grid.extent()));
            if (is_timed) {
                ++out.solves;
                ++out.steadySolves;
                out.cgIterations +=
                    static_cast<std::uint64_t>(stats.iterations);
            }
        }
        const double compute_s = secondsSince(compute0);
        {
            Scoped s(tracer, "service::formatOkResponse", request, phase);
            (void)svc::formatOkResponse(req, summary,
                                        svc::RequestTelemetry{});
        }
        if (is_timed) {
            out.computeS.push_back(compute_s);
            out.mgCycles += counterValue("solver.mg.cycles") - mg0;
            out.factorReuses +=
                counterValue("solver.mg.factor_reuses") - reuse0;
        }
        out.answers.emplace_back(index, answerOf(summary));
    };

    for (std::size_t i : warmup)
        run_one(i, "warmup");
    for (std::size_t i : timed)
        run_one(i, "timed");
    out.wallS = secondsSince(t0);
    return out;
}

std::map<std::string, std::vector<double>>
spanDurationsMs(const std::vector<Span> &spans, const std::string &phase,
                const std::string &note)
{
    std::map<std::string, std::vector<double>> out;
    for (const Span &s : spans)
        if ((phase.empty() || s.phase == phase) &&
            (note.empty() || s.note == note))
            out[s.name].push_back(s.durUs / 1e3);
    return out;
}

std::vector<double>
transientStepProbeMs(const Scenario &s, int steps)
{
    const svc::Request req = svc::parseRequest(s.frame(0));
    xylem::core::StackSystem system(req.config);
    const xylem::core::SystemConfig &cfg = system.config();
    const std::vector<double> freqs(
        static_cast<std::size_t>(cfg.cpu.numCores), req.freqGHz);
    xylem::cpu::MulticoreConfig sim_cfg = cfg.cpu;
    sim_cfg.coreFreqGHz = freqs;
    const auto sim = xylem::core::cachedSimulate(
        sim_cfg, xylem::cpu::allCoresRunning(
                     xylem::workloads::profileByName(req.app),
                     cfg.cpu.numCores));
    const xylem::thermal::PowerMap map = system.powerMapFor(*sim, freqs);
    const xylem::thermal::GridModel &model = system.thermalModel();
    xylem::thermal::TemperatureField field = model.ambientField();
    std::vector<double> ms;
    for (int i = 0; i < steps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        field = model.stepTransient(field, map, 1e-3);
        ms.push_back(secondsSince(t0) * 1e3);
    }
    return ms;
}

} // namespace perfbench
