/**
 * @file
 * The closed-loop load generator: one thread, one poll() loop, a
 * fixed set of connections with a fixed window of outstanding
 * requests each. A connection sends its next request only when one
 * of its own is answered, so a slower system receives less load.
 */

#ifndef PERFBENCH_LOADGEN_HPP
#define PERFBENCH_LOADGEN_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "procs.hpp"
#include "service/socket.hpp"
#include "workloads.hpp"

namespace perfbench {

/** One answered request. */
struct Reply
{
    std::size_t scenario = 0; ///< index into the phase's scenario list
    double latencyS = 0.0;    ///< client side, send to reply
    bool ok = false;
    std::string errorCode; ///< the typed error's code when !ok
    std::string line;      ///< the raw response frame
    // Response telemetry (ok replies only).
    double queueS = 0.0;
    double solveS = 0.0;
    double serviceS = 0.0;
};

/** What one phase (warm-up or timed) produced. */
struct PhaseResult
{
    std::vector<Reply> replies;     ///< in completion order
    std::vector<std::size_t> sent; ///< scenario indices, in send order
    double elapsedS = 0.0;      ///< first send to last reply
    std::size_t attempted = 0;
    std::size_t failed = 0; ///< typed errors
};

/** Where a phase's requests come from: the next scenario to send
 *  (nullopt = none now), and the notice that one was answered. */
struct RequestSource
{
    std::function<std::optional<std::size_t>()> next;
    std::function<void(std::size_t)> completed;
};

class LoadGenerator
{
  public:
    /** Opens `connections` connections to `endpoint`; `children` is
     *  consulted (and named) when a connection fails. */
    LoadGenerator(std::string endpoint, int connections, int window,
                  double request_timeout_s, Children &children);

    /**
     * Keep every connection's window full from `source` until it runs
     * dry or `seconds` pass (0 = no time limit), then wait for every
     * outstanding reply. Throws RunError on a transport failure or a
     * request that exceeds the per-request timeout.
     */
    PhaseResult run(const std::vector<Scenario> &scenarios,
                    const RequestSource &source, double seconds);

  private:
    struct Pending
    {
        std::uint64_t id;
        std::size_t scenario;
        double sentAt;
    };
    struct Conn
    {
        xylem::service::FdGuard fd;
        std::string inbuf;
        std::vector<Pending> pending;
    };

    [[noreturn]] void fail(const std::string &what);

    std::string endpoint_;
    int window_;
    double timeoutS_;
    Children &children_;
    std::vector<Conn> conns_;
    std::uint64_t nextId_ = 1;
};

/** A source that sends each of `count` scenarios exactly once. */
RequestSource eachOnce(std::size_t count);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HPP
