/**
 * @file
 * The daemons a benchmark run owns: spawning, readiness, one-shot
 * control calls, CPU accounting and reaping.
 *
 * Every child is started with its working directory in the run's
 * private temp dir (so its unix: socket names are short relative
 * paths that never collide with another run), with its output in
 * <name>.log there, and with PR_SET_PDEATHSIG so it cannot outlive a
 * benchmark that is killed outright. Children::~Children sends
 * SIGTERM to whatever is still running and reaps every child, so
 * each exit path of the benchmark, exceptions included, leaves no
 * process behind.
 */

#ifndef PERFBENCH_PROCS_HPP
#define PERFBENCH_PROCS_HPP

#include <sys/types.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/** A failure the run cannot continue past; the message names the
 *  daemon (or stage) at fault. */
struct RunError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** SIGINT/SIGTERM/SIGHUP set a flag the benchmark's loops poll, so a
 *  signalled run still reaps its children; SIGPIPE is ignored. */
void installSignalHandlers();
/** Throws RunError once a termination signal has arrived. */
void throwIfInterrupted();

struct Child
{
    std::string name;     ///< e.g. "serve0", "frontend"
    std::string endpoint; ///< where it listens
    pid_t pid = -1;
    bool reaped = false;
};

class Children
{
  public:
    Children() = default;
    ~Children() { stopAll(); }
    Children(const Children &) = delete;
    Children &operator=(const Children &) = delete;

    /** fork+exec `argv` (argv[0] is a path) in the current directory,
     *  output to `<name>.log`. */
    Child spawn(const std::string &name, const std::string &endpoint,
                       const std::vector<std::string> &argv);

    /** Throws RunError naming the first child that has exited. */
    void checkAlive();

    /** SIGTERM every live child, wait up to `grace_s` for a graceful
     *  drain, SIGKILL what is left, and reap them all. */
    void stopAll(double grace_s = 10.0);

    const std::vector<Child> &all() const { return children_; }

    /** User+system CPU seconds of every live child (from /proc). */
    double cpuSeconds() const;

  private:
    std::vector<Child> children_;
};

/**
 * One request/response exchange on a fresh connection within
 * `timeout_s`; throws RunError naming `who` on a transport failure or
 * timeout. Returns the raw response line.
 */
std::string callOnce(const std::string &endpoint, const std::string &frame,
                     double timeout_s, const std::string &who);

/**
 * Poll the child's health verb until it answers ready — for a
 * frontend, until `shards` shards are up — within `timeout_s`. Throws
 * RunError naming the child if it exits or never gets ready.
 */
void waitReady(Children &children, const Child &child, int shards,
               double timeout_s);

/** The child's log file, last `max_bytes` of it (for error reports). */
std::string logTail(const Child &child, std::size_t max_bytes = 2000);

} // namespace perfbench

#endif // PERFBENCH_PROCS_HPP
