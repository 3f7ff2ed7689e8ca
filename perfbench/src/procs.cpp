#include "procs.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/client.hpp"
#include "service/json.hpp"

namespace perfbench {

namespace {

volatile std::sig_atomic_t g_signal = 0;

extern "C" void
onSignal(int sig)
{
    g_signal = sig;
}

using Clock = std::chrono::steady_clock;

} // namespace

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    for (int sig : {SIGINT, SIGTERM, SIGHUP})
        ::sigaction(sig, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

void
throwIfInterrupted()
{
    if (g_signal != 0)
        throw RunError("interrupted by signal " + std::to_string(g_signal));
}

Child
Children::spawn(const std::string &name, const std::string &endpoint,
                const std::vector<std::string> &argv)
{
    const std::string log = name + ".log";
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0)
        throw RunError("cannot fork " + name);
    if (pid == 0) {
        // Die with the benchmark even if it is SIGKILLed.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::signal(SIGPIPE, SIG_DFL);
        const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                              0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
        }
        for (int other = 3; other < 1024; ++other)
            ::close(other); // the load generator's sockets stay ours
        std::vector<char *> cargs;
        for (const std::string &a : argv)
            cargs.push_back(const_cast<char *>(a.c_str()));
        cargs.push_back(nullptr);
        ::execv(cargs[0], cargs.data());
        ::_exit(127);
    }
    children_.push_back({name, endpoint, pid, false});
    return children_.back();
}

void
Children::checkAlive()
{
    for (Child &c : children_) {
        if (c.reaped)
            continue;
        int status = 0;
        if (::waitpid(c.pid, &status, WNOHANG) == c.pid) {
            c.reaped = true;
            std::string how =
                WIFSIGNALED(status)
                    ? "was killed by signal " +
                          std::to_string(WTERMSIG(status))
                    : "exited with status " +
                          std::to_string(WEXITSTATUS(status));
            throw RunError("daemon " + c.name + " (pid " +
                           std::to_string(c.pid) + ", " + c.endpoint +
                           ") " + how + "; log tail:\n" + logTail(c));
        }
    }
}

void
Children::stopAll(double grace_s)
{
    for (const Child &c : children_)
        if (!c.reaped)
            ::kill(c.pid, SIGTERM);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(grace_s));
    for (Child &c : children_) {
        while (!c.reaped) {
            int status = 0;
            const pid_t r = ::waitpid(c.pid, &status, WNOHANG);
            if (r == c.pid || (r < 0 && errno != EINTR)) {
                c.reaped = true;
                break;
            }
            if (Clock::now() >= deadline) {
                ::kill(c.pid, SIGKILL);
                ::waitpid(c.pid, &status, 0);
                c.reaped = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
    }
    children_.clear();
}

double
Children::cpuSeconds() const
{
    const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
    double total = 0.0;
    for (const Child &c : children_) {
        if (c.reaped)
            continue;
        std::ifstream in("/proc/" + std::to_string(c.pid) + "/stat");
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        // Fields after the parenthesised command name; utime and
        // stime are fields 14 and 15 of the whole line.
        const auto close = text.rfind(')');
        if (close == std::string::npos)
            throw RunError("cannot read CPU time of daemon " + c.name);
        std::istringstream rest(text.substr(close + 2));
        std::string field;
        double utime = 0.0;
        double stime = 0.0;
        for (int i = 3; i <= 15 && rest >> field; ++i) {
            if (i == 14)
                utime = std::stod(field);
            if (i == 15)
                stime = std::stod(field);
        }
        total += (utime + stime) / tick;
    }
    return total;
}

std::string
callOnce(const std::string &endpoint, const std::string &frame,
         double timeout_s, const std::string &who)
{
    xylem::service::ClientOptions opts;
    opts.endpoint = endpoint;
    xylem::service::ServiceClient client(opts);
    const xylem::service::CallResult r = client.call(
        [&frame](double) { return frame; }, timeout_s * 1e3);
    if (r.status == xylem::service::CallStatus::TransportFailure ||
        r.status == xylem::service::CallStatus::BudgetExhausted)
        throw RunError(who + " (" + endpoint + ") did not answer " +
                       frame + ": " +
                       (r.message.empty() ? "timed out" : r.message));
    return r.line;
}

void
waitReady(Children &children, const Child &child, int shards,
          double timeout_s)
{
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    std::string last = "no answer yet";
    while (Clock::now() < deadline) {
        throwIfInterrupted();
        children.checkAlive();
        try {
            const std::string line =
                callOnce(child.endpoint, "{\"id\":0,\"query\":\"health\"}",
                         0.5, child.name);
            const auto resp = xylem::service::parseJson(line);
            const auto *ready = resp.find("ready");
            const auto *up = resp.find("upShards");
            const bool all_up =
                shards == 0 ||
                (up && up->isNumber() && up->number() >= shards);
            if (ready && ready->isBoolean() && ready->boolean() && all_up)
                return;
            last = line;
        } catch (const RunError &e) {
            last = e.what(); // not listening yet
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    throw RunError("daemon " + child.name + " (" + child.endpoint +
                   ") not ready within " + std::to_string(timeout_s) +
                   " s: " + last + "; log tail:\n" + logTail(child));
}

std::string
logTail(const Child &child, std::size_t max_bytes)
{
    std::ifstream in(child.name + ".log");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text.size() > max_bytes ? text.substr(text.size() - max_bytes)
                                   : text;
}

} // namespace perfbench
