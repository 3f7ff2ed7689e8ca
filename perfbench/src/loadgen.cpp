#include "loadgen.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <memory>

#include "service/json.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double
numberOr(const xylem::service::JsonValue *v, double fallback)
{
    return v && v->isNumber() ? v->number() : fallback;
}

} // namespace

RequestSource
eachOnce(std::size_t count)
{
    auto next = std::make_shared<std::size_t>(0);
    return {[next, count]() -> std::optional<std::size_t> {
                if (*next >= count)
                    return std::nullopt;
                return (*next)++;
            },
            [](std::size_t) {}};
}

LoadGenerator::LoadGenerator(std::string endpoint, int connections,
                             int window, double request_timeout_s,
                             Children &children)
    : endpoint_(std::move(endpoint)),
      window_(window),
      timeoutS_(request_timeout_s),
      children_(children)
{
    for (int i = 0; i < connections; ++i) {
        Conn c;
        try {
            c.fd = xylem::service::connectEndpoint(endpoint_);
        } catch (const std::exception &e) {
            fail(std::string("cannot connect: ") + e.what());
        }
        conns_.push_back(std::move(c));
    }
}

void
LoadGenerator::fail(const std::string &what)
{
    children_.checkAlive(); // a dead daemon names itself
    throw RunError("connection to " + endpoint_ + ": " + what);
}

PhaseResult
LoadGenerator::run(const std::vector<Scenario> &scenarios,
                   const RequestSource &source, double seconds)
{
    PhaseResult out;
    const auto t0 = Clock::now();
    double last_reply = 0.0;
    bool sending = true;
    std::vector<pollfd> fds(conns_.size());
    char buf[65536];

    for (;;) {
        throwIfInterrupted();
        const double now = secondsSince(t0);
        if (seconds > 0.0 && now >= seconds)
            sending = false;
        std::size_t outstanding = 0;
        for (Conn &c : conns_) {
            while (sending &&
                   c.pending.size() < static_cast<std::size_t>(window_)) {
                const std::optional<std::size_t> idx = source.next();
                if (!idx)
                    break;
                const std::uint64_t id = nextId_++;
                std::string frame = scenarios.at(*idx).frame(id);
                frame += '\n';
                c.pending.push_back({id, *idx, secondsSince(t0)});
                out.sent.push_back(*idx);
                ++out.attempted;
                if (!xylem::service::sendAll(c.fd.get(), frame))
                    fail("send failed");
            }
            outstanding += c.pending.size();
        }
        if (outstanding == 0)
            break; // source dry (or time up) and everything answered

        for (std::size_t i = 0; i < conns_.size(); ++i)
            fds[i] = {conns_[i].fd.get(), POLLIN, 0};
        const int rc = ::poll(fds.data(), fds.size(), 20);
        if (rc < 0 && errno != EINTR)
            fail("poll failed");

        for (std::size_t i = 0; i < conns_.size() && rc > 0; ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            Conn &c = conns_[i];
            const ssize_t n = ::read(c.fd.get(), buf, sizeof buf);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                fail(n == 0 ? "closed by the daemon" : "read failed");
            c.inbuf.append(buf, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = c.inbuf.find('\n')) != std::string::npos) {
                Reply r;
                r.line = c.inbuf.substr(0, nl);
                c.inbuf.erase(0, nl + 1);
                const auto resp = xylem::service::parseJson(r.line);
                const auto *id = resp.find("id");
                const auto it = std::find_if(
                    c.pending.begin(), c.pending.end(),
                    [&](const Pending &p) {
                        return id && id->isNumber() &&
                               id->number() == static_cast<double>(p.id);
                    });
                if (it == c.pending.end())
                    fail("reply with an unknown id: " + r.line);
                r.scenario = it->scenario;
                last_reply = secondsSince(t0);
                r.latencyS = last_reply - it->sentAt;
                c.pending.erase(it);
                source.completed(r.scenario);

                const auto *ok = resp.find("ok");
                r.ok = ok && ok->isBoolean() && ok->boolean();
                if (r.ok) {
                    if (const auto *t = resp.find("telemetry")) {
                        r.queueS = numberOr(t->find("queue_s"), 0.0);
                        r.solveS = numberOr(t->find("solve_s"), 0.0);
                        r.serviceS = numberOr(t->find("service_s"), 0.0);
                    }
                } else {
                    const auto *err = resp.find("error");
                    const auto *code = err ? err->find("code") : nullptr;
                    r.errorCode = code && code->isString() ? code->str()
                                                           : "malformed";
                    ++out.failed;
                }
                out.replies.push_back(std::move(r));
            }
        }

        const double age_limit = secondsSince(t0) - timeoutS_;
        for (const Conn &c : conns_)
            for (const Pending &p : c.pending)
                if (p.sentAt < age_limit)
                    fail("request " + std::to_string(p.id) + " (" +
                         scenarios.at(p.scenario).frame(p.id) +
                         ") unanswered after " +
                         std::to_string(timeoutS_) + " s");
    }
    out.elapsedS = last_reply;
    return out;
}

} // namespace perfbench
