// Self-tests of the benchmark's own logic: percentile ranks, the
// workloads' stream properties, and seed determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "frontend/hash_ring.hpp"
#include "stats.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

/**
 * Drive a scheduler the way the load generator does: keep `slots`
 * requests in flight, completing the oldest (or, with `lifo`, the
 * newest) first. Returns the scenarios in send order and checks the
 * in-flight key invariant after every send.
 */
std::vector<std::size_t>
drive(const WorkloadPlan &plan, std::uint64_t seed, std::size_t slots,
      std::size_t sends, bool lifo, bool *keys_distinct)
{
    Scheduler sched(plan, seed);
    std::vector<std::string> keys;
    for (const Scenario &s : plan.timed)
        keys.push_back(scenarioKeyOf(s));
    std::deque<std::size_t> inflight;
    std::vector<std::size_t> sent;
    *keys_distinct = true;
    while (sent.size() < sends) {
        while (inflight.size() < slots) {
            const auto idx = sched.next();
            if (!idx)
                break;
            inflight.push_back(*idx);
            sent.push_back(*idx);
            std::multiset<std::string> live;
            for (std::size_t i : inflight)
                live.insert(keys[i]);
            for (const std::string &k : live)
                if (live.count(k) > 1)
                    *keys_distinct = false;
        }
        if (inflight.empty())
            break;
        const std::size_t done = lifo ? inflight.back() : inflight.front();
        lifo ? inflight.pop_back() : inflight.pop_front();
        sched.completed(done);
    }
    return sent;
}

} // namespace

TEST(Percentile, NearestRankAndSampleCount)
{
    const Percentile p90 = percentile(oneTo(100), 90);
    EXPECT_EQ(p90.value, 90.0);
    EXPECT_EQ(p90.samples, 100u);
    EXPECT_EQ(p90.beyond, 10u);

    const Percentile p50 = percentile(oneTo(100), 50);
    EXPECT_EQ(p50.value, 50.0);
    EXPECT_EQ(p50.beyond, 50u);

    // Rank is a ceiling: 90% of 95 samples is 85.5 -> the 86th.
    const Percentile odd = percentile(oneTo(95), 90);
    EXPECT_EQ(odd.value, 86.0);
    EXPECT_EQ(odd.beyond, 9u);

    // Order of the input does not matter.
    std::vector<double> shuffled = oneTo(100);
    std::reverse(shuffled.begin(), shuffled.end());
    EXPECT_EQ(percentile(shuffled, 90).value, 90.0);

    EXPECT_EQ(percentile({7.0}, 90).value, 7.0);
    EXPECT_EQ(percentile({7.0}, 90).beyond, 0u);
    EXPECT_THROW(percentile({}, 50), std::invalid_argument);
    EXPECT_EQ(median({1.0, 2.0, 3.0, 10.0}), 2.5);
}

TEST(Workloads, ColdSimNeverRepeatsASimKey)
{
    for (WorkloadKind kind :
         {WorkloadKind::ColdSim, WorkloadKind::ColdSerial}) {
        for (std::uint64_t seed : {1ull, 2ull, 99ull}) {
            const WorkloadPlan plan = makePlan(kind, seed);
            // 17 profiles x 12 DVFS points, split between warm-up and
            // timed.
            EXPECT_EQ(plan.warmup.size() + plan.timed.size(), 17u * 12u);
            std::set<std::string> sims;
            for (const Scenario &s : plan.warmup)
                EXPECT_TRUE(sims.insert(s.simKey()).second) << s.simKey();
            for (const Scenario &s : plan.timed)
                EXPECT_TRUE(sims.insert(s.simKey()).second) << s.simKey();

            // The scheduler hands each timed scenario out once, then
            // stops.
            bool distinct = false;
            const auto sent = drive(plan, seed, 4, 1000, false, &distinct);
            EXPECT_EQ(sent.size(), plan.timed.size());
            EXPECT_EQ(
                std::set<std::size_t>(sent.begin(), sent.end()).size(),
                plan.timed.size());
        }
    }
}

TEST(Workloads, ColdWarmUpIsOneFixedKeyPerConnection)
{
    EXPECT_EQ(makePlan(WorkloadKind::ColdSim, 1).connections, 4);
    EXPECT_EQ(makePlan(WorkloadKind::ColdSerial, 1).connections, 1);
    // setup_s times the warm-up, so the seed must not pick its keys.
    for (WorkloadKind kind :
         {WorkloadKind::ColdSim, WorkloadKind::ColdSerial}) {
        const WorkloadPlan a = makePlan(kind, 1);
        const WorkloadPlan b = makePlan(kind, 2);
        ASSERT_EQ(a.warmup.size(),
                  static_cast<std::size_t>(a.connections))
            << toString(kind);
        ASSERT_EQ(b.warmup.size(), a.warmup.size()) << toString(kind);
        for (std::size_t i = 0; i < a.warmup.size(); ++i)
            EXPECT_EQ(a.warmup[i].frame(0), b.warmup[i].frame(0))
                << toString(kind);
        EXPECT_NE(a.timed.front().frame(0), b.timed.front().frame(0))
            << toString(kind);
    }
}

TEST(Workloads, HotSolveNeverHasTwoInFlightWithOneKey)
{
    const WorkloadPlan plan = makePlan(WorkloadKind::HotSolve, 5);
    ASSERT_EQ(plan.timed.size(), 16u);
    ASSERT_EQ(static_cast<std::size_t>(plan.connections * plan.window), 16u);
    for (bool lifo : {false, true}) {
        bool distinct = false;
        const auto sent = drive(plan, 5, 16, 500, lifo, &distinct);
        EXPECT_TRUE(distinct) << (lifo ? "lifo" : "fifo");
        // Never stalls: every completion frees a key to send again.
        EXPECT_EQ(sent.size(), 500u) << (lifo ? "lifo" : "fifo");
    }
}

TEST(Workloads, FleetMixIsThreeSteadyToOneTransient)
{
    const WorkloadPlan plan = makePlan(WorkloadKind::FleetMix, 3);
    std::size_t transient = 0;
    std::set<std::string> configs;
    for (const Scenario &s : plan.timed) {
        transient += s.query == "transient" ? 1 : 0;
        configs.insert(s.configName);
        if (s.query == "transient") {
            EXPECT_GT(s.steps, 1);
        }
    }
    EXPECT_EQ(configs.size(), 4u);
    EXPECT_EQ(plan.timed.size(), 32u);
    EXPECT_EQ(plan.timed.size() - transient, 3 * transient);
    EXPECT_EQ(plan.shards, 2);
}

TEST(Workloads, FleetMixGivesEveryShardTheSameMix)
{
    for (std::uint64_t seed : {1ull, 8ull, 1234ull}) {
        const WorkloadPlan plan = makePlan(WorkloadKind::FleetMix, seed);
        const xylem::frontend::HashRing ring(2);
        std::map<std::string, int> per_shard;
        for (const Scenario &s : plan.timed)
            ++per_shard[s.configName + "|" + s.query + "|" +
                        std::to_string(ring.owner(scenarioKeyOf(s)))];
        EXPECT_EQ(per_shard.size(), 16u); // 4 configs x 2 kinds x 2 shards
        for (const auto &[slot, n] : per_shard)
            EXPECT_EQ(n, slot.find("transient") != std::string::npos ? 1 : 3)
                << slot;
    }
}

TEST(Workloads, SameSeedSameStreams)
{
    for (WorkloadKind kind : {WorkloadKind::ColdSim, WorkloadKind::ColdSerial,
                              WorkloadKind::HotSolve, WorkloadKind::FleetMix}) {
        const WorkloadPlan a = makePlan(kind, 42);
        const WorkloadPlan b = makePlan(kind, 42);
        const WorkloadPlan c = makePlan(kind, 43);
        const auto frames = [](const WorkloadPlan &p) {
            std::vector<std::string> out;
            for (const Scenario &s : p.warmup)
                out.push_back(s.frame(0));
            for (const Scenario &s : p.timed)
                out.push_back(s.frame(0));
            return out;
        };
        EXPECT_EQ(frames(a), frames(b)) << toString(kind);
        EXPECT_NE(frames(a), frames(c)) << toString(kind);

        bool distinct = false;
        const auto sa = drive(a, 42, 4, 200, false, &distinct);
        const auto sb = drive(b, 42, 4, 200, false, &distinct);
        EXPECT_EQ(sa, sb) << toString(kind);
    }
}

TEST(Workloads, FramesParseAndNameTheirWorkload)
{
    EXPECT_EQ(workloadFromName("hot_solve"), WorkloadKind::HotSolve);
    EXPECT_EQ(workloadFromName("cold_serial"), WorkloadKind::ColdSerial);
    EXPECT_FALSE(workloadFromName("warm_solve").has_value());
    for (WorkloadKind kind : {WorkloadKind::ColdSim, WorkloadKind::ColdSerial,
                              WorkloadKind::HotSolve, WorkloadKind::FleetMix})
        for (const Scenario &s : makePlan(kind, 7).timed)
            EXPECT_NO_THROW(scenarioKeyOf(s)) << s.frame(0);
}
