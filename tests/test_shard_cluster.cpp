// ShardCluster (shard tier) under the deterministic manual clock: routing
// determinism, transport failover on kill, roster death and epoch-fenced
// re-admission, stale-epoch refusal after an un-noticed kill+revive,
// replies racing a lost admit verdict (orphaned or beating it home),
// cross-shard degraded cache fallback, chaos-plan replay (shard events AND
// forwarded in-service faults), no-stranding on shutdown, fleet metrics
// that never go backwards across a kill, and the gossip drills: survivors
// converging on one roster over a lossy wire, split-brain refutation, and
// same-seed replay of the roster and the wire.

#include "svc/shard/cluster.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <initializer_list>
#include <latch>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/knobs.hpp"
#include "core/synthetic.hpp"
#include "testing/seeds.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::Backend;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::RejectReason;
using wavehpc::svc::ServiceShutdownError;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::shard::ClusterCounters;
using wavehpc::svc::shard::ClusterSubmitResult;
using wavehpc::svc::shard::ShardCluster;
using wavehpc::svc::shard::ShardClusterConfig;
using wavehpc::svc::shard::ShardHealth;
using wavehpc::svc::shard::ShardId;
using wavehpc::svc::shard::WireStats;

std::shared_ptr<const ImageF> scene(std::uint64_t seed, std::size_t n = 32) {
    return std::make_shared<const ImageF>(wavehpc::core::landsat_tm_like(n, n, seed));
}

TransformRequest request_for(std::shared_ptr<const ImageF> img, int taps = 4,
                             int levels = 1) {
    TransformRequest req;
    req.image = std::move(img);
    req.taps = taps;
    req.levels = levels;
    req.backend = Backend::Serial;
    return req;
}

/// Deterministic tier-1 posture: no monitor thread (the test drives
/// tick()), fast failure-detector windows.
ShardClusterConfig manual_cfg(std::size_t shards, std::size_t replicas = 2) {
    ShardClusterConfig cfg;
    cfg.shard_count = shards;
    cfg.replicas = replicas;
    cfg.manual_clock = true;
    cfg.membership.heartbeat_interval = 0.01;
    cfg.membership.suspect_after = 0.03;
    cfg.membership.dead_after = 0.09;
    cfg.membership.readmit_oks = 2;
    return cfg;
}

/// A scene whose replica chain starts at `primary` (search over seeds).
std::shared_ptr<const ImageF> scene_with_primary(ShardCluster& cluster,
                                                 ShardId primary) {
    for (std::uint64_t seed = 1; seed < 200; ++seed) {
        auto img = scene(seed);
        if (cluster.placement(request_for(img)).front() == primary) return img;
    }
    ADD_FAILURE() << "no scene found with primary " << primary;
    return scene(1);
}

TEST(ShardCluster, TwoClustersWithOneConfigAgreeOnPlacement) {
    ThreadPool pool(2);
    ShardCluster a(pool, manual_cfg(4));
    ShardCluster b(pool, manual_cfg(4));
    for (std::uint64_t s = 1; s <= 16; ++s) {
        const auto req = request_for(scene(s));
        EXPECT_EQ(a.placement(req), b.placement(req));
    }
}

TEST(ShardCluster, DeliversToThePrimaryAndCompletes) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const auto img = scene(7);
    const auto chain = cluster.placement(request_for(img));
    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, chain.front());
    EXPECT_EQ(r.hops, 1U);
    EXPECT_FALSE(r.cross_shard_degraded);
    const auto reply = r.result.future.get();
    EXPECT_FALSE(reply.degraded);
    EXPECT_TRUE(wavehpc::svc::audit_result(*reply.result));
    EXPECT_EQ(cluster.counters().accepted, 1U);
}

TEST(ShardCluster, KillFailsOverToTheNextReplicaBeforeAnyHeartbeat) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const auto img = scene_with_primary(cluster, 0);
    const auto chain = cluster.placement(request_for(img));
    ASSERT_EQ(chain.front(), 0U);

    cluster.kill(0);
    // The roster has not noticed (no tick): the transport refusal alone
    // must carry the failover.
    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, chain[1]);
    (void)r.result.future.get();
    const auto cc = cluster.counters();
    EXPECT_EQ(cc.kills, 1U);
    EXPECT_EQ(cc.failovers, 1U);
    EXPECT_GE(cc.transport_refusals, 1U);
    EXPECT_EQ(cc.roster_skips, 0U);
}

TEST(ShardCluster, RosterDeathSkipsTheCorpseWithoutTouchingItsTransport) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const auto img = scene_with_primary(cluster, 1);

    cluster.tick(0.0);
    cluster.kill(1);
    cluster.tick(0.05);  // silent past suspect_after
    EXPECT_EQ(cluster.health(1), ShardHealth::Suspect);
    cluster.tick(0.15);  // past dead_after
    EXPECT_EQ(cluster.health(1), ShardHealth::Dead);

    const auto before = cluster.counters();
    EXPECT_EQ(before.deaths, 1U);
    EXPECT_EQ(before.suspicions, 1U);

    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    (void)r.result.future.get();
    const auto after = cluster.counters();
    EXPECT_EQ(after.roster_skips, before.roster_skips + 1);
    // Dead means skipped from the roster, not probed and refused.
    EXPECT_EQ(after.transport_refusals, before.transport_refusals);
}

TEST(ShardCluster, ReadmissionIsEpochFencedAndDeterministic) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const auto img = scene_with_primary(cluster, 0);

    cluster.tick(0.0);
    cluster.kill(0);
    cluster.tick(0.05);
    cluster.tick(0.15);
    ASSERT_EQ(cluster.health(0), ShardHealth::Dead);

    cluster.revive(0);
    // One fresh beat is not enough (readmit_oks = 2)...
    cluster.tick(0.20);
    EXPECT_EQ(cluster.health(0), ShardHealth::Dead);
    // ...two consecutive fresh beats of the new incarnation re-admit.
    cluster.tick(0.21);
    EXPECT_EQ(cluster.health(0), ShardHealth::Alive);
    EXPECT_EQ(cluster.incarnation(0), 1U);
    EXPECT_EQ(cluster.counters().readmissions, 1U);

    // And the primary serves again.
    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, 0U);
    (void)r.result.future.get();
}

// A flapping shard: killed and revived between two roster observations.
// The router's captured incarnation is stale; the transport must refuse
// (StaleEpoch) rather than let a pre-kill belief reach the fresh life —
// the reply a client gets can then never come from a life the roster
// never admitted.
TEST(ShardCluster, StaleEpochRefusalAfterUnnoticedKillRevive) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const auto img = scene_with_primary(cluster, 2);
    const auto chain = cluster.placement(request_for(img));

    cluster.tick(0.0);       // roster believes incarnation 0, Alive
    cluster.kill(2);
    cluster.revive(2);       // incarnation 1; roster still believes 0
    ASSERT_EQ(cluster.health(2), ShardHealth::Alive);

    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, chain[1]);  // fenced off the primary
    (void)r.result.future.get();
    EXPECT_GE(cluster.counters().stale_epoch_refusals, 1U);

    // The next roster pass hears the new incarnation (the shard never
    // died in roster terms, so no readmission gate) and routing recovers.
    cluster.tick(0.01);
    EXPECT_EQ(cluster.incarnation(2), 1U);
    ClusterSubmitResult r2 = cluster.submit(request_for(img));
    ASSERT_TRUE(r2.result.accepted);
    EXPECT_EQ(r2.shard, 2U);
    (void)r2.result.future.get();
}

// Every ack of the victim's request leg is lost (shard -> router on the
// request tag), so the router gives up and fails over although the victim
// admitted the request. The victim's late reply has no in-flight entry:
// it is dropped and counted, never delivered twice or held forever. Both
// pool workers are parked until submit() returns, so the victim computes
// only after the router has withdrawn the attempt: the service uses the
// pool for its batches alone, so admission never waits on it.
TEST(ShardCluster, ReplyToAWithdrawnAttemptIsDroppedAndCounted) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const ShardId victim = 1;
    const auto img = scene_with_primary(cluster, victim);
    const auto chain = cluster.placement(request_for(img));

    wavehpc::mesh::FaultPlan plan;
    wavehpc::mesh::LinkFault lost_acks;
    lost_acks.src = static_cast<int>(victim);
    lost_acks.dst = static_cast<int>(cluster.shard_count());  // the router
    lost_acks.tag = wavehpc::svc::shard::wire::kRequestTag;
    plan.links = {lost_acks};
    cluster.set_transport_faults(plan);

    std::latch parked(2);
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    for (int w = 0; w < 2; ++w) {
        pool.submit([&parked, released] {
            parked.count_down();
            released.wait();
        });
    }
    parked.wait();
    ClusterSubmitResult r = cluster.submit(request_for(img));
    release.set_value();
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, chain[1]);
    EXPECT_TRUE(wavehpc::svc::audit_result(*r.result.future.get().result));

    // The victim computed anyway; its reply arrives after the withdrawal.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (cluster.counters().orphan_replies == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const auto c = cluster.counters();
    EXPECT_EQ(c.orphan_replies, 1U);
    EXPECT_EQ(c.failovers, 1U);
    EXPECT_EQ(c.transport_refusals, 1U);
    EXPECT_EQ(c.reply_wire_fallbacks, 0U);
    ASSERT_NE(cluster.service(victim), nullptr);
    EXPECT_EQ(cluster.service(victim)->metrics().counters.completed, 1U);
}

// A cache hit answers inside the request leg, before the admit verdict
// travels back. With that verdict lost, the promise the router registered
// before the request leg has already been resolved by the reply: the
// router reports the request served by the victim instead of failing over.
TEST(ShardCluster, CacheHitReplyBeatsALostAdmitVerdict) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(3));
    const ShardId victim = 2;
    const auto img = scene_with_primary(cluster, victim);
    (void)cluster.submit_to_shard(victim, request_for(img)).future.get();  // warm

    wavehpc::mesh::FaultPlan plan;
    wavehpc::mesh::LinkFault lost_acks;
    lost_acks.src = static_cast<int>(victim);
    lost_acks.dst = static_cast<int>(cluster.shard_count());
    lost_acks.tag = wavehpc::svc::shard::wire::kRequestTag;
    plan.links = {lost_acks};
    cluster.set_transport_faults(plan);

    ClusterSubmitResult r = cluster.submit(request_for(img));
    ASSERT_TRUE(r.result.accepted);
    EXPECT_EQ(r.shard, victim);
    ASSERT_EQ(r.result.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(r.result.future.get().cache_hit);
    const auto c = cluster.counters();
    EXPECT_EQ(c.failovers, 0U);
    EXPECT_EQ(c.orphan_replies, 0U);
    EXPECT_EQ(c.reply_wire_fallbacks, 0U);
}

TEST(ShardCluster, CrossShardDegradedServesAnotherShardsExactCacheEntry) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2, /*replicas=*/1));
    const auto img = scene_with_primary(cluster, 0);
    const ShardId other = 1;

    // Warm the *non-primary* shard's cache out of band, then kill the
    // whole (single-replica) chain.
    (void)cluster.submit_to_shard(other, request_for(img)).future.get();
    cluster.kill(0);

    TransformRequest req = request_for(img);
    req.allow_degraded = true;
    ClusterSubmitResult r = cluster.submit(req);
    ASSERT_TRUE(r.result.accepted);
    EXPECT_TRUE(r.cross_shard_degraded);
    EXPECT_EQ(r.shard, other);
    ASSERT_EQ(r.result.future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const auto reply = r.result.future.get();
    EXPECT_TRUE(reply.cache_hit);
    EXPECT_FALSE(reply.degraded);  // exact key: full-fidelity answer
    EXPECT_EQ(cluster.counters().cross_shard_degraded, 1U);

    // Without the opt-in the same situation is an honest reject.
    ClusterSubmitResult refused = cluster.submit(request_for(img));
    EXPECT_FALSE(refused.result.accepted);
    EXPECT_EQ(refused.result.reject_reason, RejectReason::Saturated);
    EXPECT_GT(refused.result.retry_after_seconds, 0.0);
}

TEST(ShardCluster, CrossShardVariantFallbackIsMarkedDegraded) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2, /*replicas=*/1));
    const auto img = scene_with_primary(cluster, 0);

    // The other shard holds a *different transform* of the same scene.
    (void)cluster.submit_to_shard(1, request_for(img, 8, 1)).future.get();
    cluster.kill(0);

    TransformRequest req = request_for(img, 4, 1);
    req.allow_degraded = true;
    ClusterSubmitResult r = cluster.submit(req);
    ASSERT_TRUE(r.result.accepted);
    EXPECT_TRUE(r.cross_shard_degraded);
    const auto reply = r.result.future.get();
    EXPECT_TRUE(reply.degraded);  // variant, not the asked-for key
}

TEST(ShardCluster, ChaosPlanReplaysKillAndReviveAgainstTheManualClock) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    cluster.set_chaos_plan(ChaosPlan::parse("shard_kill=0:100:200", 1));

    cluster.tick(0.05);
    EXPECT_TRUE(cluster.submit_to_shard(0, request_for(scene(3))).accepted);

    cluster.tick(0.11);  // kill due at 0.10
    EXPECT_EQ(cluster.counters().kills, 1U);
    const auto refused = cluster.submit_to_shard(0, request_for(scene(3)));
    EXPECT_FALSE(refused.accepted);

    cluster.tick(0.31);  // revive due at 0.30
    EXPECT_EQ(cluster.counters().revivals, 1U);
    auto sub = cluster.submit_to_shard(0, request_for(scene(3)));
    ASSERT_TRUE(sub.accepted);
    (void)sub.future.get();
}

// Every shard's service checks its config: a watchdog past the knob's
// one-hour domain fails the cluster's construction.
TEST(ShardCluster, ServiceConfigOutsideTheKnobDomainThrows) {
    ThreadPool pool(2);
    ShardClusterConfig cfg = manual_cfg(2);
    cfg.service.resilience.watchdog_seconds = std::numeric_limits<double>::infinity();
    EXPECT_THROW({ ShardCluster cluster(pool, cfg); }, std::invalid_argument);
}

TEST(ShardCluster, ChaosPlanRejectsEventsNamingAbsentShards) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    EXPECT_THROW(
        cluster.set_chaos_plan(ChaosPlan::parse("shard_kill=5:0:100", 1)),
        std::out_of_range);
}

// The in-service half of the plan is pushed to every shard and survives
// revival: a 30 ms injected stall shows up in shard 0's chaos stats both
// before a kill and in the revived life.
TEST(ShardCluster, ServiceFaultsForwardToShardsAndToRevivedLives) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    cluster.set_chaos_plan(ChaosPlan::parse("stall=1.0,stall_ms=30", 1));

    (void)cluster.submit_to_shard(0, request_for(scene(11))).future.get();
    ASSERT_NE(cluster.service(0), nullptr);
    EXPECT_GE(cluster.service(0)->chaos_stats().stalls, 1U);

    cluster.kill(0);
    cluster.revive(0);
    (void)cluster.submit_to_shard(0, request_for(scene(12))).future.get();
    ASSERT_NE(cluster.service(0), nullptr);
    EXPECT_GE(cluster.service(0)->chaos_stats().stalls, 1U);
}

TEST(ShardCluster, ShutdownResolvesEveryAcceptedFuture) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    std::vector<wavehpc::svc::TransformFuture> futures;
    for (std::uint64_t s = 1; s <= 6; ++s) {
        auto r = cluster.submit(request_for(scene(s)));
        if (r.result.accepted) futures.push_back(std::move(r.result.future));
    }
    cluster.shutdown();
    for (auto& f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);  // value or error — resolved
        try {
            (void)f.get();
        } catch (const ServiceShutdownError&) {
            // queued work failed honestly; that is the contract
        }
    }
    // Post-shutdown submits are refused, not crashed.
    const auto late = cluster.submit(request_for(scene(99)));
    EXPECT_FALSE(late.result.accepted);
}

TEST(ShardCluster, FleetMetricsSurviveAKillViaTheRetiredAccumulator) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    (void)cluster.submit_to_shard(0, request_for(scene(21))).future.get();
    (void)cluster.submit_to_shard(1, request_for(scene(22))).future.get();

    const auto before = cluster.fleet_metrics();
    EXPECT_EQ(before.counters.submitted, 2U);
    EXPECT_EQ(before.counters.completed, 2U);
    EXPECT_EQ(cluster.fleet_cache_stats().insertions, 2U);

    cluster.kill(0);  // shard 0's life is folded into the retired snapshot
    const auto after = cluster.fleet_metrics();
    EXPECT_EQ(after.counters.submitted, 2U);
    EXPECT_EQ(after.counters.completed, 2U);
    EXPECT_EQ(after.total.count(), before.total.count());
    EXPECT_EQ(cluster.fleet_cache_stats().insertions, 2U);
}

TEST(ShardCluster, FleetArenaStatsSurviveAKillViaTheRetiredAccumulator) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(2));
    (void)cluster.submit_to_shard(0, request_for(scene(31))).future.get();
    (void)cluster.submit_to_shard(1, request_for(scene(32))).future.get();

    const auto before = cluster.fleet_arena_stats();
    EXPECT_GT(before.misses, 0U);   // cold shards had to allocate slabs
    EXPECT_GT(before.returns, 0U);  // row scratch flowed back mid-compute
    // Each shard's cache holds its donated result, so slabs are resident.
    EXPECT_GT(before.bytes_outstanding, 0U);

    cluster.kill(0);  // shard 0's arena history folds into the retired snapshot
    const auto after = cluster.fleet_arena_stats();
    EXPECT_EQ(after.hits, before.hits);      // counter history is retained...
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GE(after.returns, before.returns);
    EXPECT_EQ(after.high_water_bytes, before.high_water_bytes);
    // ...but the dead life's residency gauges are zeroed on retirement:
    // only live shards still contribute pooled/outstanding bytes.
    EXPECT_LT(after.bytes_outstanding, before.bytes_outstanding);
    EXPECT_LE(after.bytes_pooled, before.bytes_pooled);
    EXPECT_EQ(after.heap_fallbacks, 0U);  // 32x32 scenes fit the slab classes
}

// The ISSUE-10 split-brain drill, deterministic edition (bench_shard_sweep
// runs the wall-clock twin). An asymmetric partition mutes the victim's
// gossip *to the router* and the router's requests *to the victim*, while
// the victim still hears the router's broadcasts and its peers still hear
// the victim: the router declares it Dead, the victim reads that claim and
// refutes by bumping its incarnation, and after the window heals the fleet
// converges to one roster with the victim re-admitted under its new life.
// Throughout, goodput stays >= 90% via replica-chain failover and no value
// reply is ever delivered under a mismatched incarnation.
TEST(ShardCluster, SplitBrainDrillRefutesHealsAndKeepsGoodput) {
    ThreadPool pool(2);
    ShardCluster cluster(pool, manual_cfg(4, 2));
    const ShardId victim = 2;
    const auto victim_scene = scene_with_primary(cluster, victim);

    namespace wire = wavehpc::svc::shard::wire;
    wavehpc::mesh::FaultPlan plan;
    // The victim's outbound gossip is muted to *everyone* (so no peer can
    // keep it alive by relay), but it still hears inbound broadcasts —
    // the asymmetric half that makes refutation possible.
    wavehpc::mesh::LinkFault mute_beats;
    mute_beats.src = static_cast<int>(victim);
    mute_beats.dst = -1;  // every destination, router and peers alike
    mute_beats.tag = wire::kGossipTag;
    mute_beats.t_begin = 0.02;
    mute_beats.t_end = 0.30;
    mute_beats.drop_probability = 1.0;
    wavehpc::mesh::LinkFault mute_requests = mute_beats;  // router -> victim
    mute_requests.src = static_cast<int>(cluster.shard_count());
    mute_requests.dst = static_cast<int>(victim);
    mute_requests.tag = wire::kRequestTag;
    plan.links = {mute_beats, mute_requests};
    cluster.set_transport_faults(plan);

    std::size_t submitted = 0;
    std::size_t accepted = 0;
    std::vector<wavehpc::svc::TransformFuture> futures;
    for (int i = 0; i <= 40; ++i) {
        const double now = 0.01 * static_cast<double>(i);
        cluster.tick(now);
        if (now < 0.02 || now >= 0.30) continue;  // submit inside the window
        for (auto img : {victim_scene, scene(1000 + static_cast<std::uint64_t>(i))}) {
            auto out = cluster.submit(request_for(std::move(img)));
            ++submitted;
            if (out.result.accepted) {
                ++accepted;
                futures.push_back(out.result.future);
            }
        }
    }
    for (auto& f : futures) EXPECT_NO_THROW((void)f.get());

    // Goodput through the partition: the victim's keys failed over.
    ASSERT_GT(submitted, 0U);
    EXPECT_GE(static_cast<double>(accepted),
              0.9 * static_cast<double>(submitted));

    const auto c = cluster.counters();
    EXPECT_GT(c.failovers, 0U);       // victim-primary keys served by replica 2
    EXPECT_GE(c.suspicions, 1U);      // the router walked Alive -> Suspect...
    EXPECT_GE(c.deaths, 1U);          // ...-> Dead on the muted beats
    EXPECT_EQ(c.refutations, 1U);     // exactly one self-defense, no livelock
    EXPECT_GE(c.readmissions, 1U);    // the new life re-admitted post-heal
    EXPECT_EQ(c.stale_replies_delivered, 0U);
    EXPECT_GT(cluster.wire_stats().drops, 0U);  // the partition was real

    // Post-heal convergence: the victim is Alive under a bumped
    // incarnation and every node's gossiped view agrees with the router.
    EXPECT_EQ(cluster.health(victim), ShardHealth::Alive);
    EXPECT_GE(cluster.incarnation(victim), 1U);
    for (ShardId s = 0; s < cluster.shard_count(); ++s) {
        EXPECT_EQ(cluster.node_roster_hash(s), cluster.roster_hash())
            << "shard " << s << " diverged after heal";
    }
}


/// A lossy wire for the gossip drills: 5 % drops and 2 % corruption on
/// every frame, drawn from the cluster's transport seed.
ShardClusterConfig lossy_cfg(std::size_t shards, std::uint64_t transport_seed) {
    ShardClusterConfig cfg = manual_cfg(shards);
    cfg.gossip_seed = transport_seed;
    cfg.transport_faults.seed = 0;  // inherit gossip_seed
    cfg.transport_faults.drop_probability = 0.05;
    cfg.transport_faults.corrupt_probability = 0.02;
    return cfg;
}

/// One transport seed for a gossip drill, with the text a failure prints
/// to replay it.
struct DrillSeed {
    std::uint64_t seed;
    std::string repro;
};

/// The drill's fixed transport seeds, plus three derived from
/// WAVEHPC_FAULT_SEED when it is set (CI's partition drill sweeps it).
std::vector<DrillSeed> drill_seeds(std::initializer_list<std::uint64_t> fixed) {
    constexpr const char* kSeedEnv = "WAVEHPC_FAULT_SEED";
    std::vector<DrillSeed> out;
    for (const std::uint64_t seed : fixed) {
        out.push_back({seed, "transport seed " + std::to_string(seed)});
    }
    if (const auto base = wavehpc::core::env_unsigned(kSeedEnv)) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            const std::uint64_t seed = wavehpc::testing::derive_seed(*base, i);
            out.push_back({seed, "transport seed " + std::to_string(seed) + "; " +
                                     wavehpc::testing::repro_line(
                                         kSeedEnv, *base,
                                         "./build/tests/test_shard_cluster")});
        }
    }
    return out;
}

// Two shards die mid-run on a lossy wire. The gossiped rosters must still
// converge: both corpses Dead, every survivor Alive, and every survivor's
// own view equal to the router's — under several transport seeds, since
// agreement may not depend on which frames the wire loses.
TEST(ShardCluster, SurvivorsConvergeOnOneRosterAfterTwoKills) {
    for (const DrillSeed& drill : drill_seeds({1, 7, 1996})) {
        ThreadPool pool(2);
        ShardCluster cluster(pool, lossy_cfg(6, drill.seed));
        for (int i = 0; i <= 100; ++i) {
            if (i == 25) cluster.kill(1);
            if (i == 40) cluster.kill(4);
            cluster.tick(0.01 * static_cast<double>(i));
        }
        EXPECT_EQ(cluster.health(1), ShardHealth::Dead) << drill.repro;
        EXPECT_EQ(cluster.health(4), ShardHealth::Dead) << drill.repro;
        for (ShardId s = 0; s < cluster.shard_count(); ++s) {
            if (s == 1 || s == 4) continue;
            EXPECT_EQ(cluster.health(s), ShardHealth::Alive) << "shard " << s << "; "
                                                             << drill.repro;
            EXPECT_EQ(cluster.node_roster_hash(s), cluster.roster_hash())
                << "shard " << s << "; " << drill.repro;
        }
        EXPECT_GT(cluster.wire_stats().drops, 0U) << drill.repro;
    }
}

// One config, one fault plan and one tick sequence (with a kill and a
// revive) replay bit-identically: the manual-clock gossip round is
// sequential and every fault draw is a function of the transport seed.
TEST(ShardCluster, SameSeedReplaysTheRosterAndWireBitIdentically) {
    struct Replay {
        std::uint64_t roster_hash = 0;
        std::uint64_t epoch = 0;
        std::vector<std::uint64_t> node_hashes;
        WireStats wire;
        ClusterCounters counters;
    };
    const auto run = [] {
        ThreadPool pool(2);
        ShardCluster cluster(pool, lossy_cfg(5, 42));
        for (int i = 0; i <= 80; ++i) {
            if (i == 20) cluster.kill(2);
            if (i == 45) cluster.revive(2);
            cluster.tick(0.01 * static_cast<double>(i));
        }
        Replay r;
        r.roster_hash = cluster.roster_hash();
        r.epoch = cluster.roster_epoch();
        for (ShardId s = 0; s < cluster.shard_count(); ++s) {
            r.node_hashes.push_back(cluster.node_roster_hash(s));
        }
        r.wire = cluster.wire_stats();
        r.counters = cluster.counters();
        return r;
    };
    const Replay a = run();
    const Replay b = run();
    EXPECT_EQ(a.roster_hash, b.roster_hash);
    EXPECT_EQ(a.epoch, b.epoch);
    EXPECT_EQ(a.node_hashes, b.node_hashes);
    EXPECT_EQ(a.wire.frames_sent, b.wire.frames_sent);
    EXPECT_EQ(a.wire.frames_delivered, b.wire.frames_delivered);
    EXPECT_EQ(a.wire.drops, b.wire.drops);
    EXPECT_EQ(a.wire.corrupt_rejections, b.wire.corrupt_rejections);
    EXPECT_EQ(a.wire.retransmits, b.wire.retransmits);
    EXPECT_EQ(a.wire.duplicates_suppressed, b.wire.duplicates_suppressed);
    EXPECT_EQ(a.wire.gave_up, b.wire.gave_up);
    EXPECT_EQ(a.counters.suspicions, b.counters.suspicions);
    EXPECT_EQ(a.counters.deaths, b.counters.deaths);
    EXPECT_EQ(a.counters.readmissions, b.counters.readmissions);
    EXPECT_EQ(a.counters.refutations, b.counters.refutations);
    // The run exercised what it replays: lost frames, a death, a return.
    EXPECT_GT(a.wire.drops, 0U);
    EXPECT_GE(a.counters.deaths, 1U);
    EXPECT_GE(a.counters.readmissions, 1U);
}

}  // namespace
