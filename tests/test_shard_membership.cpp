// Heartbeat failure detector (shard tier): the Alive -> Suspect -> Dead
// state machine under explicit time, the epoch fence on re-admission (a
// stale beat from a previous life cannot resurrect a corpse), roster-hash
// agreement between independent observers of one heartbeat stream, and
// gossip-lite convergence of the same state machine run SPMD on the mesh
// machine under virtual time.

#include "svc/shard/membership.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "core/knobs.hpp"
#include "svc/shard/mesh_gossip.hpp"
#include "svc/shard/wire.hpp"
#include "testing/seeds.hpp"

namespace {

using wavehpc::svc::shard::FailureDetector;
using wavehpc::svc::shard::MembershipConfig;
using wavehpc::svc::shard::MeshGossipParams;
using wavehpc::svc::shard::MeshGossipResult;
using wavehpc::svc::shard::RosterTransition;
using wavehpc::svc::shard::run_mesh_gossip;
using wavehpc::svc::shard::ShardHealth;

constexpr const char* kSeedEnv = "WAVEHPC_SCHED_SEED";
constexpr const char* kBinary = "./build/tests/test_shard_membership";

/// One engine schedule for a mesh gossip drill, with the text a failure
/// prints to replay it.
struct Schedule {
    std::uint64_t seed;
    std::string repro;
};

/// The drill's fixed schedule seeds, plus three derived from
/// WAVEHPC_SCHED_SEED when it is set (CI's partition drill sweeps it).
std::vector<Schedule> schedules(std::initializer_list<std::uint64_t> fixed) {
    std::vector<Schedule> out;
    for (const std::uint64_t seed : fixed) {
        out.push_back({seed, "schedule seed " + std::to_string(seed)});
    }
    if (const auto base = wavehpc::core::env_unsigned(kSeedEnv)) {
        for (std::uint64_t i = 0; i < 3; ++i) {
            const std::uint64_t seed = wavehpc::testing::derive_seed(*base, i);
            out.push_back({seed, "schedule seed " + std::to_string(seed) + "; " +
                                     wavehpc::testing::repro_line(kSeedEnv, *base, kBinary)});
        }
    }
    return out;
}

MembershipConfig fast_cfg() {
    MembershipConfig cfg;
    cfg.heartbeat_interval = 0.01;
    cfg.suspect_after = 0.03;
    cfg.dead_after = 0.09;
    cfg.readmit_oks = 2;
    return cfg;
}

TEST(FailureDetectorTest, RejectsInvalidConfigs) {
    EXPECT_THROW(FailureDetector(0, fast_cfg()), std::invalid_argument);
    MembershipConfig bad = fast_cfg();
    bad.dead_after = bad.suspect_after / 2.0;  // dead before suspect
    EXPECT_THROW(FailureDetector(2, bad), std::invalid_argument);
}

TEST(FailureDetectorTest, SilenceWalksAliveThroughSuspectToDead) {
    FailureDetector fd(2, fast_cfg());
    fd.observe(0, true, 0.0, 1);
    fd.observe(1, true, 0.0, 1);
    fd.sweep(0.02);  // inside suspect_after
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);

    fd.observe(1, true, 0.04, 1);  // shard 1 keeps beating; shard 0 is silent
    fd.sweep(0.04);
    EXPECT_EQ(fd.health(0), ShardHealth::Suspect);
    EXPECT_EQ(fd.health(1), ShardHealth::Alive);

    fd.observe(1, true, 0.10, 1);
    fd.sweep(0.10);
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);
    EXPECT_EQ(fd.health(1), ShardHealth::Alive);
    EXPECT_EQ(fd.alive_count(), 1U);
}

TEST(FailureDetectorTest, OkBeatRecoversASuspectWithoutEpochFence) {
    FailureDetector fd(1, fast_cfg());
    fd.observe(0, true, 0.0, 1);
    fd.sweep(0.05);
    ASSERT_EQ(fd.health(0), ShardHealth::Suspect);
    fd.observe(0, true, 0.05, 1);  // same incarnation suffices pre-death
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);
}

TEST(FailureDetectorTest, StaleIncarnationCannotResurrectADeadShard) {
    FailureDetector fd(1, fast_cfg());
    fd.observe(0, true, 0.0, 3);
    fd.sweep(0.10);
    ASSERT_EQ(fd.health(0), ShardHealth::Dead);

    // Beats from the dead life (same or older incarnation): ignored forever.
    for (int i = 0; i < 10; ++i) {
        fd.observe(0, true, 0.10 + 0.01 * i, 3);
        fd.observe(0, true, 0.10 + 0.01 * i, 2);
    }
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);

    // A newer incarnation re-admits, but only after readmit_oks
    // *consecutive* fresh beats.
    fd.observe(0, true, 0.25, 4);
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);  // 1 of 2
    fd.observe(0, true, 0.26, 4);
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);
    EXPECT_EQ(fd.incarnation(0), 4U);
}

TEST(FailureDetectorTest, NewerIncarnationRestartsReadmissionProgress) {
    MembershipConfig cfg = fast_cfg();
    cfg.readmit_oks = 3;
    FailureDetector fd(1, cfg);
    fd.observe(0, true, 0.0, 1);
    fd.sweep(0.10);
    ASSERT_EQ(fd.health(0), ShardHealth::Dead);

    fd.observe(0, true, 0.20, 2);
    fd.observe(0, true, 0.21, 2);  // 2 of 3 toward incarnation 2
    fd.observe(0, true, 0.22, 3);  // an even newer life appears: restart
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);
    fd.observe(0, true, 0.23, 3);
    fd.observe(0, true, 0.24, 3);
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);
    EXPECT_EQ(fd.incarnation(0), 3U);
}

// Boundary: suspect_after == dead_after is a legal config (the ctor only
// requires suspect <= dead). One sweep at exactly the shared threshold must
// run BOTH demotions — Alive -> Suspect -> Dead in a single call — because
// the Dead check reads the post-demotion health, not a snapshot.
TEST(FailureDetectorTest, EqualSuspectAndDeadWindowsDemoteTwiceInOneSweep) {
    MembershipConfig cfg = fast_cfg();
    cfg.dead_after = cfg.suspect_after;  // 0.03 == 0.03
    FailureDetector fd(1, cfg);
    fd.observe(0, true, 0.0, 1);

    fd.sweep(cfg.suspect_after - 1e-9);  // just inside: still Alive
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);

    fd.sweep(cfg.suspect_after);  // exactly at the shared edge
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);
    const auto ts = fd.drain_transitions();
    ASSERT_EQ(ts.size(), 2U);
    EXPECT_EQ(ts[0].to, ShardHealth::Suspect);
    EXPECT_EQ(ts[1].to, ShardHealth::Dead);
    EXPECT_EQ(ts[0].at, ts[1].at);  // same sweep instant
    EXPECT_EQ(fd.epoch(), 2U);
}

// Boundary: an ok beat carrying the SAME timestamp as the Suspect -> Dead
// edge. The outcome is decided by call order, and both orders must be
// self-consistent: beat-then-sweep rescues the shard (silence resets to 0
// before the sweep looks), sweep-then-beat kills it and the epoch fence
// then ignores the same-incarnation beat — a beat that lost the race
// cannot resurrect a corpse.
TEST(FailureDetectorTest, OkBeatExactlyAtTheDeadEdgeIsDecidedByCallOrder) {
    const MembershipConfig cfg = fast_cfg();

    FailureDetector beat_first(1, cfg);
    beat_first.observe(0, true, 0.0, 1);
    beat_first.sweep(cfg.suspect_after);  // -> Suspect
    ASSERT_EQ(beat_first.health(0), ShardHealth::Suspect);
    beat_first.observe(0, true, cfg.dead_after, 1);  // rescued at the edge
    beat_first.sweep(cfg.dead_after);
    EXPECT_EQ(beat_first.health(0), ShardHealth::Alive);

    FailureDetector sweep_first(1, cfg);
    sweep_first.observe(0, true, 0.0, 1);
    sweep_first.sweep(cfg.suspect_after);
    sweep_first.sweep(cfg.dead_after);  // -> Dead at the edge
    ASSERT_EQ(sweep_first.health(0), ShardHealth::Dead);
    sweep_first.observe(0, true, cfg.dead_after, 1);  // same life: fenced out
    EXPECT_EQ(sweep_first.health(0), ShardHealth::Dead);
    sweep_first.observe(0, true, cfg.dead_after + 0.01, 1);
    EXPECT_EQ(sweep_first.health(0), ShardHealth::Dead);  // forever
}

// Boundary: a stale-incarnation beat landing in the middle of readmission
// counting must neither advance nor reset the count.
TEST(FailureDetectorTest, StaleBeatDuringReadmissionCountingIsInert) {
    MembershipConfig cfg = fast_cfg();
    cfg.readmit_oks = 3;
    FailureDetector fd(1, cfg);
    fd.observe(0, true, 0.0, 1);
    fd.sweep(0.10);
    ASSERT_EQ(fd.health(0), ShardHealth::Dead);

    fd.observe(0, true, 0.20, 2);  // 1 of 3 toward the new life
    fd.observe(0, true, 0.21, 1);  // straggler from the dead life: inert
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);
    fd.observe(0, true, 0.22, 2);  // 2 of 3 — the count was not reset
    fd.observe(0, true, 0.23, 2);  // 3 of 3
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);
    EXPECT_EQ(fd.incarnation(0), 2U);
}

// merge_entry: relayed duplicates of one beat (same incarnation, same
// last_ok) count at most once no matter how many peers relay them, a
// strictly newer last_ok counts as one fresh beat, and an older
// incarnation is a previous life.
TEST(FailureDetectorTest, MergeEntryFreshnessFenceDedupesRelayedBeats) {
    MembershipConfig cfg = fast_cfg();
    cfg.readmit_oks = 2;
    FailureDetector fd(1, cfg);
    fd.observe(0, true, 0.0, 1);
    fd.sweep(0.10);
    ASSERT_EQ(fd.health(0), ShardHealth::Dead);

    // Three peers relay the same (inc 2, last_ok 0.20) beat: one counts.
    EXPECT_TRUE(fd.merge_entry(0, 2, 0.20, 0.20));
    EXPECT_FALSE(fd.merge_entry(0, 2, 0.20, 0.20));
    EXPECT_FALSE(fd.merge_entry(0, 2, 0.20, 0.21));
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);  // still 1 of 2

    EXPECT_FALSE(fd.merge_entry(0, 1, 0.25, 0.25));  // previous life
    EXPECT_TRUE(fd.merge_entry(0, 2, 0.22, 0.22));   // genuinely fresh
    EXPECT_EQ(fd.health(0), ShardHealth::Alive);
    EXPECT_EQ(fd.incarnation(0), 2U);
}

// merge_entry clamps a peer's timestamp against the local clock: an entry
// from a peer whose clock runs ahead cannot push last_ok into this
// detector's future and mask real silence.
TEST(FailureDetectorTest, MergeEntryClampsFutureTimestampsToLocalNow) {
    FailureDetector fd(1, fast_cfg());
    EXPECT_TRUE(fd.merge_entry(0, 1, 5.0, 0.01));  // peer claims t=5 at our t=0.01
    EXPECT_EQ(fd.snapshot()[0].last_ok, 0.01);
    fd.sweep(0.10);  // real silence since 0.01 -> Dead, not masked until t=5
    EXPECT_EQ(fd.health(0), ShardHealth::Dead);
}

TEST(FailureDetectorTest, EpochIsMonotonicAndTransitionsDrainInOrder) {
    FailureDetector fd(1, fast_cfg());
    fd.observe(0, true, 0.0, 1);
    EXPECT_EQ(fd.epoch(), 0U);
    fd.sweep(0.04);   // -> Suspect
    fd.sweep(0.10);   // -> Dead
    fd.observe(0, true, 0.20, 2);
    fd.observe(0, true, 0.21, 2);  // -> Alive
    EXPECT_EQ(fd.epoch(), 3U);

    const std::vector<RosterTransition> ts = fd.drain_transitions();
    ASSERT_EQ(ts.size(), 3U);
    EXPECT_EQ(ts[0].to, ShardHealth::Suspect);
    EXPECT_EQ(ts[1].to, ShardHealth::Dead);
    EXPECT_EQ(ts[2].to, ShardHealth::Alive);
    EXPECT_TRUE(fd.drain_transitions().empty());  // drained
}

TEST(FailureDetectorTest, IndependentObserversOfOneStreamAgreeOnRosterHash) {
    FailureDetector a(3, fast_cfg());
    FailureDetector b(3, fast_cfg());
    const auto feed = [](FailureDetector& fd) {
        for (int step = 0; step < 20; ++step) {
            const double now = 0.01 * step;
            fd.observe(0, true, now, 1);
            if (step < 5) fd.observe(1, true, now, 1);  // shard 1 dies early
            fd.observe(2, true, now, 1);
            fd.sweep(now);
        }
    };
    feed(a);
    feed(b);
    EXPECT_EQ(a.roster_hash(), b.roster_hash());
    EXPECT_EQ(a.health(1), ShardHealth::Dead);

    // And the hash actually distinguishes different views.
    b.observe(1, true, 0.30, 2);
    b.observe(1, true, 0.31, 2);
    EXPECT_NE(a.roster_hash(), b.roster_hash());
}

// The same detector as an SPMD gossip program over the mesh machine's
// virtual clock: fail-stop two ranks mid-run; every survivor must end on
// one roster hash with exactly the dead ranks marked Dead — under several
// engine schedule seeds, since agreement may not depend on message order.
TEST(MeshGossipTest, SurvivorsConvergeOnOneRosterUnderAnySchedule) {
    for (const Schedule& sched : schedules({0, 1, 1996})) {
        MeshGossipParams p;
        p.ranks = 6;
        p.run_seconds = 1.0;
        p.membership = fast_cfg();
        p.fail_at = {{1, 0.25}, {4, 0.40}};
        p.schedule_seed = sched.seed;

        const MeshGossipResult r = run_mesh_gossip(p);
        ASSERT_EQ(r.views.size(), 6U);
        EXPECT_TRUE(r.converged) << sched.repro;
        EXPECT_TRUE(r.views[1].fail_stopped);
        EXPECT_TRUE(r.views[4].fail_stopped);
        for (std::size_t rank = 0; rank < r.views.size(); ++rank) {
            if (r.views[rank].fail_stopped) continue;
            EXPECT_EQ(r.views[rank].roster_hash, r.survivor_roster_hash) << sched.repro;
            ASSERT_EQ(r.views[rank].health.size(), 6U);
            EXPECT_EQ(r.views[rank].health[1], ShardHealth::Dead) << sched.repro;
            EXPECT_EQ(r.views[rank].health[4], ShardHealth::Dead) << sched.repro;
            EXPECT_EQ(r.views[rank].health[rank], ShardHealth::Alive) << sched.repro;
        }
    }
}

// Asymmetric partition drill on the mesh leg: rank 2's *outgoing* gossip
// is dropped for a window (peers stop hearing it and mark it Dead) while
// its *incoming* links stay clean (it keeps hearing their rosters — and
// their stale Dead claims about itself). The victim must refute by bumping
// its incarnation, and after the window heals every rank — victim included
// — must converge back to one roster with everyone Alive, under several
// engine schedules.
TEST(MeshGossipTest, AsymmetricPartitionHealsThroughRefutation) {
    for (const Schedule& sched : schedules({1, 7, 1996})) {
        MeshGossipParams p;
        p.ranks = 5;
        p.run_seconds = 1.2;
        p.membership = fast_cfg();
        wavehpc::mesh::LinkFault mute;  // victim -> everyone, beats only
        mute.src = 2;
        mute.dst = -1;
        mute.tag = wavehpc::svc::shard::wire::kGossipTag;
        mute.t_begin = 0.20;
        mute.t_end = 0.50;
        mute.drop_probability = 1.0;
        p.link_faults = {mute};
        p.schedule_seed = sched.seed;

        const MeshGossipResult r = run_mesh_gossip(p);
        ASSERT_EQ(r.views.size(), 5U);
        EXPECT_TRUE(r.converged) << sched.repro;
        EXPECT_GE(r.views[2].refutations, 1U) << sched.repro;
        EXPECT_GE(r.views[2].incarnation, 2U) << sched.repro;
        for (std::size_t rank = 0; rank < r.views.size(); ++rank) {
            EXPECT_FALSE(r.views[rank].fail_stopped);
            EXPECT_EQ(r.views[rank].roster_hash, r.survivor_roster_hash)
                << "rank " << rank << "; " << sched.repro;
            for (const ShardHealth h : r.views[rank].health) {
                EXPECT_EQ(h, ShardHealth::Alive) << sched.repro;
            }
        }
    }
}

TEST(MeshGossipTest, SameSeedReplaysBitIdentically) {
    MeshGossipParams p;
    p.ranks = 5;
    p.run_seconds = 0.8;
    p.membership = fast_cfg();
    p.fail_at = {{2, 0.2}};
    p.schedule_seed = 42;
    const MeshGossipResult a = run_mesh_gossip(p);
    const MeshGossipResult b = run_mesh_gossip(p);
    ASSERT_EQ(a.views.size(), b.views.size());
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t r = 0; r < a.views.size(); ++r) {
        EXPECT_EQ(a.views[r].roster_hash, b.views[r].roster_hash);
        EXPECT_EQ(a.views[r].epoch, b.views[r].epoch);
    }
}

}  // namespace
