#include "svc/shard/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/kernels.hpp"

namespace wavehpc::svc::shard {

namespace {

/// This thread's last pixel-carrying frame (a sealed request or reply),
/// handed to its next seal: steady traffic allocates no frame memory.
thread_local std::vector<std::byte> t_spare_frame;

/// A finished request's outcome — value or typed error — sealed exactly
/// as it crosses the wire.
[[nodiscard]] std::vector<std::byte> seal_outcome(const wire::Header& h,
                                                  const TransformFuture& outcome) {
    using Kind = wire::ReplyErrorKind;
    const auto error = [&h](Kind kind, const std::exception& e) {
        return wire::seal(h, wire::encode_reply_error_payload(kind, e.what()));
    };
    try {
        return wire::seal_reply(h, outcome.get(), std::exchange(t_spare_frame, {}));
    } catch (const ServiceShutdownError& e) {
        return error(Kind::Shutdown, e);
    } catch (const DeadlineExpiredError& e) {
        return error(Kind::Deadline, e);
    } catch (const WatchdogTimeoutError& e) {
        return error(Kind::Watchdog, e);
    } catch (const CrcAuditError& e) {
        return error(Kind::CrcAudit, e);
    } catch (const std::exception& e) {
        return error(Kind::Other, e);
    }
}

[[nodiscard]] std::vector<std::byte> roster_payload(const FailureDetector& det) {
    std::vector<wire::RosterEntry> roster;
    roster.reserve(det.shard_count());
    for (const ShardStatus& st : det.snapshot()) {
        roster.push_back({st.incarnation, st.last_ok,
                          static_cast<std::uint8_t>(st.health)});
    }
    return wire::encode_roster_payload(roster);
}

/// The roster a gossip frame carries; empty if the frame or its payload is
/// malformed (the beat is simply lost).
[[nodiscard]] std::vector<wire::RosterEntry> roster_entries(mesh::CheckedBytes frame) {
    const auto un = wire::try_open(frame);
    if (!un) return {};
    try {
        return wire::decode_roster_payload(un->payload);
    } catch (const wire::WireError&) {
        return {};
    }
}

}  // namespace

ShardCluster::ShardCluster(runtime::ThreadPool& pool, ShardClusterConfig cfg)
    : pool_(pool),
      cfg_(cfg),
      ring_(cfg.shard_count, cfg.vnodes, cfg.seed),
      transport_(static_cast<int>(cfg.shard_count) + 1,
                 cfg.gossip_seed != 0 ? cfg.gossip_seed : cfg.seed,
                 cfg.wire_retries),
      detector_(cfg.shard_count, cfg.membership),
      nodes_(cfg.shard_count) {
    if (cfg_.transport_faults.enabled()) {
        transport_.set_faults(cfg_.transport_faults);
    }
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
        Node& node = nodes_[s];
        node.service = std::make_shared<PyramidService>(pool_, cfg_.service);
        node.detector = FailureDetector(cfg_.shard_count, cfg_.membership);
        transport_.set_handler(static_cast<int>(s), wire::kRequestTag,
                               [this, s](int, mesh::CheckedBytes frame) {
                                   return handle_request(s, frame);
                               });
        transport_.set_sink(static_cast<int>(s), wire::kGossipTag,
                            [this, s](int src, mesh::CheckedBytes frame) {
                                nodes_[s].inbox.push_back(GossipMsg::of(src, frame));
                            });
    }
    // The ack the reply rpc ships back is empty: the ARQ ack is the
    // delivery receipt.
    transport_.set_handler(router_node(), wire::kReplyTag,
                           [this](int, mesh::CheckedBytes frame) {
                               handle_reply(frame);
                               return std::vector<std::byte>{};
                           });
    transport_.set_sink(router_node(), wire::kGossipTag,
                        [this](int src, mesh::CheckedBytes frame) {
                            router_inbox_.push_back(GossipMsg::of(src, frame));
                        });
    if (!cfg_.manual_clock) {
        monitor_ = std::thread([this] { monitor_loop(); });
    }
}

ShardCluster::~ShardCluster() { shutdown(); }

double ShardCluster::now_seconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch0_).count();
}

void ShardCluster::monitor_loop() {
    std::unique_lock lk(mu_);
    while (!stopping_) {
        cv_monitor_.wait_for(
            lk, std::chrono::duration<double>(cfg_.membership.heartbeat_interval),
            [this] { return stopping_; });
        if (stopping_) break;
        tick_locked(lk, std::max(now_, now_seconds()));
    }
}

void ShardCluster::tick(double now) {
    std::unique_lock lk(mu_);
    tick_locked(lk, now);
}

void ShardCluster::tick_locked(std::unique_lock<std::mutex>& lk, double now) {
    if (stopping_) return;
    now_ = std::max(now_, now);
    apply_due_actions(lk, now_);
    if (stopping_) return;
    gossip_round_locked(now_);
}

void ShardCluster::gossip_round_locked(double now) {
    transport_.set_time(now);
    const std::size_t n = nodes_.size();
    // Liveness + incarnation snapshot: the leaf lock is released before
    // any transport call (lock order mu_ -> transport -> nodes_mu_).
    std::vector<std::uint64_t> incs(n);
    std::vector<char> live(n);
    {
        std::lock_guard nk(nodes_mu_);
        for (std::size_t s = 0; s < n; ++s) {
            live[s] = nodes_[s].killed ? 0 : 1;
            incs[s] = nodes_[s].incarnation;
        }
    }
    const auto send_gossip = [this](int src, int dst, std::uint64_t inc,
                                    std::uint64_t epoch,
                                    const std::vector<std::byte>& payload) {
        wire::Header h;
        h.kind = wire::MsgKind::Gossip;
        h.src = static_cast<std::uint32_t>(src);
        h.dst = static_cast<std::uint32_t>(dst);
        h.incarnation = inc;
        h.epoch = epoch;
        const auto sealed = wire::seal(h, payload);
        (void)transport_.send_datagram(src, dst, wire::kGossipTag, wire::checked(sealed));
    };
    const std::size_t fanout = n <= 1 ? 0
                               : cfg_.gossip_fanout == 0
                                   ? n - 1
                                   : std::min(cfg_.gossip_fanout, n - 1);
    // Shard beats: self-observe, then ship the full roster to the router
    // and the fanout ring-successors. Partitioned shards still run — the
    // transport loses their frames without consuming a fault draw.
    for (std::size_t s = 0; s < n; ++s) {
        if (live[s] == 0) continue;
        FailureDetector& det = nodes_[s].detector;
        det.observe(s, true, now, incs[s]);
        const auto payload = roster_payload(det);
        send_gossip(static_cast<int>(s), router_node(), incs[s], det.epoch(),
                    payload);
        for (std::size_t k = 1; k <= fanout; ++k) {
            const std::size_t peer = (s + k) % n;
            if (peer == s) continue;
            send_gossip(static_cast<int>(s), static_cast<int>(peer), incs[s],
                        det.epoch(), payload);
        }
    }
    // Router broadcast: its PRE-merge roster, so a refutation lags the
    // accusation by exactly one tick — deterministically.
    {
        const auto payload = roster_payload(detector_);
        for (std::size_t s = 0; s < n; ++s) {
            if (live[s] == 0) continue;
            send_gossip(router_node(), static_cast<int>(s), 0, detector_.epoch(),
                        payload);
        }
    }
    // Merge phase: router inbox first, then shard inboxes in index order.
    // All relayed entries carry pre-round timestamps, so merge_entry's
    // freshness fence admits exactly the self-beats — the router's
    // detector sees the same observe() stream the old probe loop fed it.
    for (const GossipMsg& m : router_inbox_) {
        const auto entries = roster_entries({m.frame, m.crc});
        for (std::size_t e = 0; e < entries.size() && e < n; ++e) {
            detector_.merge_entry(e, entries[e].incarnation, entries[e].last_ok,
                                  now);
        }
    }
    router_inbox_.clear();
    for (std::size_t s = 0; s < n; ++s) {
        Node& node = nodes_[s];
        if (live[s] == 0) {
            node.inbox.clear();
            continue;
        }
        for (const GossipMsg& m : node.inbox) {
            const auto entries = roster_entries({m.frame, m.crc});
            for (std::size_t e = 0; e < entries.size() && e < n; ++e) {
                const wire::RosterEntry& ent = entries[e];
                if (e != s) {
                    node.detector.merge_entry(e, ent.incarnation, ent.last_ok,
                                              now);
                    continue;
                }
                // Split-brain refutation: someone claims *this* shard is
                // Dead at (or past) its current life, and the claim's
                // last_ok is stale enough to prove the claimant has not
                // heard its recent beats. Bump the incarnation: claimants
                // re-admit the new life through the ordinary epoch fence.
                // (A claimant mid-readmission gossips a *fresh* last_ok,
                // so counting is never restarted by a re-refutation.)
                const bool claims_dead =
                    ent.health == static_cast<std::uint8_t>(ShardHealth::Dead);
                bool refuted = false;
                std::uint64_t new_inc = 0;
                {
                    std::lock_guard nk(nodes_mu_);
                    if (claims_dead &&
                        ent.incarnation >= nodes_[s].incarnation &&
                        ent.last_ok + cfg_.membership.suspect_after <= now) {
                        new_inc = ent.incarnation + 1;
                        nodes_[s].incarnation = new_inc;
                        ++counters_.refutations;
                        refuted = true;
                    }
                }
                if (refuted) {
                    node.detector.observe(s, true, now, new_inc);
                }
            }
        }
        node.inbox.clear();
    }
    // Sweep every view at the same instant; only the router's transitions
    // feed the cluster counters (shard views are private).
    for (std::size_t s = 0; s < n; ++s) {
        if (live[s] == 0) continue;
        nodes_[s].detector.sweep(now);
        (void)nodes_[s].detector.drain_transitions();
    }
    detector_.sweep(now);
    absorb_transitions_locked();
}

void ShardCluster::absorb_transitions_locked() {
    std::lock_guard nk(nodes_mu_);
    for (const RosterTransition& t : detector_.drain_transitions()) {
        switch (t.to) {
        case ShardHealth::Suspect: ++counters_.suspicions; break;
        case ShardHealth::Dead: ++counters_.deaths; break;
        case ShardHealth::Alive:
            if (t.from == ShardHealth::Dead) ++counters_.readmissions;
            break;
        }
    }
}

void ShardCluster::set_chaos_plan(const ChaosPlan& plan) {
    // Validate and build first: a malformed plan must not half-install.
    std::vector<ChaosAction> actions;
    for (const ShardEvent& ev : plan.shard_events) {
        if (ev.shard >= cfg_.shard_count) {
            throw std::out_of_range("ShardCluster: chaos event names shard " +
                                    std::to_string(ev.shard) + " of " +
                                    std::to_string(cfg_.shard_count));
        }
        actions.push_back({ev.start_seconds, ev.shard, ev.kind, true,
                           ev.stall_seconds});
        actions.push_back({ev.start_seconds + ev.duration_seconds, ev.shard,
                           ev.kind, false, 0.0});
    }
    std::stable_sort(actions.begin(), actions.end(),
                     [](const ChaosAction& a, const ChaosAction& b) {
                         return a.at < b.at;
                     });

    std::lock_guard lk(mu_);
    service_plan_ = plan;
    have_service_plan_ = true;
    {
        std::lock_guard nk(nodes_mu_);
        for (Node& node : nodes_) {
            if (node.service) node.service->set_chaos_plan(plan);
        }
    }
    actions_ = std::move(actions);
    next_action_ = 0;
}

void ShardCluster::set_transport_faults(mesh::FaultPlan plan) {
    transport_.set_faults(std::move(plan));
}

void ShardCluster::sync_reachability(ShardId shard) {
    bool on = false;
    {
        std::lock_guard nk(nodes_mu_);
        const Node& node = nodes_[shard];
        on = !node.killed && !node.partitioned;
    }
    transport_.set_reachable(static_cast<int>(shard), on);
}

void ShardCluster::apply_due_actions(std::unique_lock<std::mutex>& lk, double now) {
    // Kills drain outside the lock (a drain blocks on in-flight compute and
    // submits need mu_); the state flip happens under it, so the transport
    // refuses from the instant the action is due.
    std::vector<std::shared_ptr<PyramidService>> drains;
    while (next_action_ < actions_.size() && actions_[next_action_].at <= now) {
        const ChaosAction a = actions_[next_action_++];
        switch (a.kind) {
        case ShardEventKind::Kill:
            if (a.begin) {
                kill_locked_phase1(a.shard, lk, drains);
            } else {
                revive_locked(a.shard);
            }
            break;
        case ShardEventKind::Partition: {
            {
                std::lock_guard nk(nodes_mu_);
                Node& node = nodes_[a.shard];
                if (node.partitioned == a.begin) break;
                node.partitioned = a.begin;
                a.begin ? ++counters_.partitions : ++counters_.heals;
            }
            sync_reachability(a.shard);
            break;
        }
        case ShardEventKind::Slow: {
            std::lock_guard nk(nodes_mu_);
            Node& node = nodes_[a.shard];
            if (a.begin) {
                node.stall_seconds = a.stall_seconds;
                ++counters_.slowdowns;
            } else {
                node.stall_seconds = 0.0;
                ++counters_.heals;
            }
            break;
        }
        }
    }
    if (!drains.empty()) {
        lk.unlock();
        drain_and_retire(drains);
        lk.lock();
    }
}

void ShardCluster::kill_locked_phase1(
    ShardId shard, std::unique_lock<std::mutex>& lk,
    std::vector<std::shared_ptr<PyramidService>>& drains) {
    (void)lk;  // documents the precondition: mu_ held
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (node.killed) return;
        node.killed = true;
        ++counters_.kills;
        if (node.service) drains.push_back(std::move(node.service));
        node.service = nullptr;
    }
    sync_reachability(shard);
}

void ShardCluster::drain_and_retire(
    std::vector<std::shared_ptr<PyramidService>>& drains) {
    for (auto& svc : drains) {
        svc->shutdown();  // waiters resolve (ServiceShutdownError); nothing strands
        MetricsSnapshot m = svc->metrics();
        CacheStats c = svc->cache_stats();
        ArenaStats a = svc->arena_stats();
        // The dying life's pool is about to be freed with the service;
        // the fleet view keeps only its history, not its residency.
        a.bytes_pooled = 0;
        a.bytes_outstanding = 0;
        std::lock_guard lk(mu_);
        retired_.merge(m);
        retired_cache_.merge(c);
        retired_arena_.merge(a);
    }
    drains.clear();
}

void ShardCluster::revive_locked(ShardId shard) {
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (!node.killed) return;
        node.service = std::make_shared<PyramidService>(pool_, cfg_.service);
        if (have_service_plan_) node.service->set_chaos_plan(service_plan_);
        node.killed = false;
        ++node.incarnation;  // the new life; the epoch fence keys on this
        ++counters_.revivals;
    }
    // The new life's membership view starts optimistic: every peer seeded
    // as heard-from-now, so the newborn neither mass-accuses the cluster
    // at its first sweep nor triggers spurious refutations.
    Node& node = nodes_[shard];
    node.detector = FailureDetector(nodes_.size(), cfg_.membership);
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
        node.detector.observe(p, true, now_, 0);
    }
    node.inbox.clear();
    sync_reachability(shard);
}

void ShardCluster::kill(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::kill");
    std::vector<std::shared_ptr<PyramidService>> drains;
    {
        std::unique_lock lk(mu_);
        kill_locked_phase1(shard, lk, drains);
    }
    drain_and_retire(drains);
}

void ShardCluster::revive(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::revive");
    std::lock_guard lk(mu_);
    revive_locked(shard);
}

void ShardCluster::set_partitioned(ShardId shard, bool on) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::set_partitioned");
    {
        std::lock_guard nk(nodes_mu_);
        if (nodes_[shard].partitioned == on) return;
        nodes_[shard].partitioned = on;
        on ? ++counters_.partitions : ++counters_.heals;
    }
    sync_reachability(shard);
}

void ShardCluster::set_slow(ShardId shard, double stall_seconds) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::set_slow");
    std::lock_guard nk(nodes_mu_);
    if (stall_seconds > 0.0 && nodes_[shard].stall_seconds <= 0.0) {
        ++counters_.slowdowns;
    } else if (stall_seconds <= 0.0 && nodes_[shard].stall_seconds > 0.0) {
        ++counters_.heals;
    }
    nodes_[shard].stall_seconds = std::max(0.0, stall_seconds);
}

ShardCluster::Ticket ShardCluster::grab_ticket(ShardId shard) {
    std::lock_guard nk(nodes_mu_);
    Ticket t;
    Node& node = nodes_[shard];
    if (node.killed || node.partitioned || !node.service) {
        ++counters_.transport_refusals;
        t.refusal = RouteRefusal::Transport;
        return t;
    }
    t.service = node.service;  // ref held: a concurrent kill cannot free it
    t.stall_seconds = node.stall_seconds;
    return t;
}

std::vector<ShardId> ShardCluster::placement(const TransformRequest& request) const {
    (void)validate_request(request);
    const CacheKey key = make_cache_key(*request.image, request.taps, request.levels,
                                        request.boundary);
    return ring_.replicas(key, cfg_.replicas);
}

std::vector<std::byte> ShardCluster::handle_request(ShardId shard,
                                                    mesh::CheckedBytes frame) {
    // The receiving NIC already CRC'd the frame whole; opening reuses
    // that pass, so it cannot fail short of a router bug — the Down shape
    // covers it defensively.
    wire::AdmitWire admit;  // defaults to Down
    const auto un = wire::try_open(frame);
    if (!un) return wire::encode_admit_payload(admit);
    std::shared_ptr<PyramidService> svc;
    {
        std::lock_guard nk(nodes_mu_);
        Node& node = nodes_[shard];
        if (node.killed || !node.service) {
            return wire::encode_admit_payload(admit);
        }
        // The receiver-side epoch fence: a request routed under a stale
        // belief must never reach a re-admitted shard's fresh life.
        if (node.incarnation != un->header.incarnation) {
            ++counters_.stale_epoch_refusals;
            admit.status = wire::AdmitStatus::StaleEpoch;
            return wire::encode_admit_payload(admit);
        }
        svc = node.service;
        // Counted with the service grabbed, so a concurrent shutdown()
        // either refuses this request or waits for its reply.
        ++replies_outstanding_;
    }
    const auto release = [this] {
        std::lock_guard nk(nodes_mu_);
        --replies_outstanding_;
        cv_replies_.notify_all();
    };
    SubmitResult r;
    try {
        TransformRequest req = wire::decode_request_payload(un->payload, Clock::now());
        r = svc->submit(std::move(req),
                        [this, shard, h = un->header](const TransformFuture& outcome) {
                            send_reply(shard, h, outcome);
                        });
    } catch (const wire::WireError&) {
        release();
        return wire::encode_admit_payload(admit);
    } catch (...) {
        release();
        throw;
    }
    if (!r.accepted) {
        release();
        admit.status = wire::AdmitStatus::Rejected;
        admit.reject_reason = r.reject_reason;
        admit.retry_after = r.retry_after_seconds;
        return wire::encode_admit_payload(admit);
    }
    admit.status = wire::AdmitStatus::Accepted;
    return wire::encode_admit_payload(admit);
}

std::optional<ShardCluster::InFlight> ShardCluster::claim(std::uint64_t request_id) {
    std::lock_guard nk(nodes_mu_);
    const auto it = inflight_.find(request_id);
    if (it == inflight_.end()) return std::nullopt;
    InFlight entry = std::move(it->second);
    inflight_.erase(it);
    return entry;
}

ClusterSubmitResult ShardCluster::submit(TransformRequest request) {
    // The shard's own check, before anything is counted or sealed: a
    // request no shard would admit never crosses the wire. Then resolve +
    // hash once here, exactly as the shard's own submit would, so routing,
    // the epoch fence, and the degraded scan all talk about the same key
    // (the shard re-hashes on delivery; placement uses only the digest +
    // dims half of the key, which no shard ever recomputes differently).
    const auto fp = validate_request(request);
    request.kernel = core::resolve_dwt_kernel(request.kernel, fp);
    std::uint64_t digest_lo = 0;
    std::uint64_t digest_hi = 0;
    digest_memo_.digest(request.image, digest_lo, digest_hi);
    const CacheKey key =
        assemble_cache_key(digest_lo, digest_hi, *request.image, request.taps,
                           request.levels, request.boundary, request.kernel);
    const std::vector<ShardId> chain = ring_.replicas(key, cfg_.replicas);

    ClusterSubmitResult out;
    {
        std::lock_guard nk(nodes_mu_);
        ++counters_.routed;
    }
    // One client promise for the whole chain, registered under each
    // attempt's request_id in turn.
    const auto promise = std::make_shared<std::promise<TransformReply>>();
    const auto accept = [&](ShardId shard) {
        out.shard = shard;
        out.result = SubmitResult{};
        out.result.accepted = true;
        out.result.future = promise->get_future().share();
        std::lock_guard nk(nodes_mu_);
        ++counters_.accepted;
        if (shard != chain.front()) ++counters_.failovers;
        return out;
    };
    for (const ShardId shard : chain) {
        // Roster check first: a Dead shard is skipped without touching its
        // transport (the whole point of the failure detector — no waiting
        // on a corpse's ARQ give-up per request).
        std::uint64_t expected = 0;
        {
            std::lock_guard lk(mu_);
            if (detector_.health(shard) == ShardHealth::Dead) {
                std::lock_guard nk(nodes_mu_);
                ++counters_.roster_skips;
                continue;
            }
            expected = detector_.incarnation(shard);
        }
        double stall = 0.0;
        std::uint64_t request_id = 0;
        {
            std::lock_guard nk(nodes_mu_);
            stall = nodes_[shard].stall_seconds;
            request_id = next_request_id_++;
            inflight_.emplace(request_id, InFlight{promise, expected});
        }
        sleep_seconds(stall);  // Slow shard: clients feel it before the wire
        wire::Header h;
        h.kind = wire::MsgKind::Request;
        h.src = static_cast<std::uint32_t>(router_node());
        h.dst = static_cast<std::uint32_t>(shard);
        h.incarnation = expected;
        h.request_id = request_id;
        std::optional<wire::AdmitWire> admit;
        try {
            // The pixels genuinely cross the wire, sealed per replica (the
            // header names the destination and its epoch).
            auto sealed = wire::seal_request(h, request, Clock::now(),
                                             std::exchange(t_spare_frame, {}));
            const auto resp = transport_.rpc(router_node(), static_cast<int>(shard),
                                             wire::kRequestTag, wire::checked(sealed));
            t_spare_frame = std::move(sealed);
            if (resp) admit = wire::decode_admit_payload(*resp);
        } catch (const wire::WireError&) {
            admit.reset();  // a malformed verdict reads as a lost one
        } catch (...) {
            (void)claim(request_id);
            throw;
        }
        if (admit && admit->status == wire::AdmitStatus::Accepted) {
            ++out.hops;
            return accept(shard);
        }
        if (!claim(request_id)) {
            // The shard's reply already resolved the promise (a cache hit
            // answered inside the request leg, whose verdict was then
            // lost): the request was served.
            ++out.hops;
            return accept(shard);
        }
        if (!admit) {
            // The request wire gave up: killed or partitioned. Fail over.
            std::lock_guard nk(nodes_mu_);
            ++counters_.transport_refusals;
            continue;
        }
        switch (admit->status) {
        case wire::AdmitStatus::Accepted:
            break;  // handled above
        case wire::AdmitStatus::Rejected:
            // Breaker-open / saturated / quarantined on this replica: the
            // next replica may be healthy. Keep the answer's shape for the
            // final reject if the whole chain refuses.
            ++out.hops;
            out.shard = shard;
            out.result.accepted = false;
            out.result.reject_reason = admit->reject_reason;
            out.result.retry_after_seconds = admit->retry_after;
            continue;
        case wire::AdmitStatus::StaleEpoch:
            // Counted by the receiver-side fence in handle_request.
            continue;
        case wire::AdmitStatus::Down: {
            std::lock_guard nk(nodes_mu_);
            ++counters_.transport_refusals;
            continue;
        }
        }
    }

    // Replica chain exhausted. Degraded clients take any live shard's
    // cached answer for the scene (exact key preferred).
    if (request.allow_degraded) {
        const auto started = Clock::now();
        for (std::size_t s = 0; s < shard_count(); ++s) {
            Ticket t = grab_ticket(s);
            if (t.refusal != RouteRefusal::None) continue;
            if (auto cached = t.service->peek_cached(key)) {
                TransformReply reply;
                reply.degraded = !(cached->key == key);
                reply.cache_hit = true;
                reply.result = std::move(cached);
                reply.total_seconds =
                    std::chrono::duration<double>(Clock::now() - started).count();
                std::promise<TransformReply> promise;
                promise.set_value(std::move(reply));
                out.shard = s;
                out.cross_shard_degraded = true;
                out.result = SubmitResult{};
                out.result.accepted = true;
                out.result.future = promise.get_future().share();
                std::lock_guard nk(nodes_mu_);
                ++counters_.accepted;
                ++counters_.cross_shard_degraded;
                return out;
            }
        }
    }
    std::lock_guard nk(nodes_mu_);
    ++counters_.rejected;
    if (out.result.reject_reason == RejectReason::None) {
        // Never reached a shard's admission: every replica was dead or
        // unreachable. Report it as saturation-shaped backpressure with a
        // heartbeat-scaled retry hint (the roster heals on that cadence).
        out.result.accepted = false;
        out.result.reject_reason = RejectReason::Saturated;
        out.result.retry_after_seconds = cfg_.membership.dead_after;
    }
    return out;
}

void ShardCluster::handle_reply(mesh::CheckedBytes frame) {
    const auto un = wire::try_open(frame);
    if (!un) return;
    wire::ReplyWire rw;
    try {
        rw = wire::decode_reply_payload(un->payload);
    } catch (const wire::WireError&) {
        // Malformed payload inside a CRC-valid frame: leave the entry to
        // the shard, which delivers its local outcome instead.
        return;
    }
    auto entry = claim(un->header.request_id);
    if (!entry) {
        std::lock_guard nk(nodes_mu_);
        ++counters_.orphan_replies;
        return;
    }
    // A *value* reply arriving under a different incarnation than the
    // dispatch belief would be a stale-epoch reply; the frame carries the
    // dispatch incarnation, so this is structurally impossible — the
    // counter is the audited invariant the partition drills assert stays 0.
    if (!rw.is_error && un->header.incarnation != entry->incarnation) {
        {
            std::lock_guard nk(nodes_mu_);
            ++counters_.stale_replies_delivered;
        }
        entry->promise->set_exception(std::make_exception_ptr(
            std::runtime_error("shard wire: stale-epoch reply suppressed")));
        return;
    }
    if (!rw.is_error) {
        entry->promise->set_value(std::move(rw.reply));
        return;
    }
    try {
        wire::rethrow_reply_error(rw);
    } catch (...) {
        entry->promise->set_exception(std::current_exception());
    }
}

void ShardCluster::send_reply(ShardId shard, const wire::Header& req,
                              const TransformFuture& outcome) {
    try {
        wire::Header h;
        h.kind = wire::MsgKind::Reply;
        h.src = static_cast<std::uint32_t>(shard);
        h.dst = static_cast<std::uint32_t>(router_node());
        h.incarnation = req.incarnation;
        h.request_id = req.request_id;
        auto sealed = seal_outcome(h, outcome);
        (void)transport_.rpc(static_cast<int>(shard), router_node(), wire::kReplyTag,
                             wire::checked(sealed));
        t_spare_frame = std::move(sealed);
    } catch (...) {
        // Could not even put the reply on the wire: the fallback below
        // delivers the outcome.
    }
    // An entry still registered means the router never took this reply
    // (the wire gave up: shard killed or partitioned at completion time).
    // Deliver the locally held outcome honestly.
    if (auto entry = claim(req.request_id)) {
        {
            std::lock_guard nk(nodes_mu_);
            ++counters_.reply_wire_fallbacks;
        }
        try {
            entry->promise->set_value(outcome.get());
        } catch (...) {
            entry->promise->set_exception(std::current_exception());
        }
    }
    std::lock_guard nk(nodes_mu_);
    --replies_outstanding_;
    cv_replies_.notify_all();  // under the lock: shutdown() may then return
}

SubmitResult ShardCluster::submit_to_shard(ShardId shard, TransformRequest request) {
    if (shard >= nodes_.size()) {
        throw std::out_of_range("ShardCluster::submit_to_shard");
    }
    Ticket t = grab_ticket(shard);
    if (t.refusal != RouteRefusal::None) {
        SubmitResult r;
        r.accepted = false;
        r.reject_reason = RejectReason::ShuttingDown;
        return r;
    }
    sleep_seconds(t.stall_seconds);
    return t.service->submit(std::move(request));
}

PyramidService* ShardCluster::service(ShardId shard) {
    if (shard >= nodes_.size()) throw std::out_of_range("ShardCluster::service");
    std::lock_guard nk(nodes_mu_);
    return nodes_[shard].service.get();
}

std::size_t ShardCluster::shard_count() const noexcept { return nodes_.size(); }

ShardHealth ShardCluster::health(ShardId shard) const {
    std::lock_guard lk(mu_);
    return detector_.health(shard);
}

std::uint64_t ShardCluster::incarnation(ShardId shard) const {
    std::lock_guard lk(mu_);
    return detector_.incarnation(shard);
}

std::uint64_t ShardCluster::roster_epoch() const {
    std::lock_guard lk(mu_);
    return detector_.epoch();
}

std::uint64_t ShardCluster::roster_hash() const {
    std::lock_guard lk(mu_);
    return detector_.roster_hash();
}

std::uint64_t ShardCluster::node_roster_hash(ShardId shard) const {
    if (shard >= cfg_.shard_count) {
        throw std::out_of_range("ShardCluster::node_roster_hash");
    }
    std::lock_guard lk(mu_);
    return nodes_[shard].detector.roster_hash();
}

ClusterCounters ShardCluster::counters() const {
    std::lock_guard nk(nodes_mu_);
    return counters_;
}

WireStats ShardCluster::wire_stats() const { return transport_.stats(); }

template <typename Stats, typename Read>
Stats ShardCluster::merge_fleet(const Stats& retired, Read read) const {
    std::vector<std::shared_ptr<PyramidService>> live;
    Stats fleet;
    {
        std::lock_guard lk(mu_);
        fleet = retired;
    }
    {
        std::lock_guard nk(nodes_mu_);
        for (const Node& node : nodes_) {
            if (node.service) live.push_back(node.service);
        }
    }
    for (const auto& svc : live) fleet.merge(read(*svc));
    return fleet;
}

MetricsSnapshot ShardCluster::fleet_metrics() const {
    return merge_fleet(retired_, [](const PyramidService& s) { return s.metrics(); });
}

CacheStats ShardCluster::fleet_cache_stats() const {
    return merge_fleet(retired_cache_,
                       [](const PyramidService& s) { return s.cache_stats(); });
}

ArenaStats ShardCluster::fleet_arena_stats() const {
    return merge_fleet(retired_arena_,
                       [](const PyramidService& s) { return s.arena_stats(); });
}

void ShardCluster::shutdown() {
    std::vector<std::shared_ptr<PyramidService>> drains;
    bool first = false;
    {
        std::lock_guard lk(mu_);
        first = !stopping_;
        stopping_ = true;
        std::lock_guard nk(nodes_mu_);
        for (Node& node : nodes_) {
            if (node.service) drains.push_back(std::move(node.service));
            node.service = nullptr;
            node.killed = true;
        }
    }
    for (std::size_t s = 0; s < nodes_.size(); ++s) {
        transport_.set_reachable(static_cast<int>(s), false);
    }
    cv_monitor_.notify_all();
    if (first && monitor_.joinable()) monitor_.join();
    // Drain the services (every waiter resolves and runs its reply hook;
    // each hook's wire attempt fails fast — all NICs are off — and falls
    // back to the local outcome), then wait for the last hook to finish,
    // so every client future is ready before shutdown returns.
    drain_and_retire(drains);
    std::unique_lock nk(nodes_mu_);
    cv_replies_.wait(nk, [this] { return replies_outstanding_ == 0; });
}

}  // namespace wavehpc::svc::shard
