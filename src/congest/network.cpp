#include "congest/network.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/check.hpp"

namespace dasm {

NetStats& NetStats::operator+=(const NetStats& other) {
  executed_rounds += other.executed_rounds;
  scheduled_rounds += other.scheduled_rounds;
  messages += other.messages;
  bits += other.bits;
  max_message_bits = std::max(max_message_bits, other.max_message_bits);
  for (std::size_t i = 0; i < messages_by_type.size(); ++i) {
    messages_by_type[i] += other.messages_by_type[i];
  }
  delivered += other.delivered;
  dropped += other.dropped;
  duplicated += other.duplicated;
  retransmitted += other.retransmitted;
  filtered += other.filtered;
  return *this;
}

void NetStats::reset() { *this = NetStats{}; }

NetStats NetStats::delta_since(const NetStats& base) const {
  NetStats d = *this;
  d.executed_rounds -= base.executed_rounds;
  d.scheduled_rounds -= base.scheduled_rounds;
  d.messages -= base.messages;
  d.bits -= base.bits;
  for (std::size_t i = 0; i < d.messages_by_type.size(); ++i) {
    d.messages_by_type[i] -= base.messages_by_type[i];
  }
  d.delivered -= base.delivered;
  d.dropped -= base.dropped;
  d.duplicated -= base.duplicated;
  d.retransmitted -= base.retransmitted;
  d.filtered -= base.filtered;
  return d;
}

static_assert(static_cast<std::size_t>(MsgType::kBcast) <
                  std::tuple_size_v<decltype(NetStats::messages_by_type)>,
              "messages_by_type is too small for the MsgType enum");

namespace {

int default_bit_budget(std::size_t n) {
  // The CONGEST model allows O(log n)-bit messages; we budget 8 machine
  // "digits" of ceil(log2(n + 2)) bits each, comfortably enough for a tag
  // plus two ids / ranks while still scaling as Theta(log n).
  const auto width =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(n) + 2.0)));
  return 8 * std::max(width, 4);
}

}  // namespace

Network::Network(std::vector<std::vector<NodeId>> adjacency,
                 int message_bit_budget)
    : adj_(std::move(adjacency)) {
  const auto n = adj_.size();
  bit_budget_ = message_bit_budget > 0 ? message_bit_budget
                                       : default_bit_budget(n);
  for (std::size_t v = 0; v < n; ++v) {
    auto& nb = adj_[v];
    std::sort(nb.begin(), nb.end());
    DASM_CHECK_MSG(std::adjacent_find(nb.begin(), nb.end()) == nb.end(),
                   "duplicate neighbour in adjacency of node " << v);
    for (NodeId u : nb) {
      DASM_CHECK_MSG(u >= 0 && static_cast<std::size_t>(u) < n,
                     "neighbour id out of range: " << u);
      DASM_CHECK_MSG(u != static_cast<NodeId>(v), "self-loop at node " << v);
    }
  }
  // Verify symmetry: (u, v) in adj[u] implies (v, u) in adj[v].
  for (std::size_t v = 0; v < n; ++v) {
    for (NodeId u : adj_[v]) {
      const auto& back = adj_[static_cast<std::size_t>(u)];
      DASM_CHECK_MSG(
          std::binary_search(back.begin(), back.end(), static_cast<NodeId>(v)),
          "asymmetric adjacency between " << v << " and " << u);
    }
  }
  // Size the delivery arenas once: node v receives at most one message per
  // in-edge per round, so its inbox fits in deg(v) slots forever.
  slot_offset_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    slot_offset_[v + 1] = slot_offset_[v] + adj_[v].size();
  }
  for (Arena& a : arenas_) {
    a.slots.resize(slot_offset_[n]);
    a.fill.assign(n, 0);
    a.dirty.reserve(n);
  }
  // Build the neighbour probe tables (load factor <= 1/2).
  port_offset_.resize(n + 1, 0);
  port_mask_.resize(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t cap = 2;
    while (cap < 2 * adj_[v].size()) cap *= 2;
    port_mask_[v] = static_cast<std::uint32_t>(cap - 1);
    port_offset_[v + 1] = port_offset_[v] + cap;
  }
  port_key_.assign(port_offset_[n], kNoNode);
  sent_stamp_.assign(port_offset_[n], -1);
  for (std::size_t v = 0; v < n; ++v) {
    for (const NodeId u : adj_[v]) {
      std::uint32_t slot =
          (static_cast<std::uint32_t>(u) * 2654435761u) & port_mask_[v];
      while (port_key_[port_offset_[v] + slot] != kNoNode) {
        slot = (slot + 1) & port_mask_[v];
      }
      port_key_[port_offset_[v] + slot] = u;
    }
  }
}

const std::vector<NodeId>& Network::neighbors(NodeId v) const {
  DASM_CHECK(v >= 0 && v < node_count());
  return adj_[static_cast<std::size_t>(v)];
}

bool Network::has_edge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= node_count() || v >= node_count()) return false;
  const auto& nb = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::size_t Network::edge_slot(NodeId from, NodeId to) const {
  const auto sf = static_cast<std::size_t>(from);
  const std::uint32_t mask = port_mask_[sf];
  const std::size_t base = port_offset_[sf];
  std::uint32_t slot = (static_cast<std::uint32_t>(to) * 2654435761u) & mask;
  for (;;) {
    const NodeId key = port_key_[base + slot];
    if (key == to) return base + slot;
    DASM_CHECK_MSG(key != kNoNode,
                   "send along non-edge " << from << " -> " << to);
    slot = (slot + 1) & mask;
  }
}

void Network::begin_round() {
  DASM_CHECK_MSG(!round_open_, "begin_round() while a round is open");
  round_open_ = true;
  ++round_serial_;
  round_start_messages_ = stats_.messages;
}

void Network::send(NodeId from, NodeId to, const Message& msg) {
  DASM_CHECK_MSG(round_open_, "send() outside begin_round()/end_round()");
  DASM_CHECK(from >= 0 && from < node_count());
  auto& stamp = sent_stamp_[edge_slot(from, to)];
  DASM_CHECK_MSG(stamp != round_serial_,
                 "two messages on directed edge " << from << " -> " << to
                                                  << " in one round");
  stamp = round_serial_;
  const int bits = msg.encoded_bits();
  DASM_CHECK_MSG(bits <= bit_budget_,
                 "message " << to_debug_string(msg) << " is " << bits
                            << " bits; CONGEST budget is " << bit_budget_);
  DASM_DCHECK(static_cast<std::size_t>(msg.type) <
              stats_.messages_by_type.size());
  record_trace_event(from, to, msg);
  // messages/bits count the protocol's offered load whether or not the
  // fault layer then loses the copy; the fault counters partition its fate.
  ++stats_.messages;
  ++stats_.messages_by_type[static_cast<std::size_t>(msg.type)];
  stats_.bits += bits;
  stats_.max_message_bits = std::max(stats_.max_message_bits, bits);
  if (fault_mode_) [[unlikely]] {
    fault_commit_send(from, to, msg);
    return;
  }
  Arena& out = arenas_[delivered_ ^ 1];
  auto& fill = out.fill[static_cast<std::size_t>(to)];
  if (fill == 0) out.dirty.push_back(to);
  // The per-edge stamp above guarantees fill < deg(to), i.e. the slot
  // range never overflows.
  out.slots[slot_offset_[static_cast<std::size_t>(to)] +
            static_cast<std::size_t>(fill)] = Envelope{from, msg};
  ++fill;
  ++stats_.delivered;
}

void Network::record_trace_event(NodeId from, NodeId to, const Message& msg) {
  if (trace_cap_ == 0) return;
  const TraceEvent event{stats_.executed_rounds, from, to, msg};
  if (trace_size_ < trace_cap_) {
    trace_ring_[(trace_start_ + trace_size_) % trace_cap_] = event;
    ++trace_size_;
  } else {
    trace_ring_[trace_start_] = event;
    trace_start_ = (trace_start_ + 1) % trace_cap_;
    ++trace_dropped_;
  }
}

void Network::end_round() {
  // The metrics wrapper: with no registry attached this is one branch in
  // front of the real work; with one, it times the full close
  // (fault-layer wire rounds, arena flip) and records the round's offered
  // load. Both figures cover the fault path because end_round_impl()
  // returns only after publish_fault_round().
  if (!m_end_round_us_.active()) [[likely]] {
    end_round_impl();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  end_round_impl();
  m_round_messages_.observe(stats_.messages - round_start_messages_);
  m_end_round_us_.observe(std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
}

void Network::end_round_impl() {
  DASM_CHECK_MSG(round_open_, "end_round() without begin_round()");
  round_open_ = false;
  if (fault_mode_) [[unlikely]] {
    // One protocol round expands into wire rounds: at least one, and with
    // the reliability sublayer as many as it takes for every payload born
    // this round to be delivered or permanently dead — loss costs rounds,
    // not correctness. Each wire round ticks executed/scheduled rounds and
    // fires the obs hook, so traces and stats see the real wire activity.
    run_wire_round();
    std::int64_t wire_rounds = 1;
    while (unresolved_payloads_ > 0) {
      DASM_CHECK_MSG(++wire_rounds < 1'000'000,
                     "reliability sublayer failed to settle a round ("
                         << unresolved_payloads_ << " payloads open)");
      run_wire_round();
    }
    publish_fault_round();
    return;
  }
  // Retire the arena that was readable this round: reset only the slots
  // that held messages, then flip. No container grows or shrinks here, so
  // steady-state rounds perform no allocations.
  Arena& retired = arenas_[delivered_];
  for (const NodeId v : retired.dirty) {
    retired.fill[static_cast<std::size_t>(v)] = 0;
  }
  retired.dirty.clear();
  delivered_ ^= 1;
  last_round_silent_ = arenas_[delivered_].dirty.empty();
  ++stats_.executed_rounds;
  ++stats_.scheduled_rounds;
  if (round_hook_) round_hook_(stats_);
}

void Network::set_fault_plan(const FaultPlan& plan) {
  DASM_CHECK_MSG(!round_open_, "set_fault_plan() while a round is open");
  DASM_CHECK_MSG(pending_copies_ == 0 && payloads_.empty(),
                 "set_fault_plan() with wire copies still in flight");
  plan.validate();
  for (const CrashEvent& c : plan.crashes) {
    DASM_CHECK_MSG(c.node < node_count(),
                   "CrashEvent names node " << c.node << " of a "
                                            << node_count() << "-node network");
  }
  for (const EdgeDrop& e : plan.edge_drops) {
    DASM_CHECK_MSG(has_edge(e.from, e.to), "EdgeDrop override on non-edge "
                                               << e.from << " -> " << e.to);
  }
  plan_ = plan;
  drop_threshold_ = probability_threshold(plan.drop);
  dup_threshold_ = probability_threshold(plan.duplicate);
  delay_threshold_ =
      plan.max_delay > 0 ? probability_threshold(plan.delay) : 0;
  edge_drop_override_.clear();
  for (const EdgeDrop& e : plan.edge_drops) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.from)) << 32) |
        static_cast<std::uint32_t>(e.to);
    edge_drop_override_.emplace_back(key, probability_threshold(e.drop));
  }
  std::sort(edge_drop_override_.begin(), edge_drop_override_.end());
  for (std::size_t i = 1; i < edge_drop_override_.size(); ++i) {
    DASM_CHECK_MSG(edge_drop_override_[i - 1].first !=
                       edge_drop_override_[i].first,
                   "duplicate EdgeDrop override for one directed edge");
  }
  crash_round_.clear();
  if (!plan.crashes.empty()) {
    crash_round_.assign(static_cast<std::size_t>(node_count()),
                        std::numeric_limits<Round>::max());
    for (const CrashEvent& c : plan.crashes) {
      auto& r = crash_round_[static_cast<std::size_t>(c.node)];
      r = std::min(r, c.round);
    }
  }
  refresh_fault_mode();
}

void Network::set_reliable_transport(int retransmit_after,
                                     int max_retransmits) {
  DASM_CHECK_MSG(!round_open_,
                 "set_reliable_transport() while a round is open");
  DASM_CHECK_MSG(retransmit_after >= 0,
                 "retransmit_after must be >= 0, got " << retransmit_after);
  DASM_CHECK_MSG(retransmit_after == 0 || max_retransmits >= 1,
                 "max_retransmits must be >= 1, got " << max_retransmits);
  DASM_CHECK_MSG(payloads_.empty(),
                 "set_reliable_transport() with unacked payloads in flight");
  retransmit_after_ = retransmit_after;
  max_retransmits_ = max_retransmits;
  refresh_fault_mode();
}

void Network::refresh_fault_mode() {
  const bool on = plan_.active() || retransmit_after_ > 0;
  if (!on) {
    fault_mode_ = false;
    return;
  }
  fault_mode_ = true;
  const auto n = static_cast<std::size_t>(node_count());
  // Dues span [wire_round, wire_round + max(1, max_delay)] (duplicates and
  // acks arrive at least one round late), so this size keeps ring slots
  // collision-free.
  ring_.resize(static_cast<std::size_t>(std::max(plan_.max_delay, 1)) + 2);
  f_staging_.resize(n);
  f_front_.resize(n);
}

bool Network::node_crashed(NodeId v, std::int64_t wire_round) const {
  if (crash_round_.empty()) return false;
  return crash_round_[static_cast<std::size_t>(v)] <= wire_round;
}

std::uint64_t Network::drop_threshold_for(NodeId from, NodeId to) const {
  if (edge_drop_override_.empty()) return drop_threshold_;
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto it = std::lower_bound(
      edge_drop_override_.begin(), edge_drop_override_.end(), key,
      [](const auto& entry, std::uint64_t k) { return entry.first < k; });
  if (it != edge_drop_override_.end() && it->first == key) return it->second;
  return drop_threshold_;
}

void Network::fault_commit_send(NodeId from, NodeId to, const Message& msg) {
  const std::int64_t ordinal = commit_ordinal_++;
  const std::int64_t wire_round = stats_.executed_rounds;
  if (node_crashed(from, wire_round) || node_crashed(to, wire_round)) {
    // Crash-stop: a crashed endpoint kills the send outright (for a
    // crashed receiver this approximates a perfect failure detector — the
    // reliability sublayer would otherwise retransmit into the void until
    // its cap; see DESIGN.md §8).
    ++stats_.dropped;
    return;
  }
  if (retransmit_after_ > 0) {
    const std::int64_t id = next_payload_id_++;
    payloads_.emplace(
        id, Payload{from, to, ordinal, wire_round, 1, false, msg});
    ++unresolved_payloads_;
    transmit_copy(from, to, ordinal, id, /*is_ack=*/false,
                  /*may_duplicate=*/true, msg);
  } else {
    transmit_copy(from, to, ordinal, /*payload_id=*/-1, /*is_ack=*/false,
                  /*may_duplicate=*/true, msg);
  }
}

void Network::transmit_copy(NodeId from, NodeId to, std::int64_t ordinal,
                            std::int64_t payload_id, bool is_ack,
                            bool may_duplicate, const Message& msg) {
  const auto wire_round = static_cast<std::uint64_t>(stats_.executed_rounds);
  const std::uint64_t edge_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto copy_id = static_cast<std::uint64_t>(copy_counter_++);
  if (is_ack) {
    // Control-plane: acks roll their own loss but are invisible to every
    // NetStats counter — a lost ack only costs a spurious retransmission,
    // which the idempotent filter absorbs on arrival.
    if (fault_mix(plan_.seed ^ kFaultAckSalt, wire_round, edge_key, copy_id) <
        drop_threshold_for(from, to)) {
      return;
    }
    ring_[static_cast<std::size_t>((wire_round + 1) % ring_.size())].push_back(
        WireCopy{from, to, ordinal, payload_id, true, msg});
    return;
  }
  if (fault_mix(plan_.seed ^ kFaultDropSalt, wire_round, edge_key, copy_id) <
      drop_threshold_for(from, to)) {
    ++stats_.dropped;  // a sequenced payload stays open and retransmits
  } else {
    std::uint64_t due = wire_round;
    if (delay_threshold_ != 0 &&
        fault_mix(plan_.seed ^ kFaultDelaySalt, wire_round, edge_key,
                  copy_id) < delay_threshold_) {
      due += 1 + fault_mix(plan_.seed ^ kFaultDelayAmountSalt, wire_round,
                           edge_key, copy_id) %
                     static_cast<std::uint64_t>(plan_.max_delay);
    }
    ring_[static_cast<std::size_t>(due % ring_.size())].push_back(
        WireCopy{from, to, ordinal, payload_id, false, msg});
    ++pending_copies_;
  }
  if (may_duplicate && dup_threshold_ != 0 &&
      fault_mix(plan_.seed ^ kFaultDuplicateSalt, wire_round, edge_key,
                copy_id) < dup_threshold_) {
    // The duplicate re-rolls its own loss and arrives 1..max(1, max_delay)
    // rounds late; duplicates never duplicate again.
    ++stats_.duplicated;
    const auto dup_id = static_cast<std::uint64_t>(copy_counter_++);
    if (fault_mix(plan_.seed ^ kFaultDropSalt, wire_round, edge_key, dup_id) <
        drop_threshold_for(from, to)) {
      ++stats_.dropped;
    } else {
      const auto span =
          static_cast<std::uint64_t>(std::max(plan_.max_delay, 1));
      const std::uint64_t due =
          wire_round + 1 +
          fault_mix(plan_.seed ^ kFaultDelayAmountSalt, wire_round, edge_key,
                    dup_id) %
              span;
      ring_[static_cast<std::size_t>(due % ring_.size())].push_back(
          WireCopy{from, to, ordinal, payload_id, false, msg});
      ++pending_copies_;
    }
  }
}

void Network::run_wire_round() {
  const std::int64_t wire_round = stats_.executed_rounds;
  if (retransmit_after_ > 0) {
    // Retransmit scan in payload-id (= original send) order. Every
    // undelivered payload in the map was born in the current protocol
    // round — end_round() never returns while one is open.
    for (auto it = payloads_.begin(); it != payloads_.end();) {
      Payload& p = it->second;
      const bool endpoint_crashed = node_crashed(p.from, wire_round) ||
                                    node_crashed(p.to, wire_round);
      if (p.delivered) {
        // Only the ack is outstanding. A crashed endpoint can neither
        // retransmit nor ack, and the attempt cap bounds how long a lost
        // ack keeps the payload alive.
        if (endpoint_crashed ||
            (wire_round - p.last_tx >= retransmit_after_ &&
             p.attempts > max_retransmits_)) {
          it = payloads_.erase(it);
          continue;
        }
      } else if (endpoint_crashed || (wire_round - p.last_tx >=
                                          retransmit_after_ &&
                                      p.attempts > max_retransmits_)) {
        // Permanently dead: the copies it sent were each counted dropped
        // (or are still pending) individually.
        --unresolved_payloads_;
        it = payloads_.erase(it);
        continue;
      }
      if (wire_round - p.last_tx >= retransmit_after_) {
        ++p.attempts;
        p.last_tx = wire_round;
        ++stats_.retransmitted;
        record_trace_event(p.from, p.to, p.msg);
        transmit_copy(p.from, p.to, p.ordinal, it->first, /*is_ack=*/false,
                      /*may_duplicate=*/true, p.msg);
      }
      ++it;
    }
  }
  // Drain the copies due this wire round, in enqueue order. Acks created
  // here land in the next round's slot, never the one being drained.
  auto& due = ring_[static_cast<std::size_t>(
      static_cast<std::uint64_t>(wire_round) % ring_.size())];
  for (const WireCopy& copy : due) deliver_copy(copy, wire_round);
  due.clear();
  ++stats_.executed_rounds;
  ++stats_.scheduled_rounds;
  if (round_hook_) round_hook_(stats_);
}

void Network::deliver_copy(const WireCopy& copy, std::int64_t wire_round) {
  if (copy.is_ack) {
    // The sender forgets an acked payload; a stale ack (payload already
    // erased) or an ack into a crashed sender is silently ignored.
    if (!node_crashed(copy.to, wire_round)) payloads_.erase(copy.payload_id);
    return;
  }
  --pending_copies_;
  if (node_crashed(copy.to, wire_round)) {
    ++stats_.dropped;
    if (copy.payload_id >= 0) {
      const auto it = payloads_.find(copy.payload_id);
      if (it != payloads_.end() && !it->second.delivered) {
        --unresolved_payloads_;
        payloads_.erase(it);
      }
    }
    return;
  }
  if (copy.payload_id >= 0) {
    const auto it = payloads_.find(copy.payload_id);
    if (it == payloads_.end() || it->second.delivered) {
      // Idempotent-delivery filter: this sequence number already reached
      // the inbox (network duplicate, delayed copy, or a retransmission
      // whose ack was lost). Re-ack so the sender stops retrying.
      ++stats_.filtered;
    } else {
      it->second.delivered = true;
      --unresolved_payloads_;
      stage_arrival(copy.to, copy.ordinal, Envelope{copy.from, copy.msg});
      ++stats_.delivered;
    }
    transmit_copy(copy.to, copy.from, copy.ordinal, copy.payload_id,
                  /*is_ack=*/true, /*may_duplicate=*/false, copy.msg);
    return;
  }
  stage_arrival(copy.to, copy.ordinal, Envelope{copy.from, copy.msg});
  ++stats_.delivered;
}

void Network::stage_arrival(NodeId to, std::int64_t ordinal,
                            const Envelope& env) {
  auto& staged = f_staging_[static_cast<std::size_t>(to)];
  if (staged.empty()) f_staging_dirty_.push_back(to);
  staged.push_back(StagedArrival{ordinal, env});
}

void Network::publish_fault_round() {
  for (const NodeId v : f_front_dirty_) {
    f_front_[static_cast<std::size_t>(v)].clear();
  }
  f_front_dirty_.clear();
  std::int64_t published = 0;
  for (const NodeId v : f_staging_dirty_) {
    auto& staged = f_staging_[static_cast<std::size_t>(v)];
    // Commit-ordinal order: a reliable faulty execution reads each inbox
    // in exactly the fault-free order (duplicates of one send share its
    // ordinal; the stable sort keeps their arrival order).
    std::stable_sort(staged.begin(), staged.end(),
                     [](const StagedArrival& a, const StagedArrival& b) {
                       return a.ordinal < b.ordinal;
                     });
    auto& front = f_front_[static_cast<std::size_t>(v)];
    for (const StagedArrival& s : staged) front.push_back(s.env);
    published += static_cast<std::int64_t>(staged.size());
    staged.clear();
    f_front_dirty_.push_back(v);
  }
  f_staging_dirty_.clear();
  last_round_silent_ = published == 0;
}

void Network::set_round_hook(std::function<void(const NetStats&)> hook) {
  DASM_CHECK_MSG(!round_open_, "set_round_hook() while a round is open");
  round_hook_ = std::move(hook);
}

void Network::set_metrics(obs::MetricsRegistry* registry) {
  DASM_CHECK_MSG(!round_open_, "set_metrics() while a round is open");
  if (registry == nullptr) {
    m_end_round_us_ = {};
    m_round_messages_ = {};
    return;
  }
  m_end_round_us_ = registry->histogram("time.net.end_round_us");
  m_round_messages_ = registry->histogram("net.round_messages");
}

InboxView Network::inbox(NodeId v) const {
  DASM_CHECK(v >= 0 && v < node_count());
  if (fault_mode_) [[unlikely]] {
    const auto& box = f_front_[static_cast<std::size_t>(v)];
    return InboxView{box.data(), box.size()};
  }
  const Arena& in = arenas_[delivered_];
  const auto sv = static_cast<std::size_t>(v);
  return InboxView{in.slots.data() + slot_offset_[sv],
                   static_cast<std::size_t>(in.fill[sv])};
}

void Network::charge_scheduled_rounds(std::int64_t rounds) {
  DASM_CHECK(rounds >= 0);
  stats_.scheduled_rounds += rounds;
}

void Network::enable_trace(std::size_t max_events) {
  trace_cap_ = max_events;
  trace_ring_.assign(max_events, TraceEvent{});
  trace_ring_.shrink_to_fit();
  trace_start_ = 0;
  trace_size_ = 0;
  trace_dropped_ = 0;
}

std::vector<TraceEvent> Network::trace() const {
  std::vector<TraceEvent> out;
  out.reserve(trace_size_);
  for (std::size_t i = 0; i < trace_size_; ++i) {
    out.push_back(trace_ring_[(trace_start_ + i) % trace_cap_]);
  }
  return out;
}

}  // namespace dasm
