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

Network::Network(const Graph& graph, int message_bit_budget) {
  rebind(graph, message_bit_budget);
}

void Network::rebind(const Graph& graph, int message_bit_budget) {
  graph_ = &graph;
  slot_offset_ = graph.offsets().data();
  const auto n = static_cast<std::size_t>(graph.node_count());
  bit_budget_ = message_bit_budget > 0 ? message_bit_budget
                                       : default_bit_budget(n);
  // Node v receives at most one message per in-edge per round, so its
  // inbox fits in its deg(v) adjacency slots forever. The arenas only
  // grow: a graph no larger than the largest so far reuses them.
  const auto slots = static_cast<std::size_t>(slot_offset_[n]);
  if (slots > slot_capacity_) {
    for (Arena& a : arenas_) a.slots = raw_array<Envelope>(slots);
    slot_capacity_ = slots;
  }
  for (Arena& a : arenas_) {
    a.fill.assign(n, 0);
    a.dirty.clear();
    a.dirty.reserve(n);
  }
  delivered_ = 0;
  raw_inboxes_ = false;
  round_open_ = false;
  build_port_table();

  stats_ = NetStats{};
  round_hook_ = nullptr;
  m_end_round_us_ = {};
  m_round_messages_ = {};
  round_start_messages_ = 0;
  trace_cap_ = 0;
  trace_start_ = 0;
  trace_size_ = 0;
  trace_dropped_ = 0;

  // The fault layer, back to the fast path with nothing in flight.
  fault_mode_ = false;
  plan_ = FaultPlan{};
  drop_threshold_ = 0;
  dup_threshold_ = 0;
  delay_threshold_ = 0;
  edge_drop_override_.clear();
  keys_round_ = -1;
  crash_round_.clear();
  for (auto& slot : ring_) slot.clear();
  for (const NodeId v : f_staging_dirty_) {
    f_staging_[static_cast<std::size_t>(v)].clear();
  }
  f_staging_dirty_.clear();
  for (const NodeId v : f_front_dirty_) {
    f_front_[static_cast<std::size_t>(v)].clear();
  }
  f_front_dirty_.clear();
  holed_rows_.clear();
  std::fill(open_bits_.begin(), open_bits_.end(), 0);
  window_base_ = 0;
  open_payloads_ = 0;
  next_payload_id_ = 0;
  commit_ordinal_ = 0;
  copy_counter_ = 0;
  pending_copies_ = 0;
  unresolved_payloads_ = 0;
  retransmit_after_ = 0;
  max_retransmits_ = 64;
}

void Network::build_port_table() {
  // Per-node neighbour probe tables (load factor <= 1/2), kept while the
  // network is rebound to the graph they were built for.
  if (port_graph_serial_ == graph_->serial()) return;
  const auto n = static_cast<std::size_t>(node_count());
  port_offset_.assign(n + 1, 0);
  port_mask_.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto degree =
        static_cast<std::size_t>(slot_offset_[v + 1] - slot_offset_[v]);
    std::size_t cap = 2;
    while (cap < 2 * degree) cap *= 2;
    port_mask_[v] = static_cast<std::uint32_t>(cap - 1);
    port_offset_[v + 1] = port_offset_[v] + cap;
  }
  port_key_.assign(port_offset_[n], kNoNode);
  // Stamps left by earlier rounds, of this graph or another, are older
  // than any round to come, so the stamps only grow.
  if (sent_stamp_.size() < port_offset_[n]) {
    sent_stamp_.resize(port_offset_[n], -1);
  }
  const NodeId* adjacency = graph_->adjacency().data();
  for (std::size_t v = 0; v < n; ++v) {
    NodeId* keys = port_key_.data() + port_offset_[v];
    const std::uint32_t mask = port_mask_[v];
    for (std::int64_t e = slot_offset_[v]; e < slot_offset_[v + 1]; ++e) {
      const NodeId u = adjacency[e];
      std::uint32_t slot = (static_cast<std::uint32_t>(u) * 2654435761u) & mask;
      while (keys[slot] != kNoNode) slot = (slot + 1) & mask;
      keys[slot] = u;
    }
  }
  port_graph_serial_ = graph_->serial();
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
  out.slots[static_cast<std::size_t>(slot_offset_[to]) +
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
  // returns only once the round's inboxes are published.
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
    const auto n = static_cast<std::size_t>(node_count());
    if (retransmit_after_ == 0 && f_staging_.size() < n) {
      // Raw loss stages arrivals per receiver; sized on first use, so a
      // reliable run never allocates them.
      f_staging_.resize(n);
      f_front_.resize(n);
    }
    run_wire_round();
    std::int64_t wire_rounds = 1;
    while (unresolved_payloads_ > 0) {
      DASM_CHECK_MSG(++wire_rounds < 1'000'000,
                     "reliability sublayer failed to settle a round ("
                         << unresolved_payloads_ << " payloads open)");
      run_wire_round();
    }
    if (retransmit_after_ > 0) {
      publish_reliable_round();
    } else {
      publish_raw_round();
    }
    return;
  }
  flip_arenas();
  ++stats_.executed_rounds;
  ++stats_.scheduled_rounds;
  if (round_hook_) round_hook_(stats_);
}

void Network::flip_arenas() {
  // Retire the arena that was readable this round: reset only the slots
  // that held messages, then flip. No container grows or shrinks here, so
  // steady-state rounds perform no allocations.
  Arena& retired = arenas_[delivered_];
  for (const NodeId v : retired.dirty) {
    retired.fill[static_cast<std::size_t>(v)] = 0;
  }
  retired.dirty.clear();
  delivered_ ^= 1;
  raw_inboxes_ = false;
}

void Network::set_fault_plan(const FaultPlan& plan) {
  DASM_CHECK_MSG(!round_open_, "set_fault_plan() while a round is open");
  DASM_CHECK_MSG(pending_copies_ == 0 && open_payloads_ == 0,
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
  keys_round_ = -1;
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
  DASM_CHECK_MSG(pending_copies_ == 0 && open_payloads_ == 0,
                 "set_reliable_transport() with wire copies still in flight");
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
  // Dues span [wire_round, wire_round + max(1, max_delay)] (duplicates and
  // acks arrive at least one round late), so this size keeps ring slots
  // collision-free.
  ring_.resize(static_cast<std::size_t>(std::max(plan_.max_delay, 1)) + 2);
  // A wire round's due slot takes at most one new copy per directed edge
  // plus retransmissions, duplicates and acks; reserving half again over
  // the edge count (capped) keeps steady-state rounds from growing it.
  const auto edges = static_cast<std::size_t>(slot_offset_[node_count()]);
  const std::size_t due_copies =
      std::min<std::size_t>(edges + edges / 2, 1 << 15);
  for (auto& slot : ring_) slot.reserve(due_copies);
  // The first window spans four rounds of sends on every edge (capped at
  // 2^16 ids): a round opens at most one payload per directed edge, and
  // under 5% loss a saturated network's window stays within that.
  const std::size_t first_window =
      std::bit_ceil(std::clamp<std::size_t>(4 * edges, 64, 1 << 16));
  if (retransmit_after_ > 0 && window_mask_ + 1 < first_window) {
    grow_window(first_window);
  }
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
  const std::int64_t wire_round = stats_.executed_rounds;
  if (node_crashed(from, wire_round) || node_crashed(to, wire_round)) {
    // Crash-stop: a crashed endpoint kills the send outright (for a
    // crashed receiver this approximates a perfect failure detector — the
    // reliability sublayer would otherwise retransmit into the void until
    // its cap; see DESIGN.md §8).
    ++stats_.dropped;
    return;
  }
  if (retransmit_after_ == 0) {
    transmit_copy(from, to, commit_ordinal_++, /*is_ack=*/false,
                  /*may_duplicate=*/true, msg);
    return;
  }
  // Reserve the receiver's next slot in the filling arena, exactly where
  // the fault-free path would write this send: sends are in commit order,
  // so the published inbox keeps the fault-free order without a sort. The
  // per-edge stamp in send() keeps the row within deg(to).
  Arena& out = arenas_[delivered_ ^ 1];
  auto& fill = out.fill[static_cast<std::size_t>(to)];
  if (fill == 0) out.dirty.push_back(to);
  const std::int64_t slot = slot_offset_[to] + fill;
  ++fill;
  const std::int64_t id =
      open_payload(Payload{from, to, slot, wire_round, 1, false, msg});
  ++unresolved_payloads_;
  transmit_copy(from, to, id, /*is_ack=*/false, /*may_duplicate=*/true, msg);
}

void Network::transmit_copy(NodeId from, NodeId to, std::int64_t seq,
                            bool is_ack, bool may_duplicate,
                            const Message& msg) {
  const auto wire_round = static_cast<std::uint64_t>(stats_.executed_rounds);
  if (keys_round_ != stats_.executed_rounds) {
    keys_round_ = stats_.executed_rounds;
    keys_ = RoundKeys{fault_round_key(plan_.seed ^ kFaultDropSalt, wire_round),
                      fault_round_key(plan_.seed ^ kFaultDelaySalt, wire_round),
                      fault_round_key(plan_.seed ^ kFaultDelayAmountSalt,
                                      wire_round),
                      fault_round_key(plan_.seed ^ kFaultDuplicateSalt,
                                      wire_round),
                      fault_round_key(plan_.seed ^ kFaultAckSalt, wire_round)};
  }
  const std::uint64_t edge_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
      static_cast<std::uint32_t>(to);
  const auto copy_id = static_cast<std::uint64_t>(copy_counter_++);
  if (is_ack) {
    // Control-plane: acks roll their own loss but are invisible to every
    // NetStats counter — a lost ack only costs a spurious retransmission,
    // which the idempotent filter absorbs on arrival.
    if (fault_mix_copy(keys_.ack, edge_key, copy_id) <
        drop_threshold_for(from, to)) {
      return;
    }
    ring_[static_cast<std::size_t>((wire_round + 1) % ring_.size())].push_back(
        WireCopy{from, to, seq, true, msg});
    return;
  }
  if (fault_mix_copy(keys_.drop, edge_key, copy_id) <
      drop_threshold_for(from, to)) {
    ++stats_.dropped;  // a sequenced payload stays open and retransmits
  } else {
    std::uint64_t due = wire_round;
    if (delay_threshold_ != 0 &&
        fault_mix_copy(keys_.delay, edge_key, copy_id) < delay_threshold_) {
      due += 1 + fault_mix_copy(keys_.delay_amount, edge_key, copy_id) %
                     static_cast<std::uint64_t>(plan_.max_delay);
    }
    ring_[static_cast<std::size_t>(due % ring_.size())].push_back(
        WireCopy{from, to, seq, false, msg});
    ++pending_copies_;
  }
  if (may_duplicate && dup_threshold_ != 0 &&
      fault_mix_copy(keys_.duplicate, edge_key, copy_id) < dup_threshold_) {
    // The duplicate re-rolls its own loss and arrives 1..max(1, max_delay)
    // rounds late; duplicates never duplicate again.
    ++stats_.duplicated;
    const auto dup_id = static_cast<std::uint64_t>(copy_counter_++);
    if (fault_mix_copy(keys_.drop, edge_key, dup_id) <
        drop_threshold_for(from, to)) {
      ++stats_.dropped;
    } else {
      const auto span =
          static_cast<std::uint64_t>(std::max(plan_.max_delay, 1));
      const std::uint64_t due =
          wire_round + 1 +
          fault_mix_copy(keys_.delay_amount, edge_key, dup_id) % span;
      ring_[static_cast<std::size_t>(due % ring_.size())].push_back(
          WireCopy{from, to, seq, false, msg});
      ++pending_copies_;
    }
  }
}

void Network::run_wire_round() {
  const std::int64_t wire_round = stats_.executed_rounds;
  if (retransmit_after_ > 0 && open_payloads_ > 0) {
    // Retransmit scan in payload-id (= original send) order, one word of
    // the open set at a time. Every undelivered payload was born in the
    // current protocol round — end_round() never returns while one is
    // open — and the scan opens no payload, so the window holds still.
    trim_window();
    const std::size_t words_mask = open_bits_.size() - 1;
    const std::int64_t first_word = window_base_ >> 6;
    const std::int64_t last_word = (next_payload_id_ - 1) >> 6;
    for (std::int64_t w = first_word; w <= last_word; ++w) {
      std::uint64_t bits = open_bits_[static_cast<std::size_t>(w) & words_mask];
      // A full window that starts mid-word wraps onto its own first word:
      // keep only the bits of ids inside [window_base_, next_payload_id_).
      if (w == first_word) bits &= ~std::uint64_t{0} << (window_base_ & 63);
      if (w == last_word) {
        bits &= ~std::uint64_t{0} >> (63 - ((next_payload_id_ - 1) & 63));
      }
      while (bits != 0) {
        const int bit = std::countr_zero(bits);
        bits &= bits - 1;
        retransmit_or_retire(w * 64 + bit, wire_round);
      }
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

void Network::retransmit_or_retire(std::int64_t id, std::int64_t wire_round) {
  Payload& p = payload(id);
  const bool endpoint_crashed =
      node_crashed(p.from, wire_round) || node_crashed(p.to, wire_round);
  const bool due = wire_round - p.last_tx >= retransmit_after_;
  if (endpoint_crashed || (due && p.attempts > max_retransmits_)) {
    // Dead: a crashed endpoint can neither retransmit nor ack, and the
    // attempt cap bounds how long a lost copy or ack keeps the payload
    // alive. The copies it sent were each counted dropped (or are still
    // pending) individually.
    if (!p.delivered) retire_undelivered(p);
    close_payload(id);
    return;
  }
  if (due) {
    ++p.attempts;
    p.last_tx = wire_round;
    ++stats_.retransmitted;
    record_trace_event(p.from, p.to, p.msg);
    transmit_copy(p.from, p.to, id, /*is_ack=*/false, /*may_duplicate=*/true,
                  p.msg);
  }
}

void Network::deliver_copy(const WireCopy& copy, std::int64_t wire_round) {
  if (copy.is_ack) {
    // The sender forgets an acked payload; a stale ack (payload already
    // closed) or an ack into a crashed sender is silently ignored.
    if (!node_crashed(copy.to, wire_round) && payload_open(copy.seq)) {
      close_payload(copy.seq);
    }
    return;
  }
  --pending_copies_;
  if (retransmit_after_ == 0) {
    if (node_crashed(copy.to, wire_round)) {
      ++stats_.dropped;
      return;
    }
    stage_arrival(copy.to, copy.seq, Envelope{copy.from, copy.msg});
    ++stats_.delivered;
    return;
  }
  const bool open = payload_open(copy.seq);
  if (node_crashed(copy.to, wire_round)) {
    ++stats_.dropped;
    if (open && !payload(copy.seq).delivered) {
      retire_undelivered(payload(copy.seq));
      close_payload(copy.seq);
    }
    return;
  }
  if (!open || payload(copy.seq).delivered) {
    // Idempotent-delivery filter: this sequence number already reached
    // the inbox (network duplicate, delayed copy, or a retransmission
    // whose ack was lost). Re-ack so the sender stops retrying.
    ++stats_.filtered;
  } else {
    Payload& p = payload(copy.seq);
    p.delivered = true;
    --unresolved_payloads_;
    arenas_[delivered_ ^ 1].slots[static_cast<std::size_t>(p.slot)] =
        Envelope{copy.from, copy.msg};
    ++stats_.delivered;
  }
  transmit_copy(copy.to, copy.from, copy.seq, /*is_ack=*/true,
                /*may_duplicate=*/false, copy.msg);
}

void Network::stage_arrival(NodeId to, std::int64_t ordinal,
                            const Envelope& env) {
  auto& staged = f_staging_[static_cast<std::size_t>(to)];
  if (staged.empty()) f_staging_dirty_.push_back(to);
  staged.push_back(StagedArrival{ordinal, env});
}

void Network::publish_raw_round() {
  for (const NodeId v : f_front_dirty_) {
    f_front_[static_cast<std::size_t>(v)].clear();
  }
  f_front_dirty_.clear();
  for (const NodeId v : f_staging_dirty_) {
    auto& staged = f_staging_[static_cast<std::size_t>(v)];
    // Commit-ordinal order: delayed copies and duplicates arrive out of
    // send order (duplicates of one send share its ordinal; the stable
    // sort keeps their arrival order).
    std::stable_sort(staged.begin(), staged.end(),
                     [](const StagedArrival& a, const StagedArrival& b) {
                       return a.ordinal < b.ordinal;
                     });
    auto& front = f_front_[static_cast<std::size_t>(v)];
    for (const StagedArrival& s : staged) front.push_back(s.env);
    staged.clear();
    f_front_dirty_.push_back(v);
  }
  f_staging_dirty_.clear();
  raw_inboxes_ = true;
}

void Network::publish_reliable_round() {
  // Every slot reserved this round now holds its payload's envelope or,
  // for a payload that died undelivered, a hole. Close the holes row by
  // row, keeping send order, and unlist the rows they emptied.
  Arena& filled = arenas_[delivered_ ^ 1];
  if (!holed_rows_.empty()) {
    bool emptied = false;
    for (const NodeId v : holed_rows_) {
      Envelope* row = filled.slots.get() + slot_offset_[v];
      auto& fill = filled.fill[static_cast<std::size_t>(v)];
      NodeId kept = 0;
      for (NodeId i = 0; i < fill; ++i) {
        if (row[i].from != kNoNode) row[kept++] = row[i];
      }
      fill = kept;
      emptied = emptied || kept == 0;
    }
    holed_rows_.clear();
    if (emptied) {
      std::erase_if(filled.dirty, [&](NodeId v) {
        return filled.fill[static_cast<std::size_t>(v)] == 0;
      });
    }
  }
  flip_arenas();
}

void Network::retire_undelivered(const Payload& p) {
  --unresolved_payloads_;
  arenas_[delivered_ ^ 1].slots[static_cast<std::size_t>(p.slot)] =
      Envelope{kNoNode, Message{}};
  holed_rows_.push_back(p.to);
}

bool Network::payload_open(std::int64_t id) const {
  if (id < window_base_ || id >= next_payload_id_) return false;
  const auto i = static_cast<std::size_t>(id) & window_mask_;
  return (open_bits_[i >> 6] >> (i & 63)) & 1;
}

std::int64_t Network::open_payload(const Payload& p) {
  const auto capacity = static_cast<std::int64_t>(window_mask_ + 1);
  if (next_payload_id_ - window_base_ == capacity) {
    trim_window();
    if (next_payload_id_ - window_base_ == capacity) {
      grow_window(2 * (window_mask_ + 1));
    }
  }
  const std::int64_t id = next_payload_id_++;
  const auto i = static_cast<std::size_t>(id) & window_mask_;
  window_[i] = p;
  open_bits_[i >> 6] |= std::uint64_t{1} << (i & 63);
  ++open_payloads_;
  return id;
}

void Network::close_payload(std::int64_t id) {
  const auto i = static_cast<std::size_t>(id) & window_mask_;
  open_bits_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  --open_payloads_;
}

void Network::trim_window() {
  // Advance the base to the oldest open id, skipping closed ids a word at
  // a time. From the base on, a set bit always belongs to an open id of
  // the window (every closed id clears its bit, and the ids a slot held
  // before are all older than the base).
  while (window_base_ < next_payload_id_) {
    const auto i = static_cast<std::size_t>(window_base_) & window_mask_;
    const std::uint64_t bits = open_bits_[i >> 6] >> (i & 63);
    if (bits != 0) {
      window_base_ += std::countr_zero(bits);
      return;
    }
    window_base_ += static_cast<std::int64_t>(64 - (i & 63));
  }
  window_base_ = next_payload_id_;
}

void Network::grow_window(std::size_t capacity) {
  // Open payloads keep their ids and move to their slots under the wider
  // mask.
  RawArray<Payload> window = raw_array<Payload>(capacity);
  std::vector<std::uint64_t> bits(capacity / 64, 0);
  for (std::int64_t id = window_base_; id < next_payload_id_; ++id) {
    if (!payload_open(id)) continue;
    const auto i = static_cast<std::size_t>(id) & (capacity - 1);
    window[i] = payload(id);
    bits[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  window_ = std::move(window);
  window_mask_ = capacity - 1;
  open_bits_ = std::move(bits);
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
  if (raw_inboxes_) [[unlikely]] {
    const auto& box = f_front_[static_cast<std::size_t>(v)];
    return InboxView{box.data(), box.size()};
  }
  const Arena& in = arenas_[delivered_];
  const auto sv = static_cast<std::size_t>(v);
  return InboxView{in.slots.get() + slot_offset_[v],
                   static_cast<std::size_t>(in.fill[sv])};
}

void Network::charge_scheduled_rounds(std::int64_t rounds) {
  DASM_CHECK(rounds >= 0);
  stats_.scheduled_rounds += rounds;
}

void Network::enable_trace(std::size_t max_events) {
  // Ring slots are written before they are read, so growing the ring is
  // the only work; a smaller cap keeps the storage.
  if (trace_ring_.size() < max_events) trace_ring_.resize(max_events);
  trace_cap_ = max_events;
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
