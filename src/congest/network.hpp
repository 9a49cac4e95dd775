// The synchronous CONGEST network simulator (§2.2 of the paper).
//
// Processors are identified by NodeId. Communication is restricted to the
// edges of a fixed communication graph; each round every processor may send
// at most one short (O(log n)-bit) message to each neighbour. A round is
// executed as:
//
//   net.begin_round();
//   ... protocol code calls net.send(from, to, msg) ...
//   net.end_round();                 // messages become visible
//   ... next round reads net.inbox(v) ...
//
// The network enforces the model (edges only, one message per directed edge
// per round, message size budget) and records rounds / messages / bits so
// every experiment can report communication cost. Rounds that a schedule
// allocates but that provably move no messages can be charged separately
// via charge_scheduled_rounds(), keeping the "paper schedule" accounting
// distinct from the "executed" accounting (see DESIGN.md §2.3).
//
// The network borrows its communication graph: it is built on a `Graph`
// (whose constructor already rejects self-loops, duplicate edges and
// out-of-range endpoints, and which is symmetric by construction) and
// reads neighbour lists from it, so the Graph must outlive the Network's
// use of it.
//
// Delivery is zero-allocation in steady state: because the model admits at
// most one message per directed edge per round, every node's inbox fits in
// a slot range of size deg(v). Messages live in two flat CSR-style arenas
// (one contiguous Envelope buffer per direction of the double buffer, plus
// a shared per-node offset table); end_round() flips the buffers by index
// and resets only the slots that were actually used. inbox(v) hands out a
// view into the current arena, and receivers() lists the nodes whose inbox
// the last end_round() filled, so a caller can step only the nodes that
// have something to read. The reliability sublayer
// (set_reliable_transport) keeps inboxes in the same arenas and reuses its
// payload window and wire ring from round to round, so its steady-state
// rounds allocate nothing either; only raw loss stages inboxes in growable
// per-node vectors (DESIGN.md §8).
//
// One network serves many runs (DESIGN.md §13): rebind() points it at a
// graph and clears everything a run leaves behind, keeping the capacity
// of every buffer, so a warm network starts a run without allocating. The
// constructor is a rebind() onto empty buffers. The arenas grow to the
// largest graph the network has been bound to. The hashed port table is
// rebuilt only when the graph's serial (graph/graph.hpp) differs from the
// one it was built for.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "congest/fault.hpp"
#include "congest/message.hpp"
#include "congest/types.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace dasm {

/// A received message together with its sender.
struct Envelope {
  NodeId from;
  Message msg;

  friend bool operator==(const Envelope&, const Envelope&) = default;
};

/// A node's inbox for the current round: a view into the delivery arena,
/// valid until the next end_round() (or the Network's destruction).
using InboxView = std::span<const Envelope>;

/// One traced transmission (see Network::enable_trace).
struct TraceEvent {
  Round round;
  NodeId from;
  NodeId to;
  Message msg;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Cumulative traffic statistics for a protocol execution.
struct NetStats {
  std::int64_t executed_rounds = 0;   ///< rounds in which end_round() ran
  std::int64_t scheduled_rounds = 0;  ///< executed + charged-but-skipped
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  int max_message_bits = 0;
  /// Message count per MsgType — the traffic breakdown of a protocol
  /// (how much is proposing vs. rejecting vs. matching-subroutine).
  std::array<std::int64_t, 16> messages_by_type{};

  // Fault-layer accounting (DESIGN.md §8). `messages`/`bits` above count
  // the protocol's offered load (every send() call); the counters below
  // partition what the network then did with each wire copy. On the
  // reliable fast path delivered == messages and the rest stay 0. The
  // conservation law (asserted in test_network.cpp) is
  //
  //   messages + duplicated + retransmitted ==
  //       delivered + dropped + filtered + (copies still in flight)
  //
  // where in-flight copies (bounded by the plan's max_delay) are reported
  // by Network::pending_wire_copies().
  std::int64_t delivered = 0;      ///< envelopes placed into inboxes
  std::int64_t dropped = 0;        ///< wire copies lost (faults / crashes)
  std::int64_t duplicated = 0;     ///< extra copies created by duplication
  std::int64_t retransmitted = 0;  ///< reliability-sublayer retransmissions
  std::int64_t filtered = 0;       ///< copies suppressed as duplicates by
                                   ///< the idempotent-delivery filter

  std::int64_t count_of(MsgType type) const {
    const auto idx = static_cast<std::size_t>(type);
    DASM_DCHECK(idx < messages_by_type.size());
    return messages_by_type[idx];
  }

  /// Merges the traffic of another execution into this one — the
  /// aggregation step of a sweep over independent (instance, seed, params)
  /// cells. Counters add; max_message_bits takes the max.
  NetStats& operator+=(const NetStats& other);

  /// The traffic between the `base` snapshot and this one: counters
  /// subtract; max_message_bits carries over from this snapshot (a max
  /// has no windowed inverse). `base` must be an earlier snapshot of the
  /// same execution.
  NetStats delta_since(const NetStats& base) const;

  friend bool operator==(const NetStats&, const NetStats&) = default;
};

class Network {
 public:
  /// Builds a network over the communication graph `graph`, which it
  /// borrows: the Graph must outlive the Network (a temporary cannot bind).
  /// `message_bit_budget` caps a single message's encoded size (pass 0 to
  /// derive the standard CONGEST budget 8 * ceil(log2(n + 2))).
  explicit Network(const Graph& graph, int message_bit_budget = 0);
  Network(Graph&&, int = 0) = delete;

  /// Points the network at `graph`, as the constructor does, and clears
  /// everything one run can leave for the next: statistics, round hook,
  /// metrics handles, trace ring, fault plan, the reliability sublayer's
  /// window and ring, and open payloads or an open round, also after a run
  /// that threw mid-round. Every buffer keeps its capacity, so rebinding
  /// a network that already served a graph this large allocates nothing;
  /// the port table is rebuilt only when `graph` is not the one it was
  /// built for.
  void rebind(const Graph& graph, int message_bit_budget = 0);
  void rebind(Graph&&, int = 0) = delete;

  NodeId node_count() const { return graph_->node_count(); }
  std::span<const NodeId> neighbors(NodeId v) const {
    return graph_->neighbors(v);
  }
  bool has_edge(NodeId u, NodeId v) const { return graph_->has_edge(u, v); }
  int message_bit_budget() const { return bit_budget_; }

  /// Starts a communication round. Must alternate with end_round().
  void begin_round();

  /// Sends a message from `from` to its neighbour `to` in the current
  /// round. Enforces: round open, (from, to) is an edge, at most one
  /// message per directed edge per round, size within budget.
  void send(NodeId from, NodeId to, const Message& msg);

  /// Closes the round: delivers this round's messages into the inboxes
  /// read during the next round and updates statistics. Allocation-free.
  void end_round();

  /// Fault injection (DESIGN.md §8). Installs a seeded FaultPlan; from the
  /// next round on, every send and end_round() consult it: copies may be
  /// dropped, duplicated, or delayed, and crashed nodes stop sending and
  /// receiving. Fault decisions come from a counter-based PRNG keyed on
  /// (plan seed, wire round, edge, copy id), so the same seed and plan
  /// reproduce byte-identical inboxes, NetStats, and traces. Only
  /// callable between rounds, with no wire copies in flight. Passing a
  /// default (inactive) plan with no reliability sublayer restores the
  /// fault-free fast path.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return plan_; }
  bool fault_mode() const { return fault_mode_; }

  /// Reliability sublayer: with `retransmit_after` > 0, every protocol
  /// send becomes a sequenced payload that the network retransmits every
  /// `retransmit_after` wire rounds until the receiver's ack comes back;
  /// an idempotent-delivery filter suppresses duplicate arrivals (network
  /// duplicates and spurious retransmissions whose ack was lost). Each
  /// end_round() then expands into as many wire rounds as it takes for
  /// every payload of that protocol round to be delivered (or permanently
  /// dropped by a crash / the retransmit cap), so protocols keep their
  /// lockstep semantics and loss costs extra executed rounds, never
  /// correctness. Inboxes are published in the original send order, so a
  /// reliable faulty execution steps players exactly like the fault-free
  /// one. Acks are control-plane: they roll their own loss but are not
  /// counted in messages/bits. `max_retransmits` bounds the attempts per
  /// payload (then it counts as dropped) so an unlucky or partitioned
  /// edge cannot spin forever. Pass 0 to disable. Only callable between
  /// rounds, with no wire copies in flight.
  void set_reliable_transport(int retransmit_after, int max_retransmits = 64);
  int retransmit_after() const { return retransmit_after_; }

  /// Wire copies currently in flight inside the fault layer (delayed
  /// copies and duplicates not yet due). Bounded by plan.max_delay rounds
  /// of traffic; 0 on the fast path and whenever the ring has drained.
  std::int64_t pending_wire_copies() const { return pending_copies_; }

  /// Messages delivered to v by the most recent end_round(), in send-call
  /// order. The view is invalidated by the next end_round().
  InboxView inbox(NodeId v) const;

  /// The nodes whose inbox the most recent end_round() filled: each node
  /// with a non-empty inbox appears exactly once, in no particular order.
  /// The view is invalidated by the next end_round().
  std::span<const NodeId> receivers() const {
    return raw_inboxes_ ? std::span<const NodeId>(f_front_dirty_)
                        : std::span<const NodeId>(arenas_[delivered_].dirty);
  }

  /// True if the most recent end_round() delivered no messages at all —
  /// under fault injection, a round whose every copy was dropped or
  /// delayed reads as silent (nothing reached an inbox).
  bool last_round_was_silent() const { return receivers().empty(); }

  /// Adds rounds that the paper's schedule allocates but the simulator
  /// skipped because they provably exchange no messages.
  void charge_scheduled_rounds(std::int64_t rounds);

  const NetStats& stats() const { return stats_; }

  /// Wall-clock metrics (src/obs/metrics.hpp, DESIGN.md §11). Registers
  /// `time.net.end_round_us` (commit latency per round) and
  /// `net.round_messages` (offered load per round — logical, hence
  /// byte-identical run to run) in `registry` and records them on every
  /// subsequent end_round(). Pass nullptr to detach; when detached (the
  /// default) end_round() pays one branch and never reads the clock. Only
  /// callable between rounds.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Observability hook (src/obs/): invoked at the end of every
  /// end_round(), once the round's statistics are final, with the
  /// cumulative stats. The callback must not send on or mutate the
  /// network. Pass an empty function to clear the hook. Costs one branch
  /// per round when unset.
  void set_round_hook(std::function<void(const NetStats&)> hook);

  /// Starts recording every transmission into a fixed-capacity ring of
  /// `max_events` events (once full, each new event overwrites the oldest
  /// in O(1), and dropped_trace_events() reports how many were lost).
  /// Pass 0 to stop tracing; a nonzero cap starts a fresh recording. The
  /// ring keeps its storage across calls and rebinds.
  void enable_trace(std::size_t max_events);

  /// The retained trace, oldest first (a linearized copy of the ring).
  std::vector<TraceEvent> trace() const;
  std::int64_t dropped_trace_events() const { return trace_dropped_; }

 private:
  // One direction of the double buffer: a flat slot array indexed by the
  // shared CSR offsets, the per-node fill counts, and the list of nodes
  // with at least one filled slot (so resets touch only what was used).
  // The slots are allocated but never initialized: send() writes a slot
  // before any inbox() view covers it, and filling 2 * sum(deg) slots up
  // front would be the largest cost of building a network.
  struct FreeRaw {
    void operator()(void* p) const { ::operator delete(p); }
  };
  template <typename T>
  using RawArray = std::unique_ptr<T[], FreeRaw>;
  template <typename T>
  static RawArray<T> raw_array(std::size_t n) {
    return RawArray<T>(static_cast<T*>(::operator new(n * sizeof(T))));
  }
  struct Arena {
    RawArray<Envelope> slots;
    std::vector<NodeId> fill;
    std::vector<NodeId> dirty;
  };

  // ---- Fault-injection state (DESIGN.md §8) ----
  // A copy on the wire. Under reliable transport `seq` is the id of the
  // payload it carries (or, with `is_ack`, acknowledges); under raw loss
  // it is the commit ordinal of the originating send, by which the
  // publish step sorts each inbox.
  struct WireCopy {
    NodeId from;
    NodeId to;
    std::int64_t seq;
    bool is_ack;
    Message msg;
  };
  // A sequenced protocol send awaiting its ack (reliability sublayer).
  // Until its first delivery it owns `slot`, the inbox slot of the
  // filling arena that send() reserved for it.
  struct Payload {
    NodeId from;
    NodeId to;
    std::int64_t slot;
    std::int64_t last_tx;  // wire round of the latest transmission
    int attempts;          // transmissions so far (1 = initial send only)
    bool delivered;
    Message msg;
  };
  // A raw-loss arrival staged for the current protocol round, keyed by the
  // commit ordinal of its originating send for the publish-time sort.
  struct StagedArrival {
    std::int64_t ordinal;
    Envelope env;
  };

  const Graph* graph_ = nullptr;  // borrowed; sorted neighbour lists
  // The Graph's CSR offsets, borrowed with it: v's inbox is slots
  // [slot_offset_[v], slot_offset_[v + 1]) of each arena.
  const std::int64_t* slot_offset_ = nullptr;
  std::array<Arena, 2> arenas_;
  std::size_t slot_capacity_ = 0;  // slots allocated in each arena
  int delivered_ = 0;  // arenas_[delivered_] is readable; the other fills
  // Per-node open-addressing set of neighbours, flattened into shared
  // arrays (power-of-two region per node, linear probing): O(1) edge
  // lookup on the send path instead of a binary search. A rebind rebuilds
  // the table only for a graph whose serial (Graph::serial()) differs
  // from the one it was built for. The directed-edge send guard lives in
  // the same layout — sent_stamp_ is indexed by probe slot and holds the
  // id of the round that last used the edge. Round ids never restart, not
  // even across rebinds, so no stamp left by an earlier run can match the
  // open round's, and the stamps are never cleared, only grown.
  std::vector<NodeId> port_key_;         // neighbour id, kNoNode = empty
  std::vector<std::size_t> port_offset_; // region start per node
  std::vector<std::uint32_t> port_mask_; // region size - 1 per node
  std::vector<std::int64_t> sent_stamp_; // by probe slot, >= port_key_
  std::uint64_t port_graph_serial_ = 0;  // 0 = no table built yet
  std::int64_t round_serial_ = 0;
  bool round_open_ = false;
  int bit_budget_ = 0;
  NetStats stats_;
  std::function<void(const NetStats&)> round_hook_;
  // Wall-clock metrics handles (inactive unless set_metrics() attached a
  // registry). round_start_messages_ snapshots stats_.messages at
  // begin_round() so end_round() can observe the round's offered load.
  obs::HistogramHandle m_end_round_us_;
  obs::HistogramHandle m_round_messages_;
  std::int64_t round_start_messages_ = 0;
  // Trace ring buffer: trace_ring_[trace_start_] is the oldest retained
  // event, trace_size_ events follow cyclically.
  std::vector<TraceEvent> trace_ring_;
  std::size_t trace_cap_ = 0;
  std::size_t trace_start_ = 0;
  std::size_t trace_size_ = 0;
  std::int64_t trace_dropped_ = 0;

  // Fault mode (DESIGN.md §8). The ring holds in-flight copies indexed by
  // due-wire-round modulo its size (sized past max_delay so slots never
  // collide). Under reliable transport inboxes stay in the arenas: each
  // send reserves the receiver's next slot in the filling arena, the
  // payload's first delivery writes it, and a payload that dies
  // undelivered leaves a hole that the publish step compacts away. Raw
  // loss can put more than deg(v) copies into one inbox (duplicates,
  // delays), so it stages arrivals per receiver in f_staging_, and the
  // publish step sorts each by ordinal into f_front_, which inbox() then
  // serves. The fault-free fast path in send()/end_round() costs one
  // predicted branch.
  bool fault_mode_ = false;
  bool raw_inboxes_ = false;  // the last end_round() published f_front_
  FaultPlan plan_;
  std::uint64_t drop_threshold_ = 0;
  std::uint64_t dup_threshold_ = 0;
  std::uint64_t delay_threshold_ = 0;
  // Per-directed-edge drop overrides: sorted (from << 32 | to) -> threshold.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edge_drop_override_;
  // fault_round_key() of each decision stream for wire round keys_round_:
  // every copy a wire round transmits shares it.
  struct RoundKeys {
    std::uint64_t drop, delay, delay_amount, duplicate, ack;
  };
  RoundKeys keys_{};
  std::int64_t keys_round_ = -1;
  std::vector<Round> crash_round_;  // per node; empty = no crashes
  std::vector<std::vector<WireCopy>> ring_;
  std::vector<std::vector<StagedArrival>> f_staging_;
  std::vector<std::vector<Envelope>> f_front_;
  std::vector<NodeId> f_staging_dirty_;
  std::vector<NodeId> f_front_dirty_;
  std::vector<NodeId> holed_rows_;  // receivers of this round's dead payloads
  // Open payloads: ids follow send order, so they form a sliding window
  // [window_base_, next_payload_id_). Payload id lives at
  // window_[id & window_mask_], and that bit of open_bits_ is set iff id
  // is open, so the retransmit scan visits open ids in id order a 64-bit
  // word at a time. The capacity, a power of two, starts at a size set by
  // the edge count (slots are written before they are read, so untouched
  // ones cost no memory) and doubles only when an unacked payload pins a
  // window longer than that. A rebind keeps the capacity; which capacity
  // holds an id changes no send, inbox or statistic.
  RawArray<Payload> window_;
  std::size_t window_mask_ = 0;  // capacity - 1; 0 until reliable
  std::vector<std::uint64_t> open_bits_;
  std::int64_t window_base_ = 0;
  std::int64_t open_payloads_ = 0;
  std::int64_t next_payload_id_ = 0;
  std::int64_t commit_ordinal_ = 0;
  std::int64_t copy_counter_ = 0;
  std::int64_t pending_copies_ = 0;
  std::int64_t unresolved_payloads_ = 0;  // born this protocol round, fate open
  int retransmit_after_ = 0;
  int max_retransmits_ = 64;

  std::size_t edge_slot(NodeId from, NodeId to) const;
  void end_round_impl();
  void record_trace_event(NodeId from, NodeId to, const Message& msg);
  bool node_crashed(NodeId v, std::int64_t wire_round) const;
  std::uint64_t drop_threshold_for(NodeId from, NodeId to) const;
  void refresh_fault_mode();
  // Resets the retired (readable) arena and makes the filled one readable.
  void flip_arenas();
  // Rolls drop/delay/duplicate for one wire copy at the current wire round
  // and either enqueues it into the ring or counts it dropped.
  void transmit_copy(NodeId from, NodeId to, std::int64_t seq, bool is_ack,
                     bool may_duplicate, const Message& msg);
  void fault_commit_send(NodeId from, NodeId to, const Message& msg);
  // One wire round: retransmit scan, ring-slot drain (deliveries, acks,
  // duplicate filtering), then the round clock tick and obs hook.
  void run_wire_round();
  void retransmit_or_retire(std::int64_t id, std::int64_t wire_round);
  void deliver_copy(const WireCopy& copy, std::int64_t wire_round);
  void stage_arrival(NodeId to, std::int64_t ordinal, const Envelope& env);
  void publish_raw_round();
  void publish_reliable_round();

  // The payload window.
  Payload& payload(std::int64_t id) {
    return window_[static_cast<std::size_t>(id) & window_mask_];
  }
  bool payload_open(std::int64_t id) const;
  std::int64_t open_payload(const Payload& p);
  void close_payload(std::int64_t id);
  // A payload that dies undelivered marks its reserved slot as a hole.
  // Undelivered payloads all belong to the open protocol round, so the
  // slot is in the filling arena.
  void retire_undelivered(const Payload& p);
  void trim_window();
  // Moves the open payloads into a window of `capacity` ids (a power of
  // two above the current one).
  void grow_window(std::size_t capacity);
  // Builds the bound graph's port table unless it was the last one built.
  void build_port_table();
};

}  // namespace dasm
