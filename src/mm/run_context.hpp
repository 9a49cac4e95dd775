// One warm run context per thread (DESIGN.md §13).
//
// A protocol run needs a CONGEST Network over its graph and one
// maximal-matching node per processor. Building them for every run costs
// more than many runs do, so each thread keeps one RunContext and every
// run re-binds it: Network::rebind() points the network at the run's
// graph, and NodePool::prepare() re-initializes the run's nodes in place.
// Buffers only grow, so a context is sized by the largest instance its
// thread has run, and a warm run allocates only what it returns.
//
// The context sits behind the unchanged entry points
// (mm::run_maximal_matching here, core::run_asm and core::run_rand_asm in
// core/engine.hpp, which add the players and the engine's scratch lists),
// so every caller reuses it with no new parameter. A run re-initializes
// everything it reads before reading it, and a re-bind clears what a run
// leaves behind, also after a run that threw mid-round; so a run's
// matching, NetStats and trace equal those of the same run on a fresh
// thread (SvcContext.ReusedContextMatchesAFreshThread pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "mm/color_class_node.hpp"
#include "mm/israeli_itai.hpp"
#include "mm/node.hpp"
#include "mm/pointer_greedy.hpp"
#include "mm/random_priority.hpp"

namespace dasm::mm {

/// One node array per backend, re-initialized in place for each run.
class NodePool {
 public:
  /// Makes nodes 0..count-1 of `backend` ready for reset(), keeping
  /// their storage: a randomized node v draws from its own stream
  /// derive_stream(seed, v) (random-priority salts the seed), and a
  /// color-class node is sized by `degree_bound` (>= the degree of any
  /// graph it is reset on) and `id_bound` (> every node id); the other
  /// backends ignore the bounds. Every driver of the protocols, ASM's
  /// Step 3 included, takes its nodes from here.
  void prepare(Backend backend, std::uint64_t seed, NodeId count,
               NodeId degree_bound, NodeId id_bound);

  /// Node v of the last prepare().
  Node& operator[](NodeId v) const {
    return *nodes_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<PointerGreedyNode> pointer_greedy_;
  std::vector<IsraeliItaiNode> israeli_itai_;
  std::vector<RandomPriorityNode> random_priority_;
  std::vector<ColorClassNode> color_class_;
  std::vector<Node*> nodes_;  // the prepared backend's nodes, by id
};

/// A thread's reusable run state: the network every run re-binds, and
/// the maximal-matching nodes and the list of their non-quiescent ids,
/// both shared by ASM's Step 3 and the standalone runner.
struct RunContext {
  explicit RunContext(const Graph& empty) : net(empty) {}

  Network net;
  NodePool nodes;
  std::vector<NodeId> live;
};

/// Leases the calling thread's RunContext for one run. A run that starts
/// inside another run on the same thread would clobber its state, so that
/// is a CheckError.
class RunLease {
 public:
  RunLease();
  ~RunLease();
  RunLease(const RunLease&) = delete;
  RunLease& operator=(const RunLease&) = delete;

  RunContext& operator*() const { return *ctx_; }
  RunContext* operator->() const { return ctx_; }

 private:
  RunContext* ctx_;
};

}  // namespace dasm::mm
