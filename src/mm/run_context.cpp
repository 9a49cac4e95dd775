#include "mm/run_context.hpp"

#include "util/check.hpp"

namespace dasm::mm {

namespace {

// Node `node_id`'s independent stream under `seed`; random-priority salts
// the seed so its draws differ from Israeli–Itai's on the same seed.
Xoshiro256 node_stream(Backend backend, std::uint64_t seed, NodeId node_id) {
  const auto salt = static_cast<std::uint64_t>(node_id);
  return backend == Backend::kRandomPriority
             ? derive_stream(seed ^ 0x5b1ce, salt)
             : derive_stream(seed, salt);
}

}  // namespace

void NodePool::prepare(Backend backend, std::uint64_t seed, NodeId count,
                       NodeId degree_bound, NodeId id_bound) {
  const auto n = static_cast<std::size_t>(count);
  nodes_.resize(n);
  switch (backend) {
    case Backend::kPointerGreedy:
      if (pointer_greedy_.size() < n) pointer_greedy_.resize(n);
      for (std::size_t v = 0; v < n; ++v) nodes_[v] = &pointer_greedy_[v];
      return;
    case Backend::kIsraeliItai:
      if (israeli_itai_.size() < n) israeli_itai_.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        israeli_itai_[v].reseed(
            node_stream(backend, seed, static_cast<NodeId>(v)));
        nodes_[v] = &israeli_itai_[v];
      }
      return;
    case Backend::kRandomPriority:
      if (random_priority_.size() < n) random_priority_.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        random_priority_[v].reseed(
            node_stream(backend, seed, static_cast<NodeId>(v)));
        nodes_[v] = &random_priority_[v];
      }
      return;
    case Backend::kColorClass:
      if (color_class_.size() < n) color_class_.resize(n);
      for (std::size_t v = 0; v < n; ++v) {
        color_class_[v].set_bounds(degree_bound, id_bound);
        nodes_[v] = &color_class_[v];
      }
      return;
  }
  DASM_CHECK_MSG(false, "unknown backend");
}

namespace {

struct ThreadContext {
  ThreadContext() : ctx(empty_graph()) {}

  static const Graph& empty_graph() {
    static const Graph empty;
    return empty;
  }

  RunContext ctx;
  bool leased = false;
};

ThreadContext& thread_context() {
  thread_local ThreadContext context;
  return context;
}

}  // namespace

RunLease::RunLease() {
  ThreadContext& tc = thread_context();
  DASM_CHECK_MSG(!tc.leased,
                 "a run started inside another run on the same thread");
  tc.leased = true;
  ctx_ = &tc.ctx;
}

RunLease::~RunLease() { thread_context().leased = false; }

}  // namespace dasm::mm
