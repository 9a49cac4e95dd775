// Wall-clock metrics registry (ISSUE 9 tentpole).
//
// The trace subsystem (obs/trace.hpp, DESIGN.md §7) deliberately measures
// only *logical* cost — network rounds and message counts, the quantities
// the paper's bounds speak to. This registry answers the complementary
// question "where does the wall-clock go?" with three metric kinds:
//
//   - counters:   monotonically accumulated int64 deltas (cache hits,
//                 iterations executed);
//   - gauges:     last-write-wins int64 samples, driver thread only
//                 (queue depth);
//   - histograms: log-linear-bucket latency/size distributions (HDR
//                 style). The bucket layout is FIXED — 16 exact linear
//                 buckets for values 0..15, then 8 sub-buckets per
//                 power-of-two octave (<= 12.5% relative error) — so any
//                 two snapshots merge bucket-wise and quantiles are
//                 computable offline.
//
// Determinism contract (DESIGN.md §11): a registry has exactly one
// writer — the thread driving the run or the service — so a *logical*
// metric, one driven by deterministic quantities like message or
// iteration counts, is byte-identical in the serialized snapshot run to
// run. Histogram observations commute (sum/count/min/max/bucket adds), so
// the service's per-cell timings, observed by the service's own thread
// after a sweep, do not depend on which worker ran which cell. Wall-clock timings are
// inherently nondeterministic; they live in the segregated "time." name
// prefix, which snapshot(/*include_wall_clock=*/false) excludes — that
// filtered snapshot is what the determinism tests byte-compare.
//
// Cost contract: an inactive (default-constructed) handle makes every
// recording call a null check and every ScopedTimer a no-op that never
// reads the clock. Recording into an active handle is a few arithmetic
// ops on preallocated storage — no allocation, no locks.
//
// Snapshots export as Prometheus text exposition (scrapable once the
// ROADMAP's TCP front end exists) or as a JSONL form that
// load_metrics_jsonl() round-trips byte-exactly; `dasm-trace metrics`
// summarizes it and `dasm-trace diff` compares two snapshots as a CI
// perf-regression gate (diff_snapshots()).
#pragma once

#include <bit>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace dasm::obs {

// ---------------------------------------------------------------------------
// Bucket layout — shared by every histogram, fixed for all time (a layout
// change is a snapshot format version bump).

struct HistogramLayout {
  static constexpr int kLinearBuckets = 16;  ///< exact buckets for 0..15
  static constexpr int kSubBuckets = 8;      ///< per octave above that
  static constexpr int kOctaves = 59;        ///< exponents 4..62 (int64)
  static constexpr int kBucketCount = kLinearBuckets + kOctaves * kSubBuckets;

  /// Bucket index of a value. Negative values clamp into bucket 0;
  /// anything up to INT64_MAX lands in (and saturates at) the last
  /// bucket, so the index is always in [0, kBucketCount).
  static int bucket_index(std::int64_t v) {
    if (v < kLinearBuckets) return v < 0 ? 0 : static_cast<int>(v);
    const int k = 63 - std::countl_zero(static_cast<std::uint64_t>(v));
    const int sub =
        static_cast<int>((static_cast<std::uint64_t>(v) >> (k - 3)) & 7u);
    return kLinearBuckets + (k - 4) * kSubBuckets + sub;
  }

  /// Smallest value mapping to `index`.
  static std::int64_t bucket_min(int index) {
    if (index < kLinearBuckets) return index;
    const int k = 4 + (index - kLinearBuckets) / kSubBuckets;
    const int sub = (index - kLinearBuckets) % kSubBuckets;
    return (std::int64_t{8} + sub) << (k - 3);
  }

  /// Largest value mapping to `index` (inclusive).
  static std::int64_t bucket_max(int index) {
    if (index < kLinearBuckets) return index;
    if (index >= kBucketCount - 1) {
      return std::numeric_limits<std::int64_t>::max();
    }
    return bucket_min(index + 1) - 1;
  }
};

// ---------------------------------------------------------------------------
// Snapshots — plain data (the exporters, the loader, and dasm-trace
// operate on them).

/// Overflow-free int64 sum: histogram sums saturate at the int64
/// extremes instead of wrapping, so a histogram fed INT64_MAX-scale
/// values keeps valid counts/min/max/buckets and pins sum (hence mean).
inline std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (b > 0 && a > kMax - b) return kMax;
  if (b < 0 && a < kMin - b) return kMin;
  return a + b;
}

/// One histogram's merged state: summary moments plus the sparse
/// (bucket index, count) occupancy, ascending by index.
struct HistogramSnapshot {
  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  ///< 0 when count == 0
  std::int64_t max = 0;
  std::vector<std::pair<int, std::int64_t>> buckets;

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }

  /// Upper bound of the bucket holding the q-quantile observation,
  /// clamped to the observed max (exact for values < 16, <= 12.5%
  /// relative error above). 0 when empty.
  std::int64_t quantile(double q) const;

  /// Bucket-wise additive merge — associative and commutative because the
  /// layout is fixed (asserted in test_metrics_obs.cpp).
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// A registry's state at one instant. Each section is sorted by name, so
/// equal logical content serializes to equal bytes.
struct MetricsSnapshot {
  struct Scalar {
    std::string name;
    std::int64_t value = 0;

    friend bool operator==(const Scalar&, const Scalar&) = default;
  };

  std::vector<Scalar> counters;
  std::vector<Scalar> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// The named counter's value; 0 when it was never registered.
  std::int64_t counter(std::string_view name) const {
    for (const Scalar& c : counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// True for metrics in the wall-clock namespace ("time." prefix), which
/// the determinism asserts exclude.
inline bool is_wall_clock_metric(std::string_view name) {
  return name.substr(0, 5) == "time.";
}

// ---------------------------------------------------------------------------
// Serialization and comparison (obs/metrics.cpp).

/// Prometheus text exposition: names are prefixed "dasm_" with '.' (and
/// any other non [a-zA-Z0-9_]) mapped to '_'; histograms emit cumulative
/// _bucket{le="..."} lines over occupied buckets plus +Inf, then _sum and
/// _count. Deterministic bytes for deterministic content.
void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot);

/// JSONL snapshot: a meta line, then one line per metric, each section in
/// name order. load_metrics_jsonl() round-trips these bytes exactly.
void write_metrics_jsonl(std::ostream& os, const MetricsSnapshot& snapshot);
std::string metrics_to_jsonl(const MetricsSnapshot& snapshot);

/// Writes to `path`: ".prom" selects Prometheus exposition, anything else
/// the JSONL form. Throws CheckError when the file cannot be opened.
void write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path);

/// Parses a JSONL snapshot back into `*out` (cleared first). Returns
/// false and fills *error (when non-null) on the first malformed line.
/// Unknown keys inside known lines are skipped (forward compat).
bool load_metrics_jsonl(std::istream& in, MetricsSnapshot* out,
                        std::string* error);

/// One metric's base-vs-candidate comparison (dasm-trace diff). The
/// scalar compared is the counter/gauge value, or the histogram mean
/// (per-observation cost, so a run with more iterations isn't penalized
/// for observing more often).
struct MetricDelta {
  enum class Kind { kCounter, kGauge, kHistogram };

  Kind kind = Kind::kCounter;
  std::string name;
  double base = 0.0;
  double cand = 0.0;
  bool missing_base = false;  ///< only in cand — reported, never a regression
  bool missing_cand = false;  ///< only in base — reported, never a regression
  bool regression = false;    ///< cand exceeds base by > threshold_pct
};

/// Compares two snapshots metric-by-metric (joined on kind + name).
/// A metric regresses when its candidate scalar exceeds the base scalar
/// by more than threshold_pct percent (a zero base regresses on any
/// nonzero candidate). Decreases and missing metrics are reported but
/// never count as regressions. Returns every compared metric, sorted by
/// (kind, name).
std::vector<MetricDelta> diff_snapshots(const MetricsSnapshot& base,
                                        const MetricsSnapshot& cand,
                                        double threshold_pct);

// ---------------------------------------------------------------------------
// The registry and its handles.

class MetricsRegistry;

/// Handles are 16-byte (registry, slot) pairs, cheap to copy and store.
/// A default-constructed handle is inactive: every recording call is a
/// single null check. Handles must not outlive their registry.
class CounterHandle {
 public:
  CounterHandle() = default;
  bool active() const { return reg_ != nullptr; }
  inline void inc(std::int64_t delta = 1) const;

 private:
  friend class MetricsRegistry;
  CounterHandle(MetricsRegistry* reg, int slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  int slot_ = -1;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  bool active() const { return reg_ != nullptr; }
  inline void set(std::int64_t value) const;

 private:
  friend class MetricsRegistry;
  GaugeHandle(MetricsRegistry* reg, int slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  int slot_ = -1;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  bool active() const { return reg_ != nullptr; }
  inline void observe(std::int64_t value) const;

 private:
  friend class MetricsRegistry;
  HistogramHandle(MetricsRegistry* reg, int slot) : reg_(reg), slot_(slot) {}
  MetricsRegistry* reg_ = nullptr;
  int slot_ = -1;
};

/// The registry. Threading model (the obs Recorder's, DESIGN.md §7): one
/// thread registers, records and snapshots; sweep cells never touch it
/// (they return what they measure through their result slots).
///
/// Registration is idempotent: the same name always returns the same
/// handle; re-registering under a different kind is a CheckError.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  CounterHandle counter(std::string_view name) {
    return CounterHandle(this, register_metric(name, Kind::kCounter));
  }
  GaugeHandle gauge(std::string_view name) {
    return GaugeHandle(this, register_metric(name, Kind::kGauge));
  }
  HistogramHandle histogram(std::string_view name) {
    return HistogramHandle(this, register_metric(name, Kind::kHistogram));
  }

  /// The registry's state, each section sorted by name. With
  /// include_wall_clock = false the "time." metrics are excluded — this is
  /// the logical snapshot the determinism tests byte-compare.
  MetricsSnapshot snapshot(bool include_wall_clock = true) const;

 private:
  friend class CounterHandle;
  friend class GaugeHandle;
  friend class HistogramHandle;

  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    std::string name;
    Kind kind;
    int slot;  ///< index into the kind's storage
  };

  struct Hist {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = std::numeric_limits<std::int64_t>::max();
    std::int64_t max = std::numeric_limits<std::int64_t>::min();
    std::vector<std::int64_t> buckets =
        std::vector<std::int64_t>(HistogramLayout::kBucketCount, 0);
  };

  int register_metric(std::string_view name, Kind kind);

  void inc_counter(int slot, std::int64_t delta) {
    counters_[static_cast<std::size_t>(slot)] += delta;
  }

  void set_gauge(int slot, std::int64_t value) {
    gauges_[static_cast<std::size_t>(slot)] = value;
  }

  void observe(int slot, std::int64_t value) {
    Hist& h = hists_[static_cast<std::size_t>(slot)];
    ++h.count;
    h.sum = saturating_add(h.sum, value);
    if (value < h.min) h.min = value;
    if (value > h.max) h.max = value;
    ++h.buckets[static_cast<std::size_t>(
        HistogramLayout::bucket_index(value))];
  }

  std::vector<Metric> metrics_;  ///< registration order; names unique
  std::vector<std::int64_t> counters_;
  std::vector<std::int64_t> gauges_;
  std::vector<Hist> hists_;
};

inline void CounterHandle::inc(std::int64_t delta) const {
  if (reg_ != nullptr) reg_->inc_counter(slot_, delta);
}
inline void GaugeHandle::set(std::int64_t value) const {
  if (reg_ != nullptr) reg_->set_gauge(slot_, value);
}
inline void HistogramHandle::observe(std::int64_t value) const {
  if (reg_ != nullptr) reg_->observe(slot_, value);
}

/// Records the elapsed microseconds of its scope into a histogram — the
/// standard way to populate a "time.*" metric. With an inactive handle
/// neither clock read happens.
class ScopedTimer {
 public:
  explicit ScopedTimer(HistogramHandle handle) : handle_(handle) {
    if (handle_.active()) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (handle_.active()) {
      handle_.observe(std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  HistogramHandle handle_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace dasm::obs
