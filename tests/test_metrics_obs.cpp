// Wall-clock metrics registry (src/obs/metrics.hpp): bucket-layout
// algebra, merge associativity, quantiles, the determinism contract
// (logical snapshots byte-identical run to run, and for the service at
// every batch-scheduler thread count), Prometheus/JSONL golden bytes, the
// forward-compat loader contract shared with the trace reader, and the
// diff gate's regression semantics.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "gen/generators.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "par/sweep.hpp"
#include "svc/service.hpp"
#include "util/check.hpp"

namespace dasm {
namespace {

using obs::HistogramLayout;
using obs::HistogramSnapshot;
using obs::MetricDelta;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;

constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

// Batch-scheduler thread counts the service determinism test sweeps;
// hardware concurrency may duplicate an earlier rung, which is harmless.
std::vector<int> thread_ladder() {
  return {1, 2, 4, par::hardware_threads()};
}

// ---- Bucket layout ------------------------------------------------------

TEST(HistogramLayout, LinearBucketsAreExact) {
  for (std::int64_t v = 0; v < HistogramLayout::kLinearBuckets; ++v) {
    const int idx = HistogramLayout::bucket_index(v);
    EXPECT_EQ(idx, static_cast<int>(v));
    EXPECT_EQ(HistogramLayout::bucket_min(idx), v);
    EXPECT_EQ(HistogramLayout::bucket_max(idx), v);
  }
}

TEST(HistogramLayout, KnownBoundaries) {
  EXPECT_EQ(HistogramLayout::bucket_index(-1), 0);
  EXPECT_EQ(HistogramLayout::bucket_index(-1000000), 0);
  // First octave bucket: values 16..17.
  EXPECT_EQ(HistogramLayout::bucket_index(16), 16);
  EXPECT_EQ(HistogramLayout::bucket_index(17), 16);
  EXPECT_EQ(HistogramLayout::bucket_index(18), 17);
  EXPECT_EQ(HistogramLayout::bucket_min(16), 16);
  EXPECT_EQ(HistogramLayout::bucket_max(16), 17);
  // 1000 lives in [960, 1023].
  const int idx1000 = HistogramLayout::bucket_index(1000);
  EXPECT_EQ(idx1000, 63);
  EXPECT_EQ(HistogramLayout::bucket_min(idx1000), 960);
  EXPECT_EQ(HistogramLayout::bucket_max(idx1000), 1023);
  // The top bucket absorbs everything up to INT64_MAX.
  EXPECT_EQ(HistogramLayout::bucket_index(kInt64Max),
            HistogramLayout::kBucketCount - 1);
  EXPECT_EQ(HistogramLayout::bucket_max(HistogramLayout::kBucketCount - 1),
            kInt64Max);
}

TEST(HistogramLayout, BucketsTileTheRange) {
  for (int idx = 0; idx < HistogramLayout::kBucketCount; ++idx) {
    const std::int64_t lo = HistogramLayout::bucket_min(idx);
    const std::int64_t hi = HistogramLayout::bucket_max(idx);
    ASSERT_LE(lo, hi);
    EXPECT_EQ(HistogramLayout::bucket_index(lo), idx);
    EXPECT_EQ(HistogramLayout::bucket_index(hi), idx);
    if (idx > 0) {
      // Adjacent buckets abut: no value falls between them.
      EXPECT_EQ(HistogramLayout::bucket_min(idx),
                HistogramLayout::bucket_max(idx - 1) + 1);
    }
    // Log-linear error bound: every octave bucket spans <= 12.5% of its
    // lower edge.
    if (idx >= HistogramLayout::kLinearBuckets &&
        idx < HistogramLayout::kBucketCount - 1) {
      EXPECT_LE(hi - lo, lo / 8);
    }
  }
}

// ---- Histogram snapshot algebra ----------------------------------------

HistogramSnapshot observe_all(const std::vector<std::int64_t>& values) {
  MetricsRegistry reg;
  const obs::HistogramHandle h = reg.histogram("h");
  for (const std::int64_t v : values) h.observe(v);
  const MetricsSnapshot snap = reg.snapshot();
  DASM_CHECK(snap.histograms.size() == 1);
  return snap.histograms[0];
}

TEST(HistogramSnapshot, MergeIsAssociativeAndMatchesDirectObservation) {
  const std::vector<std::int64_t> a = {0, 3, 3, 17, 960};
  const std::vector<std::int64_t> b = {1, 17, 100000};
  const std::vector<std::int64_t> c = {5, 5, 5, kInt64Max};

  std::vector<std::int64_t> all = a;
  all.insert(all.end(), b.begin(), b.end());
  all.insert(all.end(), c.begin(), c.end());

  const HistogramSnapshot ha = observe_all(a);
  const HistogramSnapshot hb = observe_all(b);
  const HistogramSnapshot hc = observe_all(c);

  HistogramSnapshot left = ha;
  left.merge(hb);
  left.merge(hc);

  HistogramSnapshot right_tail = hb;
  right_tail.merge(hc);
  HistogramSnapshot right = ha;
  right.merge(right_tail);

  EXPECT_EQ(left, right);
  EXPECT_EQ(left, observe_all(all));

  // Merging an empty histogram is the identity in both directions.
  HistogramSnapshot empty;
  empty.name = "h";
  HistogramSnapshot with_empty = left;
  with_empty.merge(empty);
  EXPECT_EQ(with_empty, left);
  HistogramSnapshot from_empty = empty;
  from_empty.merge(left);
  from_empty.name = left.name;
  EXPECT_EQ(from_empty, left);
}

TEST(HistogramSnapshot, QuantilesExactBelowSixteenAndClampedAbove) {
  const HistogramSnapshot h =
      observe_all({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(h.quantile(0.0), 1);
  EXPECT_EQ(h.quantile(0.5), 5);
  EXPECT_EQ(h.quantile(1.0), 10);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);

  // A single large observation: the bucket upper bound is clamped to the
  // observed max, so the quantile is exact here too.
  const HistogramSnapshot one = observe_all({1000});
  EXPECT_EQ(one.quantile(0.5), 1000);
  EXPECT_EQ(one.quantile(0.99), 1000);

  const HistogramSnapshot none;
  EXPECT_EQ(none.quantile(0.5), 0);
  EXPECT_DOUBLE_EQ(none.mean(), 0.0);
}

TEST(HistogramSnapshot, TopBucketSaturatesWithoutLosingCounts) {
  const HistogramSnapshot h = observe_all({kInt64Max, 7});
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.max, kInt64Max);
  EXPECT_EQ(h.quantile(1.0), kInt64Max);
  ASSERT_EQ(h.buckets.size(), 2u);
  EXPECT_EQ(h.buckets.back().first, HistogramLayout::kBucketCount - 1);
  EXPECT_EQ(h.buckets.back().second, 1);
}

// ---- Registry semantics -------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  const obs::CounterHandle c1 = reg.counter("x");
  const obs::CounterHandle c2 = reg.counter("x");
  c1.inc();
  c2.inc(2);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].value, 3);
  EXPECT_THROW(reg.gauge("x"), CheckError);
  EXPECT_THROW(reg.histogram("x"), CheckError);
}

TEST(MetricsRegistry, InactiveHandlesRecordNothing) {
  obs::CounterHandle c;
  obs::GaugeHandle g;
  obs::HistogramHandle h;
  EXPECT_FALSE(c.active());
  c.inc();
  g.set(7);
  h.observe(3);
  { const obs::ScopedTimer timer(h); }
  SUCCEED();
}

TEST(MetricsRegistry, WallClockMetricsSegregatedByPrefix) {
  EXPECT_TRUE(obs::is_wall_clock_metric("time.engine.outer_us"));
  EXPECT_FALSE(obs::is_wall_clock_metric("engine.runs"));
  MetricsRegistry reg;
  reg.counter("logical").inc();
  reg.histogram("time.wall").observe(5);
  const MetricsSnapshot all = reg.snapshot(true);
  EXPECT_EQ(all.counters.size(), 1u);
  EXPECT_EQ(all.histograms.size(), 1u);
  const MetricsSnapshot logical = reg.snapshot(false);
  EXPECT_EQ(logical.counters.size(), 1u);
  EXPECT_TRUE(logical.histograms.empty());
}

// ---- Determinism of the instrumented stacks ------------------------------

TEST(MetricsDeterminism, EngineLogicalSnapshotsRepeatAndExcludeWallClock) {
  const Instance inst = gen::complete_uniform(32, 5);
  std::string expected;
  for (int rep = 0; rep < 2; ++rep) {
    MetricsRegistry reg;
    core::AsmParams params;
    params.epsilon = 0.25;
    params.metrics = &reg;
    core::run_asm(inst, params);
    // Logical snapshot only: "time.*" is wall clock and excluded from the
    // determinism contract.
    const std::string bytes = obs::metrics_to_jsonl(reg.snapshot(false));
    if (expected.empty()) {
      expected = bytes;
      EXPECT_NE(bytes.find("engine.runs"), std::string::npos);
      EXPECT_NE(bytes.find("net.round_messages"), std::string::npos);
      EXPECT_EQ(bytes.find("time."), std::string::npos);
    } else {
      EXPECT_EQ(bytes, expected);
    }
    // The full snapshot does carry the wall-clock histograms.
    const std::string all = obs::metrics_to_jsonl(reg.snapshot());
    EXPECT_NE(all.find("time.engine.outer_us"), std::string::npos);
    EXPECT_NE(all.find("time.net.end_round_us"), std::string::npos);
  }
}

TEST(MetricsDeterminism, ServiceLogicalSnapshotsByteIdenticalAcrossThreads) {
  std::string expected;
  for (const int threads : thread_ladder()) {
    MetricsRegistry reg;
    svc::SvcConfig config;
    config.threads = threads;
    config.queue_capacity = 64;
    config.metrics = &reg;
    svc::MatchService service(config);
    service.instances().add("i0", gen::complete_uniform(16, 1));
    service.instances().add("i1", gen::complete_uniform(16, 2));
    for (int rep = 0; rep < 3; ++rep) {
      for (int c = 0; c < 6; ++c) {
        svc::Request r;
        r.instance = (c % 2 == 0) ? "i0" : "i1";
        r.algo = (c % 3 == 0) ? svc::Algo::kMm : svc::Algo::kAsm;
        r.epsilon = 0.25 + 0.05 * (c % 4);
        r.seed = static_cast<std::uint64_t>(c + 1);
        ASSERT_GE(service.submit(r), 0);
      }
      service.run_batch();
    }
    service.drain();
    const std::string bytes = obs::metrics_to_jsonl(reg.snapshot(false));
    if (expected.empty()) {
      expected = bytes;
      EXPECT_NE(bytes.find("svc.cache_hits"), std::string::npos);
      EXPECT_NE(bytes.find("svc.batch_requests"), std::string::npos);
      EXPECT_EQ(bytes.find("time."), std::string::npos);
    } else {
      EXPECT_EQ(bytes, expected) << "at threads=" << threads;
    }
    // Every executed cell timed itself into its slot, and run_batch()
    // observed each slot once.
    const MetricsSnapshot all = reg.snapshot();
    std::int64_t misses = -1;
    for (const auto& c : all.counters) {
      if (c.name == "svc.cache_misses") misses = c.value;
    }
    std::int64_t timed_cells = -1;
    for (const auto& h : all.histograms) {
      if (h.name == "time.svc.execute_us") timed_cells = h.count;
    }
    EXPECT_GT(misses, 0);
    EXPECT_EQ(timed_cells, misses) << "at threads=" << threads;
  }
}

// ---- Export formats -----------------------------------------------------

MetricsSnapshot golden_snapshot() {
  MetricsRegistry reg;
  reg.counter("engine.runs").inc(2);
  reg.gauge("svc.queue_depth").set(3);
  const obs::HistogramHandle h = reg.histogram("lat");
  for (const std::int64_t v : {0, 5, 17, 1000}) h.observe(v);
  return reg.snapshot();
}

TEST(MetricsExport, PrometheusGoldenBytes) {
  std::ostringstream os;
  obs::write_prometheus(os, golden_snapshot());
  EXPECT_EQ(os.str(),
            "# TYPE dasm_engine_runs counter\n"
            "dasm_engine_runs 2\n"
            "# TYPE dasm_svc_queue_depth gauge\n"
            "dasm_svc_queue_depth 3\n"
            "# TYPE dasm_lat histogram\n"
            "dasm_lat_bucket{le=\"0\"} 1\n"
            "dasm_lat_bucket{le=\"5\"} 2\n"
            "dasm_lat_bucket{le=\"17\"} 3\n"
            "dasm_lat_bucket{le=\"1023\"} 4\n"
            "dasm_lat_bucket{le=\"+Inf\"} 4\n"
            "dasm_lat_sum 1022\n"
            "dasm_lat_count 4\n");
}

TEST(MetricsExport, JsonlGoldenBytesAndRoundTrip) {
  const MetricsSnapshot snap = golden_snapshot();
  const std::string bytes = obs::metrics_to_jsonl(snap);
  EXPECT_EQ(bytes,
            "{\"t\":\"meta\",\"format\":\"dasm-metrics\",\"version\":1}\n"
            "{\"t\":\"ctr\",\"name\":\"engine.runs\",\"v\":2}\n"
            "{\"t\":\"g\",\"name\":\"svc.queue_depth\",\"v\":3}\n"
            "{\"t\":\"h\",\"name\":\"lat\",\"n\":4,\"sum\":1022,\"min\":0,"
            "\"max\":1000,\"b\":{\"0\":1,\"5\":1,\"16\":1,\"63\":1}}\n");

  MetricsSnapshot loaded;
  std::string error;
  std::istringstream in(bytes);
  ASSERT_TRUE(obs::load_metrics_jsonl(in, &loaded, &error)) << error;
  EXPECT_EQ(loaded, snap);
  // Round trip is byte-exact: load(write(x)) rewrites the same bytes.
  EXPECT_EQ(obs::metrics_to_jsonl(loaded), bytes);
}

TEST(MetricsExport, PromExtensionSelectsPrometheus) {
  const std::string path = testing::TempDir() + "/dasm_metrics_test.prom";
  obs::write_metrics_file(golden_snapshot(), path);
  std::ifstream in(path);
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_EQ(first, "# TYPE dasm_engine_runs counter");
}

// ---- Forward compatibility (satellite 1) --------------------------------

// Inserts a future-format key (nested object with floats, null, and an
// array — nothing the current readers retain) right after the opening
// brace of the first line containing `needle`.
std::string inject_future_key(std::string text, const std::string& needle) {
  const std::size_t line_start = text.find(needle);
  DASM_CHECK(line_start != std::string::npos);
  const std::size_t brace = text.rfind('{', line_start);
  DASM_CHECK(brace != std::string::npos);
  text.insert(brace + 1,
              "\"future_key\":{\"f\":1.5,\"n\":null,\"a\":[1,2.5,true]},");
  return text;
}

TEST(ForwardCompat, MetricsLoaderSkipsUnknownKeys) {
  const MetricsSnapshot snap = golden_snapshot();
  std::string bytes = obs::metrics_to_jsonl(snap);
  bytes = inject_future_key(bytes, "\"t\":\"ctr\"");
  bytes = inject_future_key(bytes, "\"t\":\"h\"");
  MetricsSnapshot loaded;
  std::string error;
  std::istringstream in(bytes);
  ASSERT_TRUE(obs::load_metrics_jsonl(in, &loaded, &error)) << error;
  EXPECT_EQ(loaded, snap);
}

TEST(ForwardCompat, TraceLoaderSkipsUnknownKeys) {
  // A real engine trace with a future key injected into every line kind.
  obs::MemorySink sink;
  core::AsmParams params;
  params.obs_sink = &sink;
  core::run_asm(gen::complete_uniform(12, 3), params);
  std::string bytes = obs::to_jsonl(sink);
  bytes = inject_future_key(bytes, "\"t\":\"meta\"");
  bytes = inject_future_key(bytes, "\"t\":\"e\"");
  bytes = inject_future_key(bytes, "\"t\":\"r\"");
  obs::MemorySink loaded;
  std::string error;
  std::istringstream in(bytes);
  ASSERT_TRUE(obs::load_jsonl(in, &loaded, &error)) << error;
  EXPECT_EQ(obs::to_jsonl(loaded), obs::to_jsonl(sink));
}

TEST(ForwardCompat, MalformedAndUnknownTagLinesStillFail) {
  const std::string base = obs::metrics_to_jsonl(golden_snapshot());
  const auto fails = [](const std::string& text) {
    MetricsSnapshot out;
    std::string error;
    std::istringstream in(text);
    const bool ok = obs::load_metrics_jsonl(in, &out, &error);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(error.empty());
  };
  // Unknown line tag: forward compat covers unknown *keys*, not records.
  fails(base + "{\"t\":\"wat\"}\n");
  // A float where a required integer belongs is a malformed line, not a
  // skippable extension.
  fails("{\"t\":\"meta\",\"format\":\"dasm-metrics\",\"version\":1}\n"
        "{\"t\":\"ctr\",\"name\":\"x\",\"v\":1.5}\n");
  // Structural damage.
  fails("{\"t\":\"meta\",\"format\":\"dasm-metrics\",\"version\":1}\n"
        "{\"t\":\"ctr\",\"name\":\"x\",\"v\":1");
  // Bucket occupancy must reconcile with the count.
  fails("{\"t\":\"meta\",\"format\":\"dasm-metrics\",\"version\":1}\n"
        "{\"t\":\"h\",\"name\":\"x\",\"n\":2,\"sum\":3,\"min\":1,\"max\":2,"
        "\"b\":{\"1\":1}}\n");
  // Missing meta line.
  fails("{\"t\":\"ctr\",\"name\":\"x\",\"v\":1}\n");
}

// ---- Diff gate ----------------------------------------------------------

MetricsSnapshot scalar_snapshot(std::int64_t runs, double hist_mean_x10) {
  MetricsRegistry reg;
  reg.counter("runs").inc(runs);
  const obs::HistogramHandle h = reg.histogram("cost");
  for (int i = 0; i < 10; ++i) {
    h.observe(static_cast<std::int64_t>(hist_mean_x10));
  }
  return reg.snapshot();
}

TEST(DiffGate, SelfCompareHasNoRegressions) {
  const MetricsSnapshot snap = scalar_snapshot(5, 100);
  for (const MetricDelta& d : obs::diff_snapshots(snap, snap, 10.0)) {
    EXPECT_FALSE(d.regression) << d.name;
    EXPECT_FALSE(d.missing_base);
    EXPECT_FALSE(d.missing_cand);
  }
}

TEST(DiffGate, ThresholdSeparatesNoiseFromRegression) {
  const MetricsSnapshot base = scalar_snapshot(100, 100);
  // +5% everywhere: inside a 10% threshold, outside a 2% threshold.
  const MetricsSnapshot cand = scalar_snapshot(105, 105);
  for (const MetricDelta& d : obs::diff_snapshots(base, cand, 10.0)) {
    EXPECT_FALSE(d.regression) << d.name;
  }
  int regressions = 0;
  for (const MetricDelta& d : obs::diff_snapshots(base, cand, 2.0)) {
    regressions += d.regression ? 1 : 0;
  }
  EXPECT_EQ(regressions, 2);  // the counter and the histogram mean
  // Improvements never regress, at any threshold.
  for (const MetricDelta& d : obs::diff_snapshots(cand, base, 0.0)) {
    EXPECT_FALSE(d.regression) << d.name;
  }
}

TEST(DiffGate, ZeroBaseRegressesOnAnyIncreaseAndMissingSidesAreReported) {
  MetricsRegistry base_reg;
  base_reg.counter("shed");  // registered, never incremented: value 0
  const MetricsSnapshot base = base_reg.snapshot();

  MetricsRegistry cand_reg;
  cand_reg.counter("shed").inc();
  cand_reg.counter("brand_new").inc(7);
  const MetricsSnapshot cand = cand_reg.snapshot();

  const std::vector<MetricDelta> deltas =
      obs::diff_snapshots(base, cand, 1000.0);
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].name, "brand_new");
  EXPECT_TRUE(deltas[0].missing_base);
  EXPECT_FALSE(deltas[0].regression);
  EXPECT_EQ(deltas[1].name, "shed");
  EXPECT_TRUE(deltas[1].regression);  // 0 -> 1 regresses at any threshold

  // The reverse direction: metrics only in base are reported, never
  // regressions.
  for (const MetricDelta& d : obs::diff_snapshots(cand, base, 0.0)) {
    if (d.name == "brand_new") {
      EXPECT_TRUE(d.missing_cand);
      EXPECT_FALSE(d.regression);
    }
  }
}

}  // namespace
}  // namespace dasm
