#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/jsonl.hpp"
#include "util/check.hpp"

namespace dasm::obs {

// ---------------------------------------------------------------------------
// HistogramSnapshot

std::int64_t HistogramSnapshot::quantile(double q) const {
  if (count <= 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the q-quantile observation, 1-based nearest-rank.
  const std::int64_t rank = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(q * static_cast<double>(count) + 0.5));
  std::int64_t seen = 0;
  for (const auto& [index, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      return std::min(HistogramLayout::bucket_max(index), max);
    }
  }
  return max;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count <= 0) return;
  if (count <= 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum = saturating_add(sum, other.sum);
  // Merge the two ascending sparse bucket lists.
  std::vector<std::pair<int, std::int64_t>> merged;
  merged.reserve(buckets.size() + other.buckets.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < buckets.size() || j < other.buckets.size()) {
    if (j >= other.buckets.size() ||
        (i < buckets.size() && buckets[i].first < other.buckets[j].first)) {
      merged.push_back(buckets[i++]);
    } else if (i >= buckets.size() ||
               buckets[i].first > other.buckets[j].first) {
      merged.push_back(other.buckets[j++]);
    } else {
      merged.emplace_back(buckets[i].first,
                          buckets[i].second + other.buckets[j].second);
      ++i;
      ++j;
    }
  }
  buckets = std::move(merged);
}

// ---------------------------------------------------------------------------
// Registry snapshot (recording side is header-inline).

int MetricsRegistry::register_metric(std::string_view name, Kind kind) {
  DASM_CHECK_MSG(!name.empty(), "metric name must not be empty");
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      DASM_CHECK_MSG(m.kind == kind,
                     "metric re-registered under a different kind: " + m.name);
      return m.slot;
    }
  }
  int slot = 0;
  switch (kind) {
    case Kind::kCounter:
      slot = static_cast<int>(counters_.size());
      counters_.push_back(0);
      break;
    case Kind::kGauge:
      slot = static_cast<int>(gauges_.size());
      gauges_.push_back(0);
      break;
    case Kind::kHistogram:
      slot = static_cast<int>(hists_.size());
      hists_.emplace_back();
      break;
  }
  metrics_.push_back(Metric{std::string(name), kind, slot});
  return slot;
}

MetricsSnapshot MetricsRegistry::snapshot(bool include_wall_clock) const {
  MetricsSnapshot snap;
  for (const Metric& m : metrics_) {
    if (!include_wall_clock && is_wall_clock_metric(m.name)) continue;
    switch (m.kind) {
      case Kind::kCounter:
        snap.counters.push_back(
            {m.name, counters_[static_cast<std::size_t>(m.slot)]});
        break;
      case Kind::kGauge:
        snap.gauges.push_back(
            {m.name, gauges_[static_cast<std::size_t>(m.slot)]});
        break;
      case Kind::kHistogram: {
        const Hist& src = hists_[static_cast<std::size_t>(m.slot)];
        HistogramSnapshot h;
        h.name = m.name;
        if (src.count > 0) {
          h.count = src.count;
          h.sum = src.sum;
          h.min = src.min;
          h.max = src.max;
          for (int b = 0; b < HistogramLayout::kBucketCount; ++b) {
            const std::int64_t n = src.buckets[static_cast<std::size_t>(b)];
            if (n != 0) h.buckets.emplace_back(b, n);
          }
        }
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.

namespace {

std::string prometheus_name(const std::string& name) {
  std::string out = "dasm_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void write_prometheus(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    const std::string n = prometheus_name(c.name);
    os << "# TYPE " << n << " counter\n" << n << " " << c.value << "\n";
  }
  for (const auto& g : snapshot.gauges) {
    const std::string n = prometheus_name(g.name);
    os << "# TYPE " << n << " gauge\n" << n << " " << g.value << "\n";
  }
  for (const auto& h : snapshot.histograms) {
    const std::string n = prometheus_name(h.name);
    os << "# TYPE " << n << " histogram\n";
    std::int64_t cumulative = 0;
    for (const auto& [index, count] : h.buckets) {
      cumulative += count;
      os << n << "_bucket{le=\"" << HistogramLayout::bucket_max(index)
         << "\"} " << cumulative << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    os << n << "_sum " << h.sum << "\n";
    os << n << "_count " << h.count << "\n";
  }
}

// ---------------------------------------------------------------------------
// JSONL snapshot format.
//
//   {"t":"meta","format":"dasm-metrics","version":1}
//   {"t":"ctr","name":"...","v":N}
//   {"t":"g","name":"...","v":N}
//   {"t":"h","name":"...","n":N,"sum":N,"min":N,"max":N,"b":{"IDX":N,...}}
//
// Metric names contain no characters needing JSON escapes (enforced at
// registration sites by convention; the loader rejects escapes anyway).

void write_metrics_jsonl(std::ostream& os, const MetricsSnapshot& snapshot) {
  os << "{\"t\":\"meta\",\"format\":\"dasm-metrics\",\"version\":1}\n";
  for (const auto& c : snapshot.counters) {
    os << "{\"t\":\"ctr\",\"name\":\"" << c.name << "\",\"v\":" << c.value
       << "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "{\"t\":\"g\",\"name\":\"" << g.name << "\",\"v\":" << g.value
       << "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "{\"t\":\"h\",\"name\":\"" << h.name << "\",\"n\":" << h.count
       << ",\"sum\":" << h.sum << ",\"min\":" << h.min << ",\"max\":" << h.max
       << ",\"b\":{";
    bool first = true;
    for (const auto& [index, count] : h.buckets) {
      if (!first) os << ",";
      first = false;
      os << "\"" << index << "\":" << count;
    }
    os << "}}\n";
  }
}

std::string metrics_to_jsonl(const MetricsSnapshot& snapshot) {
  std::ostringstream os;
  write_metrics_jsonl(os, snapshot);
  return os.str();
}

void write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  std::ofstream out(path);
  DASM_CHECK_MSG(out.good(), "cannot open metrics output file: " + path);
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0) {
    write_prometheus(out, snapshot);
  } else {
    write_metrics_jsonl(out, snapshot);
  }
  out.flush();
  DASM_CHECK_MSG(out.good(), "failed writing metrics output file: " + path);
}

bool load_metrics_jsonl(std::istream& in, MetricsSnapshot* out,
                        std::string* error) {
  DASM_CHECK(out != nullptr);
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();

  std::string line;
  std::int64_t line_no = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    jsonl::Object obj;
    if (!jsonl::parse_line(line, &obj)) {
      return jsonl::fail(error, line_no, "malformed JSON object");
    }
    std::string tag;
    if (!jsonl::get_string(obj, "t", &tag)) {
      return jsonl::fail(error, line_no, "missing tag \"t\"");
    }
    if (tag == "meta") {
      std::string format;
      if (!jsonl::get_string(obj, "format", &format) ||
          format != "dasm-metrics") {
        return jsonl::fail(error, line_no, "not a dasm-metrics file");
      }
      saw_meta = true;
    } else if (tag == "ctr" || tag == "g") {
      MetricsSnapshot::Scalar s;
      if (!jsonl::get_string(obj, "name", &s.name) ||
          !jsonl::get_int(obj, "v", &s.value)) {
        return jsonl::fail(error, line_no, "malformed scalar metric line");
      }
      (tag == "ctr" ? out->counters : out->gauges).push_back(std::move(s));
    } else if (tag == "h") {
      HistogramSnapshot h;
      if (!jsonl::get_string(obj, "name", &h.name) ||
          !jsonl::get_int(obj, "n", &h.count) ||
          !jsonl::get_int(obj, "sum", &h.sum) ||
          !jsonl::get_int(obj, "min", &h.min) ||
          !jsonl::get_int(obj, "max", &h.max)) {
        return jsonl::fail(error, line_no, "malformed histogram line");
      }
      const jsonl::Value* b = jsonl::find(obj, "b");
      if (b == nullptr || b->kind != jsonl::Value::Kind::kObject) {
        return jsonl::fail(error, line_no, "histogram line missing buckets");
      }
      std::int64_t occupancy = 0;
      int prev_index = -1;
      for (const auto& [key, count] : b->object) {
        std::int64_t index = 0;
        {
          jsonl::Cursor c{key.data(), key.data() + key.size()};
          if (!c.parse_int(&index) || c.p != c.end || index < 0 ||
              index >= HistogramLayout::kBucketCount) {
            return jsonl::fail(error, line_no, "bad histogram bucket index");
          }
        }
        if (index <= prev_index || count <= 0) {
          return jsonl::fail(error, line_no, "bad histogram bucket entry");
        }
        prev_index = static_cast<int>(index);
        occupancy += count;
        h.buckets.emplace_back(static_cast<int>(index), count);
      }
      if (occupancy != h.count) {
        return jsonl::fail(error, line_no,
                           "histogram bucket occupancy != count");
      }
      out->histograms.push_back(std::move(h));
    } else {
      return jsonl::fail(error, line_no, "unknown metrics line tag");
    }
  }
  if (!saw_meta) {
    return jsonl::fail(error, line_no, "missing dasm-metrics meta line");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Snapshot diff (the perf-regression gate).

namespace {

void diff_scalars(const std::vector<MetricsSnapshot::Scalar>& base,
                  const std::vector<MetricsSnapshot::Scalar>& cand,
                  MetricDelta::Kind kind, double threshold_pct,
                  std::vector<MetricDelta>* out) {
  // Both sides are name-sorted (writer invariant; re-sorted defensively by
  // the caller), so a linear merge joins them.
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < base.size() || j < cand.size()) {
    MetricDelta d;
    d.kind = kind;
    if (j >= cand.size() ||
        (i < base.size() && base[i].name < cand[j].name)) {
      d.name = base[i].name;
      d.base = static_cast<double>(base[i].value);
      d.missing_cand = true;
      ++i;
    } else if (i >= base.size() || base[i].name > cand[j].name) {
      d.name = cand[j].name;
      d.cand = static_cast<double>(cand[j].value);
      d.missing_base = true;
      ++j;
    } else {
      d.name = base[i].name;
      d.base = static_cast<double>(base[i].value);
      d.cand = static_cast<double>(cand[j].value);
      if (d.cand > d.base) {
        d.regression = d.base <= 0.0 ||
                       (d.cand - d.base) / d.base * 100.0 > threshold_pct;
      }
      ++i;
      ++j;
    }
    out->push_back(std::move(d));
  }
}

}  // namespace

std::vector<MetricDelta> diff_snapshots(const MetricsSnapshot& base,
                                        const MetricsSnapshot& cand,
                                        double threshold_pct) {
  MetricsSnapshot b = base;
  MetricsSnapshot c = cand;
  const auto by_name = [](const auto& x, const auto& y) {
    return x.name < y.name;
  };
  std::sort(b.counters.begin(), b.counters.end(), by_name);
  std::sort(b.gauges.begin(), b.gauges.end(), by_name);
  std::sort(b.histograms.begin(), b.histograms.end(), by_name);
  std::sort(c.counters.begin(), c.counters.end(), by_name);
  std::sort(c.gauges.begin(), c.gauges.end(), by_name);
  std::sort(c.histograms.begin(), c.histograms.end(), by_name);

  std::vector<MetricDelta> out;
  diff_scalars(b.counters, c.counters, MetricDelta::Kind::kCounter,
               threshold_pct, &out);
  diff_scalars(b.gauges, c.gauges, MetricDelta::Kind::kGauge, threshold_pct,
               &out);

  std::size_t i = 0;
  std::size_t j = 0;
  while (i < b.histograms.size() || j < c.histograms.size()) {
    MetricDelta d;
    d.kind = MetricDelta::Kind::kHistogram;
    if (j >= c.histograms.size() ||
        (i < b.histograms.size() &&
         b.histograms[i].name < c.histograms[j].name)) {
      d.name = b.histograms[i].name;
      d.base = b.histograms[i].mean();
      d.missing_cand = true;
      ++i;
    } else if (i >= b.histograms.size() ||
               b.histograms[i].name > c.histograms[j].name) {
      d.name = c.histograms[j].name;
      d.cand = c.histograms[j].mean();
      d.missing_base = true;
      ++j;
    } else {
      d.name = b.histograms[i].name;
      d.base = b.histograms[i].mean();
      d.cand = c.histograms[j].mean();
      if (d.cand > d.base) {
        d.regression = d.base <= 0.0 ||
                       (d.cand - d.base) / d.base * 100.0 > threshold_pct;
      }
      ++i;
      ++j;
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace dasm::obs
