#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace sled {
namespace {

void AppendJsonKey(std::string* out, std::string_view key) {
  out->push_back('"');
  for (char c : key) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out->append(buf);
}

}  // namespace

int LatencyHistogram::BucketIndex(int64_t nanos) {
  const uint64_t v = nanos <= 0 ? 0 : static_cast<uint64_t>(nanos);
  if (v < kSubBuckets) {
    return static_cast<int>(v);  // exact buckets for 0..3 ns
  }
  const int msb = 63 - std::countl_zero(v);
  const int sub = static_cast<int>((v >> (msb - kSubBucketBits)) & (kSubBuckets - 1));
  const int index = (msb - kSubBucketBits + 1) * kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

int64_t LatencyHistogram::BucketUpperBound(int index) {
  if (index < kSubBuckets) {
    return index;
  }
  const int msb = index / kSubBuckets + kSubBucketBits - 1;
  const int sub = index % kSubBuckets;
  const int64_t base = int64_t{1} << msb;
  const int64_t step = int64_t{1} << (msb - kSubBucketBits);
  return base + step * (sub + 1) - 1;
}

void LatencyHistogram::Record(Duration d) {
  const int64_t nanos = std::max<int64_t>(0, d.nanos());
  ++buckets_[static_cast<size_t>(BucketIndex(nanos))];
  ++count_;
  sum_ += Duration(nanos);
  if (count_ == 1 || Duration(nanos) < min_) {
    min_ = Duration(nanos);
  }
  if (Duration(nanos) > max_) {
    max_ = Duration(nanos);
  }
}

void LatencyHistogram::MergeFrom(const LatencyHistogram& other) {
  if (other.count_ == 0) {
    return;
  }
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[static_cast<size_t>(i)] += other.buckets_[static_cast<size_t>(i)];
  }
  if (count_ == 0 || other.min_ < min_) {
    min_ = other.min_;
  }
  if (other.max_ > max_) {
    max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Duration LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return Duration();
  }
  const int64_t target =
      std::clamp<int64_t>(static_cast<int64_t>(q * static_cast<double>(count_) + 0.999999),
                          1, count_);
  int64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<size_t>(i)];
    if (cumulative >= target) {
      const int64_t upper = BucketUpperBound(i);
      return Duration(std::clamp(upper, min_.nanos(), max_.nanos()));
    }
  }
  return max_;
}

int64_t& MetricRegistry::CounterSlot(std::string_view counter) {
  auto it = counters_.find(counter);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(counter), 0).first;
  }
  return it->second;
}

LatencyHistogram& MetricRegistry::HistogramSlot(std::string_view histogram) {
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(histogram), LatencyHistogram{}).first;
  }
  return it->second;
}

void MetricRegistry::SetGauge(std::string_view gauge, int64_t value) {
  auto it = gauges_.find(gauge);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(gauge), value);
  } else {
    it->second = value;
  }
}

void MetricRegistry::MergeFrom(const MetricRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    Add(name, value);
  }
  // Gauges are last-value samples per shard; the merged export reports their
  // sum (e.g. total resident pages across all shard caches).
  for (const auto& [name, value] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_.emplace(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, h] : other.histograms_) {
    HistogramSlot(name).MergeFrom(h);
  }
}

int64_t MetricRegistry::counter(std::string_view name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

int64_t MetricRegistry::gauge(std::string_view name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

const LatencyHistogram* MetricRegistry::histogram(std::string_view name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += ": ";
    AppendInt(&out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  if (!gauges_.empty()) {
    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, value] : gauges_) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      AppendJsonKey(&out, name);
      out += ": ";
      AppendInt(&out, value);
    }
    out += "\n  },\n";
  }
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendJsonKey(&out, name);
    out += ": {\"count\": ";
    AppendInt(&out, h.count());
    out += ", \"sum_ns\": ";
    AppendInt(&out, h.sum().nanos());
    out += ", \"min_ns\": ";
    AppendInt(&out, h.min().nanos());
    out += ", \"max_ns\": ";
    AppendInt(&out, h.max().nanos());
    out += ", \"p50_ns\": ";
    AppendInt(&out, h.Quantile(0.50).nanos());
    out += ", \"p95_ns\": ";
    AppendInt(&out, h.Quantile(0.95).nanos());
    out += ", \"p99_ns\": ";
    AppendInt(&out, h.Quantile(0.99).nanos());
    out += "}";
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

std::string MetricRegistry::ToCsv() const {
  std::string out;
  for (const auto& [name, value] : counters_) {
    out += "counter," + name + ",";
    AppendInt(&out, value);
    out += "\n";
  }
  for (const auto& [name, value] : gauges_) {
    out += "gauge," + name + ",";
    AppendInt(&out, value);
    out += "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out += "histogram," + name + ",";
    AppendInt(&out, h.count());
    out += ",";
    AppendInt(&out, h.sum().nanos());
    out += ",";
    AppendInt(&out, h.min().nanos());
    out += ",";
    AppendInt(&out, h.max().nanos());
    out += ",";
    AppendInt(&out, h.Quantile(0.50).nanos());
    out += ",";
    AppendInt(&out, h.Quantile(0.95).nanos());
    out += ",";
    AppendInt(&out, h.Quantile(0.99).nanos());
    out += "\n";
  }
  return out;
}

}  // namespace sled
