// Copyright (c) the vblock authors. Licensed under the MIT license.

#include "obs/metrics.h"

#include <algorithm>
#include <utility>

namespace vblock::obs {

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.counter) {
    entry.help = help;
    entry.type = MetricType::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return entry.counter.get();
}

FloatCounter* MetricsRegistry::GetFloatCounter(const std::string& name,
                                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.float_counter) {
    entry.help = help;
    entry.type = MetricType::kCounter;
    entry.float_counter = std::make_unique<FloatCounter>();
  }
  return entry.float_counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.gauge) {
    entry.help = help;
    entry.type = MetricType::kGauge;
    entry.gauge = std::make_unique<Gauge>();
  }
  return entry.gauge.get();
}

HistogramMetric* MetricsRegistry::GetHistogram(const std::string& name,
                                               const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  if (!entry.histogram) {
    entry.help = help;
    entry.type = MetricType::kHistogram;
    entry.histogram = std::make_unique<HistogramMetric>();
  }
  return entry.histogram.get();
}

void MetricsRegistry::RegisterCallback(const std::string& name,
                                       const std::string& help,
                                       MetricType type, CallbackFn fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[name];
  entry.help = help;
  entry.type = type;
  entry.callback = std::move(fn);
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(entries_.size());
  // entries_ is a std::map, so iteration (and thus the snapshot) is
  // already sorted by name.
  for (const auto& [name, entry] : entries_) {
    MetricSnapshot snap;
    snap.name = name;
    snap.help = entry.help;
    snap.type = entry.type;
    if (entry.histogram) {
      snap.histogram = entry.histogram->Value();
    } else if (entry.counter) {
      snap.value = static_cast<double>(entry.counter->Value());
    } else if (entry.float_counter) {
      snap.value = entry.float_counter->Value();
    } else if (entry.gauge) {
      snap.value = static_cast<double>(entry.gauge->Value());
    } else if (entry.callback) {
      snap.value = entry.callback();
    }
    out.push_back(std::move(snap));
  }
  return out;
}

const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snapshot,
                                 std::string_view name) {
  auto it = std::lower_bound(
      snapshot.begin(), snapshot.end(), name,
      [](const MetricSnapshot& m, std::string_view n) { return m.name < n; });
  return it != snapshot.end() && it->name == name ? &*it : nullptr;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace vblock::obs
