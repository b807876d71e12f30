#include "common.hpp"

#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "analysis/experiment_setup.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (notes.size() < 32) notes.push_back("check failed: " + what);
}

void Result::add(std::string name, double value, std::string unit) {
  check(std::isfinite(value), name + " is finite");
  metrics.push_back({std::move(name), value, std::move(unit)});
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    char value[64];
    // add() has already failed a check for a non-finite value, which is
    // not valid JSON; -1 keeps the line parseable.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : -1.0);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

Dataset make_dataset(std::uint64_t seed) {
  trace::TraceConfig config = trace::paper_config(true);
  config.seed = seed;
  const auto t0 = Clock::now();
  trace::Trace trace = trace::generate_trace(config);
  const double generate_s = seconds_between(t0, Clock::now());
  std::vector<FlowId> packets;
  packets.reserve(trace.num_packets());
  for (const auto idx : trace.arrivals()) packets.push_back(trace.id_of(idx));
  return Dataset{std::move(trace), std::move(packets),
                 analysis::tuning_for_trace(config), generate_s};
}

core::CaesarConfig caesar_config(const core::SchemeTuning& t) {
  core::CaesarConfig cfg;
  cfg.cache_entries = t.cache_entries;
  cfg.entry_capacity = t.entry_capacity;
  cfg.num_counters = t.num_counters;
  cfg.counter_bits = t.counter_bits;
  cfg.k = t.k;
  cfg.seed = t.seed;
  cfg.topk_capacity = t.topk_capacity;
  cfg.topk_rap = t.topk_rap;
  cfg.gt_sample_size = t.gt_sample_size;
  return cfg;
}

core::SchemeTuning with_sidecars(core::SchemeTuning t) {
  t.topk_capacity = 4096;
  t.topk_rap = true;
  t.gt_sample_size = 4096;
  return t;
}

namespace {

int open_event(std::uint64_t config, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = group_fd < 0 ? 1 : 0;  // the leader gates the group
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0));
}

}  // namespace

PerfCounters::PerfCounters() {
  const std::uint64_t events[3] = {PERF_COUNT_HW_INSTRUCTIONS,
                                   PERF_COUNT_HW_CPU_CYCLES,
                                   PERF_COUNT_HW_CACHE_MISSES};
  for (int i = 0; i < 3; ++i) {
    fds_[i] = open_event(events[i], i == 0 ? -1 : fds_[0]);
    if (fds_[i] < 0) {
      reason_ = "perf_event_open refused (";
      reason_ += std::strerror(errno);
      reason_ += ")";
      for (int& fd : fds_) {
        if (fd >= 0) close(fd);
        fd = -1;
      }
      return;
    }
  }
}

PerfCounters::~PerfCounters() {
  for (const int fd : fds_)
    if (fd >= 0) close(fd);
}

void PerfCounters::start() {
  if (!available()) return;
  ioctl(fds_[0], PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(fds_[0], PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

HwCounts PerfCounters::stop() {
  HwCounts counts;
  if (!available()) return counts;
  ioctl(fds_[0], PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, value[nr].
  std::uint64_t buf[3 + 3] = {};
  if (read(fds_[0], buf, sizeof buf) < static_cast<ssize_t>(sizeof buf))
    return counts;
  const double scale =
      buf[2] > 0 ? static_cast<double>(buf[1]) / static_cast<double>(buf[2])
                 : 0.0;
  counts.instructions = static_cast<double>(buf[3]) * scale;
  counts.cycles = static_cast<double>(buf[4]) * scale;
  counts.llc_misses = static_cast<double>(buf[5]) * scale;
  return counts;
}

}  // namespace perfbench
