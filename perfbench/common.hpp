// Shared plumbing of the paper-scale benchmark: the generated inputs,
// timing and summary statistics, the result record printed as JSON, and
// hardware counters read through perf_event_open.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/backend_registry.hpp"
#include "core/caesar_sketch.hpp"
#include "trace/synthetic.hpp"

namespace perfbench {

using namespace caesar;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

/// Median of `v` (0 when empty).
[[nodiscard]] double median(std::vector<double> v);
/// Linearly interpolated quantile q in [0, 1] of `v` (0 when empty).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// One run's outcome: every operation or output check counts as one
/// attempt; a failed one is counted and described in `notes`.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< failed checks, absent metrics
  std::vector<std::string> info;   ///< sample counts and guard readings

  void check(bool ok, const std::string& what);
  /// Record a metric; a non-finite value fails a check.
  void add(std::string name, double value, std::string unit);
  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// Everything one set-up produces: the paper-scale trace, its packets as
/// flow IDs in arrival order, and the geometry derived from its shape.
struct Dataset {
  trace::Trace trace;
  std::vector<FlowId> packets;
  core::SchemeTuning tuning;
  double generate_s = 0.0;  ///< generate_trace() alone
};

/// Generate the paper-scale trace (paper_config(true), Zipf sizes,
/// uniform shuffle) with `seed` and derive the sketch geometry from it.
[[nodiscard]] Dataset make_dataset(std::uint64_t seed);

/// The per-shard CaesarConfig make_pipeline("caesar", tuning, ...) builds.
[[nodiscard]] core::CaesarConfig caesar_config(const core::SchemeTuning& t);

/// The deployment sidecars: RAP top-k and ground-truth sampling, 4096
/// entries per shard each.
[[nodiscard]] core::SchemeTuning with_sidecars(core::SchemeTuning t);

/// Call `fn` on consecutive chunks of at most `chunk` packets.
template <typename Fn>
void for_chunks(std::span<const FlowId> packets, std::size_t chunk, Fn&& fn) {
  for (std::size_t base = 0; base < packets.size(); base += chunk)
    fn(packets.subspan(base, std::min(chunk, packets.size() - base)));
}

/// Hardware event counts over one measured region.
struct HwCounts {
  double instructions = 0.0;
  double cycles = 0.0;
  double llc_misses = 0.0;
};

/// User-space instructions, cycles and last-level-cache misses of the
/// calling thread, as one perf_event_open group. When the kernel refuses
/// (perf_event_paranoid, seccomp, no PMU), available() is false and
/// reason() says why.
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  [[nodiscard]] bool available() const noexcept { return fds_[0] >= 0; }
  [[nodiscard]] const std::string& reason() const noexcept { return reason_; }

  void start();
  /// Counts since start(), scaled up if the kernel multiplexed the group.
  [[nodiscard]] HwCounts stop();

 private:
  int fds_[3] = {-1, -1, -1};
  std::string reason_;
};

}  // namespace perfbench
