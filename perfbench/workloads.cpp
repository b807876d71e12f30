#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/evaluation.hpp"
#include "common/random.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSetupReps = 5;     ///< set-ups per run
constexpr std::size_t kIngestChunk = 65536;  ///< add_batch/feed size
constexpr std::size_t kMinPasses = 3;     ///< ingest passes per run, at least
constexpr std::size_t kCheckEpoch = 3;    ///< live epoch compared with rotate()
/// Back-to-back repeats of each short call (a scrape, a top_k, a report)
/// per pass, of which the fastest is the sample. A call of a few
/// microseconds is at the mercy of the caches the bulk work evicted and
/// of whatever else the host runs in that instant; the fastest repeat
/// measures the call, and the median over passes measures the run.
constexpr std::size_t kRepeats = 8;
/// Groups of kRepeats reports rerun on each paper_live pass's last epoch.
constexpr std::size_t kReportGroups = 8;
/// Traces, derived from the run's seed, that one paper_live run pools.
constexpr std::size_t kLiveTraces = 6;
/// Backlog guard: the late-pass median publish latency may exceed the
/// early-pass median by at most this factor.
constexpr double kBacklogGrowthLimit = 1.5;

/// Packet index at which epoch `e` of a pass begins.
std::size_t epoch_begin(std::size_t packets, std::size_t e) {
  return packets * e / kEpochsPerPass;
}

/// netmon's report on one closed epoch: top_k(kTopN), the observed
/// accuracy of the ground-truth sample, and an estimate of every top flow.
struct Report {
  double topk_ms = 0.0;
  double query_mqps = 0.0;  ///< rate of the top-flow estimates
  double total_ms = 0.0;
  bool ok = false;  ///< ordered top-k, a graded sample, finite estimates
};

Report report_on(const core::AnyEpoch& epoch) {
  Report report;
  const auto r0 = Clock::now();
  const auto top = epoch.top_k(kTopN);
  const auto r1 = Clock::now();
  const core::AccuracyStats accuracy = epoch.observed_accuracy();
  const auto r2 = Clock::now();
  bool finite = true;
  for (const auto& entry : top)
    finite &= std::isfinite(epoch.estimate(entry.flow));
  const auto r3 = Clock::now();
  report.topk_ms = ms_between(r0, r1);
  report.query_mqps =
      static_cast<double>(top.size()) / seconds_between(r2, r3) / 1e6;
  report.total_ms = ms_between(r0, r3);
  report.ok = finite && !top.empty() && top.size() <= kTopN &&
              std::is_sorted(top.begin(), top.end(), core::topk_order) &&
              accuracy.sampled_flows > 0 && std::isfinite(accuracy.are);
  return report;
}

/// The fastest of kRepeats back-to-back calls of `timed_call`, which
/// returns its own duration.
template <typename TimedCall>
double fastest_of(TimedCall&& timed_call) {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < kRepeats; ++i)
    best = std::min(best, timed_call());
  return best;
}

/// What a run measured, one vector of samples per end-to-end metric.
struct Samples {
  std::vector<double> setup_s, ingest_mpps, publish_ms, query_mqps, topk_ms,
      scrape_ms;
  double are_csm = 0.0;
};

/// Every end-to-end metric, reported the same way by each workload.
void report(Result& r, const Samples& s) {
  r.add("setup_s", median(s.setup_s), "s");
  r.add("ingest_mpps", median(s.ingest_mpps), "Mpps");
  r.add("publish_ms_p50", median(s.publish_ms), "ms");
  r.add("publish_ms_p90", quantile(s.publish_ms, 0.9), "ms");
  r.add("query_mqps", median(s.query_mqps), "Mqps");
  r.add("topk_ms_p50", median(s.topk_ms), "ms");
  r.add("scrape_ms_p50", median(s.scrape_ms), "ms");
  r.add("are_csm", s.are_csm, "ratio");
  r.add("peak_rss_mb", peak_rss_mb(), "MiB");
  r.add("success_rate",
        r.attempted == 0 ? 0.0
                         : 1.0 - static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
        "ratio");
  r.info.push_back("samples: " + std::to_string(s.setup_s.size()) +
                   " set-ups, " + std::to_string(s.ingest_mpps.size()) +
                   " ingest, " + std::to_string(s.publish_ms.size()) +
                   " publish, " + std::to_string(s.query_mqps.size()) +
                   " query, " + std::to_string(s.scrape_ms.size()) +
                   " scrape");
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Exact flow sizes of packets [lo, hi), as a trace of the flows present
/// there — the ground truth a single epoch is graded against.
trace::Trace slice_truth(const Dataset& data, std::size_t lo, std::size_t hi) {
  const auto& arrivals = data.trace.arrivals();
  std::vector<Count> sizes(data.trace.num_flows(), 0);
  for (std::size_t i = lo; i < hi; ++i) ++sizes[arrivals[i]];
  std::vector<Count> present_sizes;
  std::vector<FlowId> present_ids;
  for (std::size_t f = 0; f < sizes.size(); ++f) {
    if (sizes[f] == 0) continue;
    present_sizes.push_back(sizes[f]);
    present_ids.push_back(data.trace.flow_ids()[f]);
  }
  return trace::Trace(std::move(present_sizes), std::move(present_ids), {});
}

/// Two closed epochs hold the same measurement: packets, counter-plane
/// aggregates, top-k tables and sampled accuracy agree, and the signed
/// estimate of every trace flow is bit-equal. AnyEpoch exposes no raw
/// counters; each estimate sums its flow's k counters, and the trace's
/// Q*k = 3M draws cover each shard's L counters ~30 times over, so any
/// counter that differs changes the estimates of the flows mapped to it.
bool same_epoch(const core::AnyEpoch& a, const core::AnyEpoch& b,
                const std::vector<FlowId>& flows) {
  const auto sa = a.counter_stats();
  const auto sb = b.counter_stats();
  if (a.packets() != b.packets() || sa.counters != sb.counters ||
      sa.saturated != sb.saturated || sa.total_value != sb.total_value)
    return false;
  const auto max_n = std::numeric_limits<std::size_t>::max();
  if (a.top_k(max_n) != b.top_k(max_n)) return false;
  const auto aa = a.observed_accuracy();
  const auto ab = b.observed_accuracy();
  if (aa.sampled_flows != ab.sampled_flows || aa.are != ab.are ||
      aa.underestimates != ab.underestimates ||
      aa.overestimates != ab.overestimates)
    return false;
  for (const FlowId f : flows)
    if (a.estimate_raw(f) != b.estimate_raw(f)) return false;
  return true;
}

Result run_paper_serial(std::uint64_t seed, double seconds) {
  Result r;
  Samples s;
  std::optional<Dataset> data;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    data.reset();
    const auto t0 = Clock::now();
    data.emplace(make_dataset(seed));
    const core::CaesarSketch sketch(caesar_config(data->tuning));
    s.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const core::CaesarConfig cfg = caesar_config(data->tuning);
  const std::span<const FlowId> packets(data->packets);
  const auto n = static_cast<double>(packets.size());
  const auto& ids = data->trace.flow_ids();

  std::vector<double> scores(ids.size());
  std::vector<std::uint32_t> order(ids.size());
  std::vector<Count> first_counters;
  Scraper scraper;
  const auto deadline = deadline_after(seconds);
  for (std::size_t pass = 0; pass < kMinPasses || Clock::now() < deadline;
       ++pass) {
    core::CaesarSketch sketch(cfg);
    s.ingest_mpps.push_back(n / serial_ingest(sketch, packets) / 1e6);

    // Publishing a serial measurement: dump the cache, freeze the SRAM.
    const auto p0 = Clock::now();
    sketch.flush();
    const core::EpochSnapshot snap = sketch.finalize();
    s.publish_ms.push_back(ms_between(p0, Clock::now()));
    r.check(sketch.packets() == packets.size() &&
                sketch.sram().total() == sketch.packets(),
            "paper_serial: sram().total() == packets()");
    const auto& sram = snap.sram();
    if (pass == 0) {
      first_counters.resize(sram.size());
      for (std::size_t i = 0; i < sram.size(); ++i)
        first_counters[i] = sram.peek(i);
      s.are_csm = analysis::evaluate(data->trace, [&snap](FlowId f) {
                    return snap.estimate_csm_raw(f);
                  }).avg_relative_error;
    } else {
      bool same = true;
      for (std::size_t i = 0; i < sram.size(); ++i)
        same &= sram.peek(i) == first_counters[i];
      r.check(same, "paper_serial: counters bit-identical on every pass");
    }

    // Without the top-k sidecar, top-k is an offline scan: estimate every
    // flow, rank the heaviest kTopN.
    std::iota(order.begin(), order.end(), 0U);
    const auto q0 = Clock::now();
    for (std::size_t i = 0; i < ids.size(); ++i)
      scores[i] = snap.estimate_csm(ids[i]);
    const auto q1 = Clock::now();
    std::partial_sort(order.begin(), order.begin() + kTopN, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        if (scores[a] != scores[b])
                          return scores[a] > scores[b];
                        return ids[a] < ids[b];
                      });
    const auto q2 = Clock::now();
    s.query_mqps.push_back(static_cast<double>(ids.size()) /
                           seconds_between(q0, q1) / 1e6);
    s.topk_ms.push_back(ms_between(q0, q2));
    r.check(std::all_of(scores.begin(), scores.end(),
                        [](double v) { return std::isfinite(v); }),
            "paper_serial: every estimate is finite");
    s.scrape_ms.push_back(
        fastest_of([&] { return scraper.scrape(sketch, r); }));
  }

  report(r, s);
  return r;
}

/// One paper_live trace: set it up, run passes over it until `deadline`
/// (at least kMinPasses) and add their samples to `s`. On the run's first
/// trace (`check`), also compare one live epoch with a stop-the-world
/// rotate() and grade its accuracy.
void live_trace(std::uint64_t seed, Clock::time_point deadline, bool check,
                Scraper& scraper, Samples& s, std::vector<double>& early,
                std::vector<double>& late, Result& r) {
  const auto t0 = Clock::now();
  const Dataset data = make_dataset(seed);
  const auto pipeline =
      core::make_pipeline("caesar", with_sidecars(data.tuning), 2);
  s.setup_s.push_back(seconds_between(t0, Clock::now()));
  const std::span<const FlowId> packets(data.packets);
  const auto n = static_cast<double>(packets.size());

  std::shared_ptr<const core::AnyEpoch> kept;
  for (std::size_t pass = 0; pass < kMinPasses || Clock::now() < deadline;
       ++pass) {
    LivePass p = live_pass(*pipeline, packets,
                           check && pass == 0 ? kCheckEpoch : kEpochsPerPass);
    s.ingest_mpps.push_back(n / p.ingest_s / 1e6);
    for (std::size_t e = 0; e < p.publish_ms.size(); ++e) {
      const double ms = p.publish_ms[e];
      if (std::isnan(ms)) continue;
      s.publish_ms.push_back(ms);
      if (e < kEpochsPerPass / 4) early.push_back(ms);
      if (e >= kEpochsPerPass - kEpochsPerPass / 4) late.push_back(ms);
    }
    // Query figures come from the report on the pass's last epoch, rerun
    // once ingest has stopped: reports during ingest share four cores
    // with the ingest thread, both workers and the finalizer, so they
    // mostly measure the scheduler. A pass gives kReportGroups samples, so
    // the run's median rests on dozens of them, not on a handful of
    // instants.
    for (std::size_t g = 0; p.last && g < kReportGroups; ++g) {
      double topk_ms = std::numeric_limits<double>::infinity();
      double query_mqps = 0.0;
      for (std::size_t i = 0; i < kRepeats; ++i) {
        const Report report = report_on(*p.last);
        r.check(report.ok, "paper_live: the final report is well formed");
        topk_ms = std::min(topk_ms, report.topk_ms);
        query_mqps = std::max(query_mqps, report.query_mqps);
      }
      s.topk_ms.push_back(topk_ms);
      s.query_mqps.push_back(query_mqps);
    }
    r.check(p.epochs_seen == kEpochsPerPass && p.report_failures == 0,
            "paper_live: every epoch published and reported");
    r.check(p.packets_published == packets.size(),
            "paper_live: epochs add up to the packets fed");
    s.scrape_ms.push_back(
        fastest_of([&] { return scraper.scrape(*pipeline, r); }));
    if (pass == 0) kept = std::move(p.kept);
  }
  if (!check) return;

  // One epoch against a stop-the-world rotate() at the same boundary.
  const std::size_t lo = epoch_begin(packets.size(), kCheckEpoch);
  const std::size_t hi = epoch_begin(packets.size(), kCheckEpoch + 1);
  {
    auto reference =
        core::make_pipeline("caesar", with_sidecars(data.tuning), 2);
    reference->add_parallel(packets.subspan(lo, hi - lo), 1);
    const auto stw = reference->rotate();
    r.check(kept && stw && same_epoch(*kept, *stw, data.trace.flow_ids()),
            "paper_live: live epoch equals stop-the-world rotate() counter "
            "for counter");
  }
  if (kept) {
    const trace::Trace truth = slice_truth(data, lo, hi);
    s.are_csm = analysis::evaluate(truth, [&kept](FlowId f) {
            return kept->estimate_raw(f);
          }).avg_relative_error;
  }
}

Result run_paper_live(std::uint64_t seed, double seconds) {
  Result r;
  Samples s;
  std::vector<double> early, late;
  Scraper scraper;
  // Routing splits the Zipf-heavy flows over two shards, so how evenly
  // the workers are loaded — and with it feed rate, publish latency and
  // the top-k tables — depends on the trace. A run pools kLiveTraces
  // traces derived from its seed, each for an equal share of the time,
  // so its figures do not hang on one draw.
  const auto start = Clock::now();
  for (std::size_t t = 0; t < kLiveTraces; ++t) {
    const double share = seconds * static_cast<double>(t + 1) /
                         static_cast<double>(kLiveTraces);
    live_trace(seed ^ (t * 0x9e3779b97f4a7c15ULL),
               start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(share)),
               t == 0, scraper, s, early, late, r);
  }

  // Backlog guard: a finalizer that falls behind shows as publish latency
  // growing from the first to the last quarter of each pass.
  const double growth = median(late) / median(early);
  char line[128];
  std::snprintf(line, sizeof line,
                "paper_live: publish latency last/first quarter of the pass "
                "= %.3f (limit %.2f)",
                growth, kBacklogGrowthLimit);
  r.info.push_back(line);
  r.check(growth <= kBacklogGrowthLimit,
          "paper_live: publish latency does not grow across the pass");

  report(r, s);
  return r;
}

}  // namespace

double serial_ingest(core::CaesarSketch& sketch,
                     std::span<const FlowId> packets) {
  const auto t0 = Clock::now();
  for_chunks(packets, kIngestChunk,
             [&](std::span<const FlowId> chunk) { sketch.add_batch(chunk); });
  sketch.drain_spill();
  return seconds_between(t0, Clock::now());
}

LivePass live_pass(core::AnyPipeline& pipeline,
                   std::span<const FlowId> packets, std::size_t keep) {
  LivePass pass;
  pass.publish_ms.assign(kEpochsPerPass,
                         std::numeric_limits<double>::quiet_NaN());
  // Written by the ingest thread before each rotate_live(); read by the
  // reader once that epoch is published.
  std::array<std::atomic<Clock::rep>, kEpochsPerPass> rotated{};
  std::array<Clock::time_point, kEpochsPerPass> published{};
  const std::uint64_t base = pipeline.epochs_closed();
  pipeline.start_live(core::LiveOptions{});

  // netmon's reader: wait for each epoch, then report on it.
  std::thread reader([&] {
    for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
      const auto epoch = pipeline.wait_epoch(base + e);
      published[e] = Clock::now();
      if (!epoch) {
        ++pass.report_failures;
        continue;
      }
      ++pass.epochs_seen;
      pass.packets_published += epoch->packets();
      const Clock::time_point rotated_at{
          Clock::duration{rotated[e].load(std::memory_order_acquire)}};
      pass.publish_ms[e] = ms_between(rotated_at, published[e]);

      const Report report = report_on(*epoch);
      pass.report_ms.push_back(report.total_ms);
      pass.report_failures += !report.ok;
      if (e == keep) pass.kept = epoch;
      if (e + 1 == kEpochsPerPass) pass.last = epoch;
    }
  });

  const std::size_t n = packets.size();
  std::uint64_t seq_mismatches = 0;
  Clock::time_point t0{};
  try {
    t0 = Clock::now();
    for (std::size_t e = 0; e < kEpochsPerPass; ++e) {
      const std::size_t lo = epoch_begin(n, e);
      const std::size_t hi = epoch_begin(n, e + 1);
      const auto f0 = Clock::now();
      for_chunks(packets.subspan(lo, hi - lo), kIngestChunk,
                 [&](std::span<const FlowId> chunk) { pipeline.feed(chunk); });
      const auto f1 = Clock::now();
      pass.feed_s += seconds_between(f0, f1);
      rotated[e].store(f1.time_since_epoch().count(),
                       std::memory_order_release);
      seq_mismatches += pipeline.rotate_live() != base + e;
      pass.rotate_us.push_back(seconds_between(f1, Clock::now()) * 1e6);
    }
  } catch (...) {
    // stop_live() closes the snapshot store, which releases the reader.
    pipeline.stop_live();
    reader.join();
    throw;
  }
  reader.join();
  pipeline.stop_live();
  pass.report_failures += seq_mismatches;
  pass.ingest_s = seconds_between(t0, published[kEpochsPerPass - 1]);
  return pass;
}

QueryEpoch build_query_epoch(const Dataset& data) {
  QueryEpoch q;
  q.pipeline = std::make_unique<core::ShardedCaesar>(
      caesar_config(with_sidecars(data.tuning)), 2);
  q.pipeline->add_parallel(data.packets, 1);
  q.epoch = q.pipeline->rotate();
  return q;
}

std::vector<FlowId> query_flows(const Dataset& data, std::uint64_t seed,
                                std::size_t count) {
  Xoshiro256pp rng(seed ^ 0x71d67fffeda60000ULL);
  std::vector<FlowId> flows(count);
  for (auto& f : flows) {
    // A random 64-bit ID collides with one of ~1M trace flows with
    // probability ~2^-44, so these are absent flows.
    f = rng.below(10) == 0 ? rng()
                           : data.packets[rng.below(data.packets.size())];
  }
  return flows;
}

Scraper::Scraper()
    : server_(metrics::MetricsServer::Options{},
              [this] { return *hub_.latest(); }) {}

Result run_workload(const std::string& workload, std::uint64_t seed,
                    double seconds) {
  if (workload == "paper_serial") return run_paper_serial(seed, seconds);
  if (workload == "paper_live") return run_paper_live(seed, seconds);
  throw std::invalid_argument("unknown workload '" + workload +
                              "' (paper_serial, paper_live)");
}

}  // namespace perfbench
