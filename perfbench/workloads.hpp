// The benchmark's workloads and its traced per-layer ledger.
//
//   paper_serial  one thread: CaesarSketch::add_batch + drain_spill over
//                 the whole trace (cache + SRAM spill only; no router,
//                 ring, rotation or sidecar).
//   paper_live    netmon's deployment shape: make_pipeline("caesar", ..,
//                 2) with top-k and ground-truth sidecars, feed() in fixed
//                 chunks, rotate_live() every 1/8 of the trace, and a
//                 reader thread reporting on every published epoch. A
//                 run pools six traces derived from its seed.
//
// There is no read-only workload: a closed 2-shard epoch is built by the
// inline add_parallel path, whose rate swings by over 40% from run to run
// on a shared 4-core host, so its set-up cannot be gated. The read side
// is timed per layer in the traced ledger instead.
//
// Every workload reports every end-to-end metric, each measured on the
// workload's own data path: the stage a workload is named for carries
// the load, the others are its natural light follow-up (a serial sketch
// is published by flush + finalize and ranked by an offline scan; a
// live pass's last report is rerun once ingest stops).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/metrics_server.hpp"
#include "core/sharded_caesar.hpp"

namespace perfbench {

inline constexpr std::size_t kEpochsPerPass = 8;  ///< rotations per pass
inline constexpr std::size_t kTopN = 1000;        ///< top_k(n) of reports

/// One serial ingest of `packets` into `sketch`: add_batch in fixed
/// chunks, then drain_spill. Returns the elapsed seconds.
double serial_ingest(core::CaesarSketch& sketch,
                     std::span<const FlowId> packets);

/// One pass of the live workload over the whole trace.
struct LivePass {
  double ingest_s = 0.0;  ///< first feed() -> last epoch published
  double feed_s = 0.0;    ///< time spent inside feed()
  std::vector<double> publish_ms;  ///< rotate_live() -> wait_epoch() returns
  std::vector<double> rotate_us;   ///< rotate_live() call duration
  std::vector<double> report_ms;   ///< the reader's whole report
  Count packets_published = 0;     ///< sum over the pass's epochs
  std::uint64_t epochs_seen = 0;
  std::uint64_t report_failures = 0;
  std::shared_ptr<const core::AnyEpoch> kept;  ///< epoch `keep`, if asked
  std::shared_ptr<const core::AnyEpoch> last;  ///< the pass's last epoch
};

/// Run one live pass: start_live, feed the trace with a rotation every
/// 1/kEpochsPerPass of it while a reader thread waits on and reports
/// every epoch, then stop_live. Keeps epoch number `keep` of the pass
/// (kEpochsPerPass = none) for the stop-the-world comparison.
LivePass live_pass(core::AnyPipeline& pipeline,
                   std::span<const FlowId> packets,
                   std::size_t keep = kEpochsPerPass);

/// One closed 2-shard epoch of the whole trace (inline add_parallel,
/// then a stop-the-world rotate()), for the ledger's read-side layers.
struct QueryEpoch {
  std::unique_ptr<core::ShardedCaesar> pipeline;
  std::shared_ptr<const core::ShardedEpochSnapshot> epoch;
};
[[nodiscard]] QueryEpoch build_query_epoch(const Dataset& data);

/// Point-query flows: drawn by packet (heavy flows appear by weight),
/// plus about 10% flows absent from the trace.
[[nodiscard]] std::vector<FlowId> query_flows(const Dataset& data,
                                              std::uint64_t seed,
                                              std::size_t count);

/// The exporter path a scrape takes: collect_metrics into a hub, then
/// MetricsServer::handle("/metrics") renders it.
class Scraper {
 public:
  Scraper();
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  /// Scrape `source` once; checks the response and returns milliseconds.
  template <typename Source>
  double scrape(const Source& source, Result& result) {
    const auto t0 = Clock::now();
    metrics::MetricsSnapshot snapshot;
    source.collect_metrics(snapshot);
    hub_.publish(std::move(snapshot));
    const metrics::HttpResponse response = server_.handle("/metrics");
    const double ms = ms_between(t0, Clock::now());
    result.check(response.status == 200 && !response.body.empty(),
                 "/metrics returns 200 with a body");
    return ms;
  }
  [[nodiscard]] metrics::MetricsHub& hub() noexcept { return hub_; }
  [[nodiscard]] const metrics::MetricsServer& server() const noexcept {
    return server_;
  }

 private:
  metrics::MetricsHub hub_;
  metrics::MetricsServer server_;
};

/// Untraced run of `workload` for about `seconds`: every end-to-end
/// metric. Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Result run_workload(const std::string& workload,
                                  std::uint64_t seed, double seconds);

/// Traced run: the per-layer ledger over every layer. Writes the live
/// pass's Chrome trace to `trace_out` when it is non-empty.
[[nodiscard]] Result run_ledger(std::uint64_t seed,
                                const std::string& trace_out);

}  // namespace perfbench
