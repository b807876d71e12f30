// The traced per-layer ledger. Each layer is timed from outside, by
// wrapping calls into its public functions with steady_clock and (where
// the kernel allows) a perf_event_open group; the live finalizer and
// worker busy time come from the trace spans the library already emits.
//
// On the serial path the ledger reconciles: the isolated cost of the
// cache (CacheTable::process_batch on its own, set-index hash included)
// plus the isolated cost of the eviction spill (CaesarSketch::drain_spill
// timed alone) must add up to the end-to-end add_batch + drain_spill
// cost per packet within kLedgerTolerancePct.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <string_view>

#include "common/prometheus.hpp"
#include "common/random.hpp"
#include "common/tracing.hpp"
#include "counters/counter_array.hpp"
#include "hash/batch.hpp"
#include "hash/index_selector.hpp"
#include "memsim/cost_model.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 3;                ///< repeats of each timed layer pass
constexpr std::size_t kCacheChunk = 1024;  ///< CaesarSketch's cache batch
/// Split-pass batch: ~3.5k evictions at 0.144 per packet, under the
/// 4096-eviction spill bound, so add_batch never drains on its own and
/// every drain is the explicit, separately timed drain_spill() call.
constexpr std::size_t kSplitChunk = 24576;
constexpr double kLedgerTolerancePct = 15.0;
constexpr std::size_t kQueryFlows = 1 << 20;
constexpr int kQueryCalls = 21;  ///< repeats of each query-side call

double per(double total, double count) { return count > 0 ? total / count : 0; }

cache::CacheTable::Config cache_config(const core::CaesarConfig& c) {
  cache::CacheTable::Config cc;
  cc.num_entries = c.cache_entries;
  cc.entry_capacity = c.entry_capacity;
  cc.policy = c.policy;
  cc.ways = c.cache_ways;
  cc.seed = c.seed;
  return cc;
}

void add_hw(Result& r, const PerfCounters& perf, const std::string& layer,
            const HwCounts& hw, double units, const std::string& per_unit) {
  if (!perf.available()) return;
  r.add(layer + ".instructions_per_" + per_unit, per(hw.instructions, units),
        "count");
  r.add(layer + ".cycles_per_" + per_unit, per(hw.cycles, units), "count");
  r.add(layer + ".llc_misses_per_" + per_unit, per(hw.llc_misses, units),
        "count");
}

/// Time `fn` `reps` times; median milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

void ledger_serial(const Dataset& d, PerfCounters& perf, Result& r) {
  const core::CaesarConfig cfg = caesar_config(d.tuning);
  const cache::CacheTable::Config cc = cache_config(cfg);
  const std::span<const FlowId> packets(d.packets);
  const auto n = static_cast<double>(packets.size());

  // hash: the set index of every packet, computed the way the cache's
  // batched path computes it.
  const std::uint32_t sets = cache::CacheTable(cc).num_sets();
  std::vector<std::uint32_t> buckets(kCacheChunk);
  std::vector<double> hash_ns;
  HwCounts hash_hw;
  std::uint64_t bucket_sum = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    perf.start();
    const auto t0 = Clock::now();
    for_chunks(packets, kCacheChunk, [&](std::span<const FlowId> c) {
      hash::bucket_batch(c, sets, buckets);
      bucket_sum += buckets[0];
    });
    hash_ns.push_back(seconds_between(t0, Clock::now()) / n * 1e9);
    hash_hw = perf.stop();
  }
  r.check(bucket_sum > 0, "ledger: set-index hash produced indices");

  // cache: CacheTable::process_batch alone over the trace.
  std::vector<double> cache_ns, cache_flush_ms;
  HwCounts cache_hw;
  cache::CacheStats stats;
  for (int rep = 0; rep < kReps; ++rep) {
    cache::CacheTable table(cc);
    cache::EvictionSink sink;
    perf.start();
    const auto t0 = Clock::now();
    for_chunks(packets, kCacheChunk, [&](std::span<const FlowId> c) {
      table.process_batch(c, sink);
      sink.clear();
    });
    cache_ns.push_back(seconds_between(t0, Clock::now()) / n * 1e9);
    cache_hw = perf.stop();
    stats = table.stats();
    const auto f0 = Clock::now();
    const auto dumped = table.flush();
    cache_flush_ms.push_back(ms_between(f0, Clock::now()));
    r.check(stats.packets == packets.size() && !dumped.empty(),
            "ledger: the cache saw every packet");
  }

  // core.sketch: the paper_serial pass, untraced (timed, counted) and
  // traced (for the tracing overhead), alternated.
  std::vector<double> sketch_ns, untraced_mpps, traced_mpps, construct_ms,
      flush_ms, finalize_ms;
  HwCounts sketch_hw;
  double writes = 0.0, raw_deltas = 0.0, coalesced = 0.0;
  memsim::OpCounts ops;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool traced : {false, true}) {
      const auto c0 = Clock::now();
      core::CaesarSketch sketch(cfg);
      construct_ms.push_back(ms_between(c0, Clock::now()));
      if (traced) tracing::start(1 << 16);
      if (!traced) perf.start();
      const double s = serial_ingest(sketch, packets);
      if (traced) tracing::stop();
      if (!traced) sketch_hw = perf.stop();
      (traced ? traced_mpps : untraced_mpps).push_back(n / s / 1e6);
      if (!traced) {
        sketch_ns.push_back(s / n * 1e9);
        writes = static_cast<double>(sketch.sram().writes());
        metrics::MetricsSnapshot m;
        sketch.collect_metrics(m);
        raw_deltas = static_cast<double>(m.value("spill.raw_deltas"));
        coalesced = static_cast<double>(m.value("spill.coalesced_writes"));
      }
      const auto f0 = Clock::now();
      sketch.flush();
      const auto f1 = Clock::now();
      const core::EpochSnapshot snap = sketch.finalize();
      const auto f2 = Clock::now();
      flush_ms.push_back(ms_between(f0, f1));
      finalize_ms.push_back(ms_between(f1, f2));
      ops = sketch.op_counts();
      r.check(snap.sram().total() == sketch.packets() &&
                  sketch.packets() == packets.size(),
              "ledger: sram().total() == packets()");
    }
  }

  // spill + counters in situ: add_batch and drain_spill timed apart.
  std::vector<double> spill_ns;
  for (int rep = 0; rep < kReps; ++rep) {
    core::CaesarSketch sketch(cfg);
    double drain_s = 0.0;
    std::uint64_t drains = 0;  // drain_spill() skips (and does not count)
                               // an empty spill queue
    for_chunks(packets, kSplitChunk, [&](std::span<const FlowId> c) {
      sketch.add_batch(c);
      drains += sketch.spill_size() > 0;
      const auto t0 = Clock::now();
      sketch.drain_spill();
      drain_s += seconds_between(t0, Clock::now());
    });
    spill_ns.push_back(drain_s / n * 1e9);
    metrics::MetricsSnapshot m;
    sketch.collect_metrics(m);
    if (m.value("spill.drains") != drains)
      r.notes.push_back("ledger: add_batch drained inside the split pass");
  }

  // counters: coalesced SRAM updates, built from the cache's eviction
  // stream exactly as a drain builds them, replayed through
  // CounterArray::add_batch in drain-sized batches.
  {
    cache::CacheTable table(cc);
    cache::EvictionSink evictions;
    counters::CounterArray sram(cfg.num_counters, cfg.counter_bits);
    const hash::KIndexSelector selector(cfg.k, cfg.num_counters, cfg.seed);
    Xoshiro256pp rng(cfg.seed);
    std::vector<counters::IndexedDelta> batch;
    std::array<std::uint64_t, hash::KIndexSelector::kMaxK> idx{};
    double replay_s = 0.0;
    std::uint64_t updates = 0;
    Count evicted = 0;
    HwCounts hw;
    for_chunks(packets, kSplitChunk, [&](std::span<const FlowId> c) {
      table.process_batch(c, evictions);
      batch.clear();
      for (const auto& ev : evictions) {
        selector.select(ev.flow, std::span<std::uint64_t>(idx.data(), cfg.k));
        std::array<Count, hash::KIndexSelector::kMaxK> delta{};
        for (std::size_t j = 0; j < cfg.k; ++j) delta[j] = ev.value / cfg.k;
        for (Count u = 0; u < ev.value % cfg.k; ++u) delta[rng.below(cfg.k)]++;
        for (std::size_t j = 0; j < cfg.k; ++j)
          if (delta[j] > 0) batch.push_back({idx[j], delta[j]});
        evicted += ev.value;
      }
      evictions.clear();
      std::sort(batch.begin(), batch.end(),
                [](const auto& a, const auto& b) { return a.index < b.index; });
      std::size_t out = 0;
      for (std::size_t i = 0; i < batch.size();) {
        const std::uint64_t index = batch[i].index;
        Count sum = 0;
        for (; i < batch.size() && batch[i].index == index; ++i)
          sum += batch[i].delta;
        batch[out++] = {index, sum};
      }
      perf.start();
      const auto t0 = Clock::now();
      sram.add_batch(
          std::span<const counters::IndexedDelta>(batch.data(), out));
      replay_s += seconds_between(t0, Clock::now());
      const HwCounts step = perf.stop();
      hw.instructions += step.instructions;
      hw.cycles += step.cycles;
      hw.llc_misses += step.llc_misses;
      updates += out;
    });
    r.check(sram.total() == evicted,
            "ledger: replayed updates conserve the evicted packets");
    r.add("counters.add_batch_ns_per_update",
          per(replay_s * 1e9, static_cast<double>(updates)), "ns");
    add_hw(r, perf, "counters", hw, static_cast<double>(updates), "update");
  }

  const double hash_v = median(hash_ns);
  const double cache_v = median(cache_ns);
  const double spill_v = median(spill_ns);
  const double e2e = median(sketch_ns);
  const double sum = cache_v + spill_v;  // = hash + cache probe + spill
  const double gap_pct = (sum - e2e) / e2e * 100.0;
  const auto model = memsim::virtex7_model();
  const double model_ratio =
      per(static_cast<double>(ops.cache_accesses) * model.cache_access_cycles,
          static_cast<double>(ops.sram_accesses) * model.sram_access_cycles);

  r.add("hash.set_index_ns_per_pkt", hash_v, "ns");
  add_hw(r, perf, "hash.set_index", hash_hw, n, "pkt");
  r.add("cache.process_batch_ns_per_pkt", cache_v, "ns");
  r.add("cache.hit_ratio",
        per(static_cast<double>(stats.hits),
            static_cast<double>(stats.packets)),
        "ratio");
  r.add("cache.evictions_per_pkt",
        per(static_cast<double>(stats.overflow_evictions +
                                stats.replacement_evictions),
            static_cast<double>(stats.packets)),
        "count");
  add_hw(r, perf, "cache", cache_hw, n, "pkt");
  r.add("cache.flush_ms", median(cache_flush_ms), "ms");
  r.add("counters.writes_per_pkt", writes / n, "count");
  r.add("core.sketch.spill_coalesce_ratio", per(coalesced, raw_deltas),
        "ratio");
  r.add("core.sketch.spill_ns_per_pkt", spill_v, "ns");
  r.add("core.sketch.add_batch_ns_per_pkt", e2e, "ns");
  add_hw(r, perf, "core.sketch", sketch_hw, n, "pkt");
  r.add("core.sketch.construct_ms", median(construct_ms), "ms");
  r.add("core.sketch.flush_ms", median(flush_ms), "ms");
  r.add("core.sketch.finalize_ms", median(finalize_ms), "ms");
  const double untraced = median(untraced_mpps);
  r.add("tracing.overhead_pct",
        (untraced - median(traced_mpps)) / untraced * 100.0, "%");
  r.add("ledger.e2e_ns_per_pkt", e2e, "ns");
  r.add("ledger.sum_ns_per_pkt", sum, "ns");
  r.add("ledger.gap_pct", gap_pct, "%");
  r.add("ledger.cache_sram_ratio", per(cache_v, spill_v), "ratio");
  r.add("ledger.memsim_cache_sram_ratio", model_ratio, "ratio");

  char line[256];
  std::snprintf(line, sizeof line,
                "ledger (paper_serial, ns/pkt): hash %.2f + cache probe %.2f "
                "+ spill/counters %.2f = %.2f vs end-to-end %.2f (gap "
                "%+.1f%%, tolerance %.0f%%)",
                hash_v, cache_v - hash_v, spill_v, sum, e2e, gap_pct,
                kLedgerTolerancePct);
  r.info.push_back(line);
  std::snprintf(line, sizeof line,
                "cache:SRAM cost ratio measured %.3f vs memsim Fig. 8 model "
                "%.3f (%llu cache, %llu SRAM accesses)",
                per(cache_v, spill_v), model_ratio,
                static_cast<unsigned long long>(ops.cache_accesses),
                static_cast<unsigned long long>(ops.sram_accesses));
  r.info.push_back(line);
  if (std::abs(gap_pct) > kLedgerTolerancePct)
    r.notes.push_back("ledger does not reconcile within its tolerance");
}

void ledger_live(const Dataset& d, Result& r, const std::string& trace_out) {
  const std::span<const FlowId> packets(d.packets);
  const auto n = static_cast<double>(packets.size());

  // Sidecar cost: untraced passes with top-k + ground truth on and off.
  {
    auto on = core::make_pipeline("caesar", with_sidecars(d.tuning), 2);
    auto off = core::make_pipeline("caesar", d.tuning, 2);
    std::vector<double> on_s, off_s;
    for (int rep = 0; rep < kReps; ++rep) {
      off_s.push_back(live_pass(*off, packets).ingest_s);
      on_s.push_back(live_pass(*on, packets).ingest_s);
    }
    r.add("core.sidecars.overhead_ns_per_pkt",
          (median(on_s) - median(off_s)) / n * 1e9, "ns");
  }

  auto pipeline = core::make_pipeline("caesar", with_sidecars(d.tuning), 2);
  tracing::start(1 << 17);
  std::vector<LivePass> passes;
  for (int rep = 0; rep < 2; ++rep)
    passes.push_back(live_pass(*pipeline, packets));
  tracing::stop();

  double feed_s = 0.0, ingest_s = 0.0;
  std::vector<double> rotate_us, report_ms;
  for (const auto& p : passes) {
    feed_s += p.feed_s;
    ingest_s += p.ingest_s;
    rotate_us.insert(rotate_us.end(), p.rotate_us.begin(), p.rotate_us.end());
    report_ms.insert(report_ms.end(), p.report_ms.begin(), p.report_ms.end());
    r.check(p.epochs_seen == kEpochsPerPass && p.report_failures == 0 &&
                p.packets_published == packets.size(),
            "ledger: every live epoch published and reported");
  }
  const auto fed = n * static_cast<double>(passes.size());

  std::vector<double> finalize_ms;
  double busy_ns = 0.0;
  std::set<std::uint32_t> workers;
  for (const auto& ev : tracing::collect()) {
    const std::string_view name = ev.name;
    if (name == "live.finalize_epoch") {
      finalize_ms.push_back(static_cast<double>(ev.dur_ns) / 1e6);
    } else if (name == "live.pop_batch") {
      busy_ns += static_cast<double>(ev.dur_ns);
      workers.insert(ev.tid);
    }
  }
  const auto trace_stats = tracing::stats();
  if (trace_stats.dropped > 0)
    r.notes.push_back("tracing dropped " +
                      std::to_string(trace_stats.dropped) +
                      " spans; busy share and finalize time undercount");
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    tracing::write_chrome_trace(out);
  }
  // Worker threads are per session: each pass starts its own.
  const double workers_per_pass =
      static_cast<double>(workers.size()) / static_cast<double>(passes.size());

  metrics::MetricsSnapshot m;
  pipeline->collect_metrics(m);
  const std::string label = "{backend=caesar}";
  const auto value = [&](const std::string& name) {
    return static_cast<double>(m.value(name + label));
  };
  double backlog_hwm = 0.0;
  for (const auto& g : m.gauges())
    if (g.name == "live.flush_backlog" + label)
      backlog_hwm = static_cast<double>(g.high_water);

  r.add("core.pipeline.feed_ns_per_pkt", feed_s / fed * 1e9, "ns");
  r.add("core.pipeline.ring_backpressure_per_mpkt",
        value("live.ring_backpressure") / (fed / 1e6), "1/Mpkt");
  r.add("core.pipeline.router_stalls",
        value("pipeline.router_stalls") / static_cast<double>(passes.size()),
        "count");
  r.add("core.pipeline.worker_parks_per_mpkt",
        value("pipeline.worker_parks") / (fed / 1e6), "1/Mpkt");
  r.add("core.pipeline.worker_busy_share",
        per(busy_ns / 1e9, workers_per_pass * ingest_s), "ratio");
  r.add("core.live.rotate_stall_us_p50", median(rotate_us), "us");
  r.add("core.live.rotate_stall_us_p90", quantile(rotate_us, 0.9), "us");
  r.add("core.live.finalize_ms_per_epoch", median(finalize_ms), "ms");
  r.add("core.live.standby_misses", value("live.standby_miss"), "count");
  r.add("core.live.flush_backlog_hwm", backlog_hwm, "count");
  r.add("core.query.report_ms", median(report_ms), "ms");
}

void ledger_query(const Dataset& d, std::uint64_t seed, Result& r) {
  const QueryEpoch q = build_query_epoch(d);
  const core::ShardedEpochSnapshot& epoch = *q.epoch;
  const std::span<const FlowId> packets(d.packets);
  const auto n = static_cast<double>(packets.size());

  std::vector<double> route_ns;
  std::uint64_t routed = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (const FlowId f : packets) routed += q.pipeline->shard_of(f);
    route_ns.push_back(seconds_between(t0, Clock::now()) / n * 1e9);
  }
  r.check(routed > 0 && static_cast<double>(routed) < kReps * n,
          "ledger: the route hash used both shards");
  // Packets follow Zipf flow sizes, so only the flows split evenly: the
  // heaviest few flows alone can tilt the packet share by several points.
  const auto& ids = d.trace.flow_ids();
  std::uint64_t flows_to_second = 0;
  for (const FlowId f : ids) flows_to_second += q.pipeline->shard_of(f) == 1;
  r.check(std::abs(static_cast<double>(flows_to_second) /
                       static_cast<double>(ids.size()) -
                   0.5) < 0.01,
          "ledger: the route hash splits flows evenly over 2 shards");
  r.add("hash.route_ns_per_pkt", median(route_ns), "ns");

  const auto flows = query_flows(d, seed, kQueryFlows);
  const auto per_query_ns = [&](auto&& estimate) {
    std::vector<double> ns;
    double total = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto t0 = Clock::now();
      for (const FlowId f : flows) total += estimate(f);
      ns.push_back(seconds_between(t0, Clock::now()) /
                   static_cast<double>(flows.size()) * 1e9);
    }
    r.check(std::isfinite(total), "ledger: estimates are finite");
    return median(ns);
  };
  r.add("core.query.estimate_csm_ns",
        per_query_ns([&](FlowId f) { return epoch.estimate_csm(f); }), "ns");
  r.add("core.query.estimate_mlm_ns",
        per_query_ns([&](FlowId f) { return epoch.estimate_mlm(f); }), "ns");

  std::size_t top_size = 0;
  r.add("core.query.topk_merge_ms", median_ms(kQueryCalls, [&] {
          top_size = epoch.top_k(kTopN).size();
        }),
        "ms");
  r.check(top_size == kTopN, "ledger: top_k(n) returns n flows");
  std::uint64_t graded = 0;
  r.add("core.query.observed_accuracy_ms", median_ms(kQueryCalls, [&] {
          graded = core::grade_accuracy(epoch).sampled_flows;
        }),
        "ms");
  r.check(graded > 0, "ledger: the ground-truth sample was graded");
  std::vector<double> merge_ms;
  for (int rep = 0; rep < kReps; ++rep) {
    core::ShardedEpochSnapshot merged = epoch;
    const auto t0 = Clock::now();
    merged.merge(epoch);
    merge_ms.push_back(ms_between(t0, Clock::now()));
    r.check(merged.packets() == 2 * epoch.packets(),
            "ledger: snapshot merge adds the packets");
  }
  r.add("core.query.snapshot_merge_ms", median(merge_ms), "ms");

  Scraper scraper;
  std::vector<double> collect_ms, encode_ms, handle_ms;
  for (int rep = 0; rep < kQueryCalls; ++rep) {
    const auto t0 = Clock::now();
    metrics::MetricsSnapshot snapshot;
    q.pipeline->collect_metrics(snapshot);
    const auto t1 = Clock::now();
    const std::string text = metrics::to_prometheus(snapshot);
    const auto t2 = Clock::now();
    scraper.hub().publish(std::move(snapshot));
    const auto t3 = Clock::now();
    const auto response = scraper.server().handle("/metrics");
    const auto t4 = Clock::now();
    collect_ms.push_back(ms_between(t0, t1));
    encode_ms.push_back(ms_between(t1, t2));
    handle_ms.push_back(ms_between(t3, t4));
    r.check(!text.empty() && response.status == 200 && !response.body.empty(),
            "ledger: /metrics renders");
  }
  r.add("common.collect_metrics_ms", median(collect_ms), "ms");
  r.add("common.prometheus_encode_ms", median(encode_ms), "ms");
  r.add("common.server_handle_ms", median(handle_ms), "ms");
}

}  // namespace

Result run_ledger(std::uint64_t seed, const std::string& trace_out) {
  Result r;
  PerfCounters perf;
  if (!perf.available())
    r.notes.push_back("hardware counter metrics left out: " + perf.reason());
  std::vector<double> generate_s;
  std::optional<Dataset> data;
  for (int rep = 0; rep < kReps; ++rep) {
    data.reset();
    data.emplace(make_dataset(seed));
    generate_s.push_back(data->generate_s);
  }
  r.add("trace.generate_s", median(generate_s), "s");
  ledger_serial(*data, perf, r);
  ledger_live(*data, r, trace_out);
  ledger_query(*data, seed, r);
  return r;
}

}  // namespace perfbench
