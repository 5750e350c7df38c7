#include <algorithm>
#include <memory>
#include <string>

#include "stages.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {
namespace {

using disco::pipeline::PipelineMonitor;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Telemetry the traced run reads through the public registry (runtime
/// telemetry is on only then): ring occupancy gauges, pop-batch histograms
/// and the producer's blocked counter.
struct PipelineTelemetry {
  std::vector<disco::telemetry::Gauge*> occupancy;
  std::vector<disco::telemetry::LatencyHistogram*> pop_batch;
  disco::telemetry::Counter* blocked = nullptr;

  explicit PipelineTelemetry(const PipelineMonitor::Config& config) {
    auto& registry = disco::telemetry::Registry::global();
    for (unsigned w = 0; w < config.workers; ++w) {
      const std::string prefix = PipelineMonitor::shard_config(config, w).telemetry_prefix;
      occupancy.push_back(&registry.gauge(prefix + ".ring_occupancy"));
      pop_batch.push_back(&registry.histogram(prefix + ".pop_batch"));
    }
    blocked = &registry.counter(config.telemetry_prefix + ".blocked_total");
  }
  [[nodiscard]] double occupied() const {
    double slots = 0.0;
    for (const auto* g : occupancy) slots += static_cast<double>(g->value());
    return slots;
  }
  [[nodiscard]] double pops() const {
    double n = 0.0;
    for (const auto* h : pop_batch) n += static_cast<double>(h->count());
    return n;
  }
  [[nodiscard]] double popped() const {
    double n = 0.0;
    for (const auto* h : pop_batch) n += static_cast<double>(h->sum());
    return n;
  }
};

}  // namespace

PipelineMonitor::Config pipeline_config(const Scale& scale) {
  PipelineMonitor::Config config;
  config.base.max_flows = scale.pipeline_flows;
  config.base.counter_bits = kCounterBits;
  config.workers = kWorkers;
  config.producers = 1;
  config.backpressure = disco::pipeline::Backpressure::Block;
  return config;
}

StageSamples run_pipeline(const Trace& trace, const Scale& scale,
                          const StagePlan& plan, Tracer& tracer) {
  StageSamples out;
  const PipelineMonitor::Config config = pipeline_config(scale);
  std::size_t provisioned = 0;
  for (unsigned w = 0; w < config.workers; ++w) {
    provisioned += PipelineMonitor::shard_config(config, w).max_flows;
  }
  // Builds beyond the traffic rounds only add set-up samples.
  for (unsigned i = plan.rounds; i < plan.setup_samples; ++i) {
    (void)trimmed_rss_mb();
    const std::int64_t t0 = now_ns();
    PipelineMonitor monitor(config);
    out.setup_s.push_back(seconds_since(t0));
  }

  const PipelineTelemetry telemetry(config);
  const std::size_t n = trace.packets.size();
  const std::size_t rx = kRxBurst;
  const std::size_t bursts = (n + rx - 1) / rx;
  // A query asks for a flow offered a few thousand packets earlier, so it
  // is live in the current epoch.
  const std::size_t query_lag = std::min<std::size_t>(n - 1, 16 * rx);
  const double blocked0 = static_cast<double>(telemetry.blocked->value());
  const double pops0 = telemetry.pops(), popped0 = telemetry.popped();

  for (unsigned round = 0; round < plan.rounds; ++round) {
    PeakRss rss;
    const unsigned timed_before = out.timed_epochs;
    const std::int64_t t_setup = now_ns();
    std::unique_ptr<PipelineMonitor> monitor;
    {
      const Scope span(tracer, "pipeline.setup");
      monitor = std::make_unique<PipelineMonitor>(config);
    }
    out.setup_s.push_back(seconds_since(t_setup));
    rss.sample();
    out.bits_per_flow = static_cast<double>(monitor->memory().total()) /
                        static_cast<double>(provisioned);

    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(plan.seconds / plan.rounds * 1e9);
    std::uint64_t seen_before = 0;
    for (std::uint32_t epoch = 0;; ++epoch) {
      const bool timed = epoch >= plan.warmup_epochs;
      std::vector<double> queries;
      tracer.set_id(epoch, kEpochLevel);
      const int epoch_span = tracer.open("pipeline.epoch", n);
      const std::int64_t t_start = now_ns();
      for (std::size_t b = 0; b < bursts; ++b) {
        const std::size_t offset = b * rx;
        const std::size_t len = std::min(rx, n - offset);
        tracer.set_id(epoch, static_cast<std::uint32_t>(b));
        {
          const Scope span(tracer, "pipeline.ingest_batch", len);
          (void)monitor->ingest_batch(0, &trace.packets[offset], len);
        }
        if (tracer.enabled()) out.occupancy.push_back(telemetry.occupied());
        if ((b + 1) % scale.query_every == 0) {
          const std::size_t target = offset >= query_lag ? offset - query_lag : 0;
          const std::int64_t q0 = now_ns();
          {
            const Scope span(tracer, "pipeline.query", 1);
            (void)monitor->query(trace.packets[target].flow);
          }
          queries.push_back(static_cast<double>(now_ns() - q0) / 1e3);
        }
      }
      tracer.set_id(epoch, kEpochLevel);
      {
        const Scope span(tracer, "pipeline.drain", n);
        monitor->drain();
      }
      const std::int64_t t_applied = now_ns();
      EpochReport report;
      {
        const Scope span(tracer, "pipeline.rotate", n);
        report = monitor->rotate();
      }
      const std::int64_t t_closed = now_ns();
      tracer.close(epoch_span);
      rss.sample();

      // Correctness (untimed).
      Checks& checks = out.checks;
      const std::uint64_t seen = monitor->packets_seen();
      const std::uint64_t delta = seen - seen_before;
      seen_before = seen;
      const Accuracy acc = assess(report, trace, trace.sum_sq_bytes, true);
      const bool seen_ok = delta == n && monitor->dropped() == 0;
      ++checks.packets_seen_run;
      ++checks.flows_run;
      ++checks.total_run;
      checks.packets_seen_failed += seen_ok ? 0 : 1;
      checks.flows_failed += acc.all_flows ? 0 : 1;
      checks.total_failed += acc.total_ok ? 0 : 1;
      const bool ok = seen_ok && acc.all_flows && acc.total_ok;
      ++checks.epochs;
      checks.epochs_failed += ok ? 0 : 1;
      checks.packets_offered += static_cast<double>(n);
      checks.packets_delivered += ok ? static_cast<double>(delta) : 0.0;
      out.packets += n;

      if (timed) {
        ++out.timed_epochs;
        out.ingest_mpps.push_back(static_cast<double>(n) /
                                  (static_cast<double>(t_applied - t_start) / 1e3));
        out.close_ms.push_back(static_cast<double>(t_closed - t_applied) / 1e6);
        out.query_us.insert(out.query_us.end(), queries.begin(), queries.end());
        out.volume_err.push_back(acc.volume_rel_err);
        out.size_err.push_back(acc.size_rel_err);
        out.coverage.push_back(acc.ci_coverage);
        out.records_per_epoch = report.flows.size();
      }
      const unsigned timed_this_round = out.timed_epochs - timed_before;
      if (epoch + 1 >= plan.warmup_epochs + plan.min_timed_epochs &&
          (now_ns() >= deadline ||
           (plan.max_timed_epochs != 0 && timed_this_round >= plan.max_timed_epochs))) {
        break;
      }
    }
    out.coalesced += monitor->coalesced();
    out.rss_mb.push_back(rss.growth_mb());
    out.round_ingest_mpps.push_back(median(std::vector<double>(
        out.ingest_mpps.end() - (out.timed_epochs - timed_before), out.ingest_mpps.end())));
    monitor.reset();
    out.ref_kernel_ns.push_back(ref_kernel_ns());
  }
  out.blocked = static_cast<double>(telemetry.blocked->value()) - blocked0;
  out.pops = telemetry.pops() - pops0;
  out.popped = telemetry.popped() - popped0;
  return out;
}

}  // namespace perfbench
