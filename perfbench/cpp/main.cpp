// perfbench: the repo benchmark.  See README.md in this directory for every
// metric's definition, the workloads and how to run the two modes.
//
//   perfbench --workload interleaved|bursty|fleet --seed N --seconds S
//             --trace 0|1 [--scale full|smoke] [--spans-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ledger.
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the line before it holds the run descriptors.  Exit status is
// non-zero when any correctness check failed.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "flowtable/tag_probe.hpp"
#include "stages.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::Interleaved;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload interleaved|bursty|fleet --seed N"
               " --seconds S --trace 0|1 [--scale full|smoke] [--spans-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        have_workload = true;
        if (value == "interleaved") o.workload = Workload::Interleaved;
        else if (value == "bursty") o.workload = Workload::Bursty;
        else if (value == "fleet") o.workload = Workload::Fleet;
        else usage("unknown workload " + value);
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0)) usage("--seconds must be positive");
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (arg == "--scale") {
        if (value != "full" && value != "smoke") usage("--scale takes full or smoke");
        o.smoke = value == "smoke";
      } else if (arg == "--spans-dir") {
        o.spans_dir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// --- host descriptors ---------------------------------------------------------

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string text;
  std::getline(in, text);
  const auto open = text.find('['), close = text.find(']');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    return "unavailable";
  }
  return text.substr(open + 1, close - open - 1);
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string list_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + number(values[i]);
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << '"' << metrics[i].name << "\": {\"value\": " << number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << '}';
  return out.str();
}

std::string checks_json(const Checks& c) {
  std::ostringstream out;
  out << "{\"packets_seen\": {\"run\": " << c.packets_seen_run
      << ", \"failed\": " << c.packets_seen_failed << "}, \"flows_reported\": {\"run\": "
      << c.flows_run << ", \"failed\": " << c.flows_failed
      << "}, \"reports_accepted\": {\"run\": " << c.accepted_run
      << ", \"failed\": " << c.accepted_failed << "}, \"total_within_4sd\": {\"run\": "
      << c.total_run << ", \"failed\": " << c.total_failed << "}}";
  return out.str();
}

// --- end-to-end ----------------------------------------------------------------

StagePlan measured_plan(const Scale& scale, double seconds) {
  return StagePlan{seconds, scale.rounds, scale.setup_samples, scale.warmup_epochs,
                   scale.min_timed_epochs};
}

/// One round for the traced run's stages.  `max_timed` caps the epochs a
/// traced stage records, so its span file stays tens of MB on fast hosts.
StagePlan short_plan(const Scale& scale, double seconds, unsigned max_timed = 0) {
  return StagePlan{seconds, 1, 1, scale.warmup_epochs, 2, max_timed};
}

StageSamples run_system(Workload workload, const Trace& trace, const FleetTraffic& fleet,
                        const Scale& scale, const StagePlan& plan, Tracer& tracer) {
  return workload == Workload::Fleet ? run_fleet(trace, fleet, scale, plan, tracer)
                                     : run_pipeline(trace, scale, plan, tracer);
}

std::vector<Metric> end_to_end(const StageSamples& s) {
  return {
      {"ingest_mpps", median(s.ingest_mpps), "Mpps"},
      {"epoch_close_p50_ms", median(s.close_ms), "ms"},
      {"query_p50_us", median(s.query_us), "us"},
      {"volume_rel_err", mean(s.volume_err), "ratio"},
      {"size_rel_err", mean(s.size_err), "ratio"},
      {"ci_coverage", mean(s.coverage), "ratio"},
      {"monitor_bits_per_flow", s.bits_per_flow, "bits"},
      {"rss_mb", median(s.rss_mb), "MB"},
      {"setup_s", median(s.setup_s), "s"},
      {"delivery_ratio", s.checks.delivery_ratio(), "ratio"},
  };
}

// --- per-layer ledger ----------------------------------------------------------

using Totals = std::map<std::string, LayerTotals>;

double per_item(const Totals& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : it->second.ns_per_item();
}
double self_ns(const Totals& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : static_cast<double>(it->second.self_ns);
}
double median_ms(const Totals& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0.0 : median(it->second.self_samples_ns) / 1e6;
}

/// Splits the collector's ingest spans into plain merges and the ones inside
/// which a finalised epoch's subscribers fired (they have child spans).
/// merge_ns is per record over plain merges; finalize_ms is the median of a
/// firing ingest's self time minus its own records at merge_ns.
std::pair<double, double> collector_split(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    if (s.parent >= 0) has_child[static_cast<std::size_t>(s.parent)] = true;
  }
  double plain_ns = 0.0, plain_records = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "collect.ingest" || has_child[i]) continue;
    plain_ns += static_cast<double>(self[i]);
    plain_records += static_cast<double>(spans[i].items);
  }
  const double merge_ns = plain_records > 0.0 ? plain_ns / plain_records : 0.0;
  std::vector<double> finalize;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "collect.ingest" || !has_child[i]) continue;
    finalize.push_back((static_cast<double>(self[i]) -
                        merge_ns * static_cast<double>(spans[i].items)) / 1e6);
  }
  return {merge_ns, median(finalize)};
}

bool write_spans(const Options& o, const char* stage, const Tracer& tracer) {
  if (o.spans_dir.empty()) return true;
  const std::string path = o.spans_dir + "/" + workload_name(o.workload) + "-seed" +
                           std::to_string(o.seed) + "-" + stage + ".csv";
  if (!tracer.write_csv(path)) {
    std::cerr << "perfbench: cannot write spans to " << path << '\n';
    return false;
  }
  std::cerr << "perfbench: spans written to " << path << '\n';
  return true;
}

/// Ledger tolerance: the replay's layer spans must cover at least this share
/// of its wall time (README.md, "Traced run").
constexpr double kCoveredShareMin = 0.90;

/// Above this spread of the reference-kernel readings, (max - min) / min,
/// the descriptors mark the run as having straddled a change in host speed
/// (README.md, "Steadiness").
constexpr double kHostSpreadMax = 0.15;

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  const Workload workload = opt.workload;
  const bool fleet = workload == Workload::Fleet;
  const Scale scale = scale_for(workload, opt.smoke);

  // Inputs are generated once, before anything is timed, and replayed.
  const Trace trace = make_trace(scale, opt.seed);
  const FleetTraffic fleet_traffic =
      fleet ? split_fleet(trace) : FleetTraffic{};
  // The first reference reading follows input generation, which keeps the
  // CPU busy for a second or more: read at process start, it sometimes ran
  // twice as slow as every later reading.
  const double ref_ns = ref_kernel_ns();
  std::vector<double> ref_readings{ref_ns};  // then one after every round
  const auto read_host = [&ref_readings](const StageSamples& s) {
    ref_readings.insert(ref_readings.end(), s.ref_kernel_ns.begin(), s.ref_kernel_ns.end());
  };

  Checks checks;
  std::vector<Metric> metrics;
  std::ostringstream extra;  // descriptor fields specific to the mode
  const StageSamples* headline = nullptr;
  StageSamples untraced, traced, pipe;

  if (!opt.trace) {
    Tracer off(false);
    untraced = run_system(workload, trace, fleet_traffic, scale,
                          measured_plan(scale, opt.seconds), off);
    read_host(untraced);
    checks.merge(untraced.checks);
    metrics = end_to_end(untraced);
    headline = &untraced;
  } else {
    // The system untraced, then with spans and runtime telemetry on, then
    // untraced again (the two halves bracket the traced stage, so slow host
    // drift cancels out of ledger.tracing_overhead); then the single-thread
    // replay.  Fleet adds a short traced pipeline over its own trace for the
    // pipeline.* rows.
    Tracer off(false), system_tracer(true), replay_tracer(true), pipe_tracer(true);
    const double share = fleet ? 0.5 : 0.3;
    const unsigned max_traced = 10;
    untraced = run_system(workload, trace, fleet_traffic, scale,
                          short_plan(scale, opt.seconds * share / 2), off);
    read_host(untraced);
    disco::telemetry::set_enabled(true);
    traced = run_system(workload, trace, fleet_traffic, scale,
                        short_plan(scale, opt.seconds * share, max_traced), system_tracer);
    read_host(traced);
    disco::telemetry::set_enabled(false);
    const StageSamples after = run_system(workload, trace, fleet_traffic, scale,
                                          short_plan(scale, opt.seconds * share / 2), off);
    read_host(after);
    untraced.ingest_mpps.insert(untraced.ingest_mpps.end(), after.ingest_mpps.begin(),
                                after.ingest_mpps.end());
    checks.merge(after.checks);
    disco::telemetry::set_enabled(true);
    const ReplayResult replay = run_replay(trace, scale, replay_tracer);
    if (fleet) {
      pipe = run_pipeline(trace, scale, short_plan(scale, opt.seconds * 0.1, max_traced),
                          pipe_tracer);
      read_host(pipe);
    }
    disco::telemetry::set_enabled(false);
    checks.merge(untraced.checks);
    checks.merge(traced.checks);
    if (fleet) checks.merge(pipe.checks);
    // The replay's export path counts as one more checked epoch.
    checks.accepted_run += 1;
    checks.accepted_failed += replay.rejected_reports ? 1 : 0;
    checks.epochs += 1;
    checks.epochs_failed += replay.rejected_reports ? 1 : 0;

    const Tracer& pipe_spans = fleet ? pipe_tracer : system_tracer;
    const StageSamples& pipe_samples = fleet ? pipe : traced;
    const Totals sys = system_tracer.totals();
    const Totals rep = replay_tracer.totals();
    const Totals pip = pipe_spans.totals();
    // The export path (rotate, DRPT, collector, modules) is the fleet's
    // system; the pipelines export their replayed shard reports instead.
    const Totals& exp = fleet ? sys : rep;
    const Tracer& exp_tracer = fleet ? system_tracer : replay_tracer;
    const auto [merge_ns, finalize_ms] = collector_split(exp_tracer);
    const double packets = static_cast<double>(replay.packets);
    const double producer_ns = per_item(pip, "pipeline.ingest_batch");
    const double replay_producer_ns =
        per_item(rep, "flowtable.hash") + per_item(rep, "pipeline.ring_push");
    const double worker_ns = (self_ns(rep, "pipeline.ring_pop") +
                              self_ns(rep, "pipeline.coalesce") +
                              self_ns(rep, "flowtable.ingest_batch")) / packets;
    const double pipe_ns_per_pkt = 1e3 / median(pipe_samples.ingest_mpps);
    const unsigned workers = kWorkers;
    const auto& root = replay_tracer.spans()[static_cast<std::size_t>(replay.root)];
    const double root_ns = static_cast<double>(root.end_ns - root.start_ns);
    const double root_self = self_times(replay_tracer.spans())[static_cast<std::size_t>(replay.root)];
    const double covered = 1.0 - root_self / root_ns;
    const double records = static_cast<double>(fleet ? traced.records : replay.records);
    const double wire = static_cast<double>(fleet ? traced.wire_bytes : replay.wire_bytes);
    const double fused = static_cast<double>(fleet ? traced.fused : replay.fused);
    const double lookups = static_cast<double>(fleet ? traced.lookups : replay.lookups);
    const double rejected = static_cast<double>(fleet ? traced.rejected_flows : replay.rejected_flows);
    const double rejected_reports =
        static_cast<double>(fleet ? traced.rejected_reports : replay.rejected_reports);
    const double rx_bursts = static_cast<double>(
        pip.count("pipeline.ingest_batch") ? pip.at("pipeline.ingest_batch").self_samples_ns.size() : 0);

    metrics = {
        {"flowtable.hash_ns", per_item(rep, "flowtable.hash"), "ns/pkt"},
        {"flowtable.probe_ns", per_item(rep, "flowtable.probe"), "ns/lookup"},
        {"flowtable.probe_len", replay.probe_len, "buckets"},
        {"core.decide_ns", per_item(rep, "core.decide"), "ns/update"},
        {"core.update_ns", per_item(rep, "core.update"), "ns/update"},
        {"core.updates_per_pkt", static_cast<double>(replay.bursts) / packets, "ratio"},
        {"flowtable.ingest_batch_ns",
         per_item(fleet ? sys : rep, "flowtable.ingest_batch"), "ns/burst"},
        {"flowtable.rotate_ms", median_ms(fleet ? sys : rep, "flowtable.rotate"), "ms"},
        {"flowtable.reject_ratio", lookups > 0 ? rejected / lookups : 0.0, "ratio"},
        {"flowtable.drpt_encode_ns", per_item(exp, "flowtable.drpt_encode"), "ns/record"},
        {"flowtable.drpt_decode_ns", per_item(exp, "flowtable.drpt_decode"), "ns/record"},
        {"flowtable.drpt_bytes_per_record", records > 0 ? wire / records : 0.0, "bytes"},
        {"pipeline.producer_ns", producer_ns, "ns/pkt"},
        {"pipeline.producer_stall_share",
         producer_ns > 0 ? 1.0 - replay_producer_ns / producer_ns : 0.0, "ratio"},
        {"pipeline.ring_push_ns", per_item(rep, "pipeline.ring_push"), "ns/pkt"},
        {"pipeline.ring_pop_ns", per_item(rep, "pipeline.ring_pop"), "ns/pkt"},
        {"pipeline.coalesce_ns", per_item(rep, "pipeline.coalesce"), "ns/pkt"},
        {"pipeline.coalesce_ratio",
         static_cast<double>(pipe_samples.coalesced) / static_cast<double>(pipe_samples.packets),
         "ratio"},
        {"pipeline.ring_occupancy", mean(pipe_samples.occupancy), "slots"},
        {"pipeline.pop_batch_mean",
         pipe_samples.pops > 0 ? pipe_samples.popped / pipe_samples.pops : 0.0, "count"},
        {"pipeline.blocked_per_burst", rx_bursts > 0 ? pipe_samples.blocked / rx_bursts : 0.0,
         "ratio"},
        {"pipeline.drain_ms", median_ms(pip, "pipeline.drain"), "ms"},
        {"pipeline.rotate_ms",
         median_ms(pip, "pipeline.rotate") - workers * median_ms(rep, "flowtable.rotate"), "ms"},
        {"pipeline.query_p99_us", quantile(pipe_samples.query_us, 0.99), "us"},
        {"pipeline.parallel_efficiency", worker_ns / workers / pipe_ns_per_pkt, "ratio"},
        {"collect.merge_ns", merge_ns, "ns/record"},
        {"collect.fused_ratio", records > 0 ? fused / records : 0.0, "ratio"},
        {"collect.finalize_ms", finalize_ms, "ms"},
        {"collect.topk_ms", median_ms(exp, "collect.top_k"), "ms"},
        {"collect.rejected_reports", rejected_reports, "count"},
        {"modules.on_epoch_ms", median_ms(exp, "modules.on_epoch"), "ms"},
        {"ledger.covered_share", covered, "ratio"},
        {"ledger.tracing_overhead",
         median(untraced.ingest_mpps) / median(traced.ingest_mpps) - 1.0, "ratio"},
        {"host.ref_kernel_ns", ref_ns, "ns"},
    };

    // What each workload was chosen to stress, read off the ledger.
    const double core_ns = (self_ns(rep, "core.decide") + self_ns(rep, "core.update")) / packets;
    const double front_ns = (self_ns(rep, "flowtable.hash") + self_ns(rep, "pipeline.ring_push") +
                             self_ns(rep, "pipeline.ring_pop") + self_ns(rep, "pipeline.coalesce")) /
                            packets;
    // Fleet: the export path's share of the epoch close, as span self-time
    // sums over the traced stage (close = rotate + export).
    const double export_ns = self_ns(sys, "flowtable.drpt_encode") +
                             self_ns(sys, "flowtable.drpt_decode") +
                             self_ns(sys, "collect.ingest") + self_ns(sys, "modules.on_epoch");
    const double close_ns = export_ns + self_ns(sys, "flowtable.rotate");
    extra << ", \"ledger\": {\"covered_share_min\": " << number(kCoveredShareMin)
          << ", \"covered_share_ok\": " << (covered >= kCoveredShareMin ? "true" : "false")
          << ", \"worker_flowtable_core_share\": "
          << number(self_ns(rep, "flowtable.ingest_batch") / packets / worker_ns)
          << ", \"replay_front_ns_per_pkt\": " << number(front_ns)
          << ", \"replay_core_ns_per_pkt\": " << number(core_ns)
          << ", \"fleet_export_share_of_close\": "
          << number(fleet ? export_ns / close_ns : 0.0) << "}"
          << ", \"telemetry\": {\"pop_batches\": " << number(pipe_samples.pops)
          << ", \"popped\": " << number(pipe_samples.popped)
          << ", \"blocked_total\": " << number(pipe_samples.blocked) << "}";
    if (covered < kCoveredShareMin) {
      std::cerr << "perfbench: ledger covers " << covered << " of the replay, below "
                << kCoveredShareMin << '\n';
    }
    bool written = write_spans(opt, "system", system_tracer) &&
                   write_spans(opt, "replay", replay_tracer);
    if (fleet) written = written && write_spans(opt, "pipeline", pipe_tracer);
    if (!written) return 1;
    headline = &traced;
  }

  const StageSamples& pipeline_run = fleet && opt.trace ? pipe : *headline;
  const double coalesce_ratio =
      pipeline_run.packets ? static_cast<double>(pipeline_run.coalesced) /
                                 static_cast<double>(pipeline_run.packets)
                           : 0.0;
  const auto [ref_min, ref_max] = std::minmax_element(ref_readings.begin(), ref_readings.end());
  const double ref_spread = *ref_max / *ref_min - 1.0;
  const std::uint64_t failed = checks.epochs_failed;
  const std::uint64_t attempted = checks.epochs;
  std::cout << "{\"descriptors\": {\"workload\": \"" << workload_name(workload)
            << "\", \"seed\": " << opt.seed << ", \"scale\": \""
            << (opt.smoke ? "smoke" : "full") << "\", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"cpus_in_affinity_mask\": " << affinity_cpus()
            << ", \"threads_used\": " << (fleet && !opt.trace ? 1 : 1 + kWorkers)
            << ", \"pipeline.coalesce_ratio\": "
            << (fleet && !opt.trace ? "null" : number(coalesce_ratio))
            << ", \"flows_per_epoch\": " << trace.keys.size()
            << ", \"packets_per_epoch\": " << trace.packets.size()
            << ", \"records_per_epoch\": " << headline->records_per_epoch
            << ", \"rounds\": " << (opt.trace ? 1 : scale.rounds)
            << ", \"warmup_epochs_discarded_per_round\": " << scale.warmup_epochs
            << ", \"timed_epochs\": " << headline->timed_epochs
            << ", \"round_ingest_mpps\": " << list_json(headline->round_ingest_mpps)
            << ", \"tag_probe_isa\": \"" << disco::flowtable::tagprobe::isa_name()
            << "\", \"thp_mode\": \"" << thp_mode()
            << "\", \"host.ref_kernel_ns\": " << number(ref_ns)
            << ", \"host.ref_kernel_ns_readings\": " << list_json(ref_readings)
            << ", \"host.ref_kernel_spread\": " << number(ref_spread)
            << ", \"host_speed_changed\": " << (ref_spread > kHostSpreadMax ? "true" : "false")
            << ", \"checks\": " << checks_json(checks) << extra.str() << "}}\n";
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return failed == 0 ? 0 : 1;
}
