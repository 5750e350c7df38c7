// Multi-process convergence soak: N disco_monitor processes, one answer.
//
// Each run spawns N real monitor processes (the disco_monitor tool) that
// regenerate ONE deterministic Zipf trace from a shared seed and split it
// ECMP-style (arrival index mod N), measure their slices with independent
// per-site randomness, and ship DRPT v3 epoch reports over a spool file --
// one seed also exercises the live socket path.  The test then collects,
// and asserts the distributed answer converges:
//
//   * stream hygiene is perfect on a healthy fleet: N*epochs reports, no
//     duplicates, nothing late, every epoch finalised;
//   * the merged global totals and merged top-k carry Theorem-2 aggregate
//     intervals that cover EXACT ground truth (recomputed in-process from
//     the same seed) -- at 99.9% confidence, with a single-violation
//     budget across every check in the suite;
//   * the merged answer is statistically indistinguishable from a
//     single-process monitor that saw the whole trace: both estimates of
//     the same truth, their 99.9% intervals must overlap.
//
// A monitor keeps no checkpoint, so a crash costs the site its open epoch
// and every later one.  One case SIGKILLs a site mid-run and asserts the
// collector counts that loss (epoch gaps, a lagging site, a torn tail)
// instead of merging a silent undercount.
//
// Everything is seeded; failures reproduce exactly.  Runtime is bounded:
// the traces are small (hundreds of flows; 10,000 in the kill case) and the
// processes run concurrently.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collect/collector.hpp"
#include "collect/transport.hpp"
#include "flowtable/monitor.hpp"
#include "flowtable/report_io.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace disco::collect {
namespace {

constexpr int kSites = 4;
constexpr std::uint32_t kEpochs = 3;
constexpr std::uint32_t kFlows = 300;
constexpr double kAlpha = 1.1;
// One-sided slack is ~0.05% per check at this confidence; the suite's
// violation budget below tolerates a single unlucky tail event.
constexpr double kConfidence = 0.999;

int g_interval_violations = 0;

/// Same mapping as disco_monitor.
flowtable::FiveTuple tuple_for_flow(std::uint32_t flow_id) {
  constexpr std::uint16_t kPorts[] = {443, 80, 53, 22, 8080, 25, 123, 3306};
  flowtable::FiveTuple t;
  t.src_ip = 0x0a000000u | flow_id;
  t.dst_ip = 0xc0a80001u + (flow_id & 3u);
  t.src_port = static_cast<std::uint16_t>(1024 + (flow_id & 0x7fff));
  t.dst_port = kPorts[(flow_id >> 2) & 7u];
  t.protocol = 6;
  return t;
}

struct GroundTruth {
  std::unordered_map<std::uint32_t, double> flow_bytes;
  double total_bytes = 0.0;
  double total_packets = 0.0;
};

/// Exact per-flow truth, regenerated from the same seed and scenario the
/// monitor processes use (trace::zipf_scenario is the shared definition).
GroundTruth exact_truth(std::uint64_t seed) {
  util::Rng rng(seed);
  auto flows = trace::zipf_scenario(kAlpha).make_flows(kFlows, rng);
  trace::PacketStream stream(std::move(flows), 1, 4, seed + 1);
  GroundTruth truth;
  while (auto packet = stream.next()) {
    truth.flow_bytes[packet->flow_id] += packet->length;
    truth.total_bytes += packet->length;
    truth.total_packets += 1.0;
  }
  return truth;
}

/// The single-process reference: ONE monitor sees the whole trace, rotating
/// at the same epoch boundaries as the fleet, its reports merged through a
/// second Collector so both answers carry comparable intervals.
std::unique_ptr<Collector> single_process_reference(std::uint64_t seed) {
  util::Rng rng(seed);
  auto flows = trace::zipf_scenario(kAlpha).make_flows(kFlows, rng);
  trace::PacketStream stream(std::move(flows), 1, 4, seed + 1);
  const std::uint64_t total_packets = stream.total_packets();

  flowtable::FlowMonitor::Config config;
  config.max_flows = 4096;
  config.counter_bits = 12;
  config.seed = seed * 104729 + 17;  // independent of every site's stream
  flowtable::FlowMonitor monitor(config);

  CollectorConfig collect_config;
  collect_config.confidence = kConfidence;
  auto reference = std::make_unique<Collector>(collect_config);
  const std::uint64_t per_epoch =
      total_packets / kEpochs > 0 ? total_packets / kEpochs : 1;
  std::uint64_t index = 0;
  std::uint32_t rotated = 0;
  while (auto packet = stream.next()) {
    (void)monitor.ingest(tuple_for_flow(packet->flow_id), packet->length);
    ++index;
    if (rotated + 1 < kEpochs && index == per_epoch * (rotated + 1)) {
      (void)reference->ingest(0, flowtable::kReportVersion, monitor.rotate());
      ++rotated;
    }
  }
  (void)reference->ingest(0, flowtable::kReportVersion, monitor.rotate());
  reference->finalize_all();
  return reference;
}

std::vector<std::string> monitor_args(std::uint64_t seed, int site,
                                      std::uint32_t flows, std::uint32_t epochs,
                                      const std::string& transport_flag,
                                      const std::string& transport_value) {
  return {std::string(DISCO_TOOLS_DIR) + "/disco_monitor",
          "--site", std::to_string(site),
          "--sites", std::to_string(kSites),
          "--flows", std::to_string(flows),
          "--epochs", std::to_string(epochs),
          "--seed", std::to_string(seed),
          transport_flag, transport_value};
}

std::string monitor_command(std::uint64_t seed, int site,
                            const std::string& transport_flag,
                            const std::string& transport_value) {
  std::string cmd;
  for (const std::string& arg : monitor_args(seed, site, kFlows, kEpochs,
                                             transport_flag, transport_value)) {
    cmd += arg + " ";
  }
  return cmd + "> /dev/null 2>&1";
}

/// Runs the N monitor processes concurrently; returns every exit status.
std::vector<int> spawn_fleet(const std::vector<std::string>& commands) {
  std::vector<int> status(commands.size(), -1);
  std::vector<std::thread> processes;
  processes.reserve(commands.size());
  for (std::size_t i = 0; i < commands.size(); ++i) {
    processes.emplace_back([&commands, &status, i] {
      status[i] = std::system(commands[i].c_str());
    });
  }
  for (auto& p : processes) p.join();
  return status;
}

/// Monitor processes started with posix_spawn, so the test holds their
/// pids.  The destructor SIGKILLs and reaps every child not yet reaped: a
/// failed assertion leaves no monitor running.
class ChildProcesses {
 public:
  ChildProcesses() = default;
  ChildProcesses(const ChildProcesses&) = delete;
  ChildProcesses& operator=(const ChildProcesses&) = delete;
  ~ChildProcesses() {
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] > 0) {
        send_sigkill(i);
        (void)reap(i);
      }
    }
  }

  /// Starts `args` (args[0] is the binary's path) with stdout and stderr on
  /// /dev/null.  Children are indexed in spawn order.
  void spawn(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    const int rc =
        posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("posix_spawn failed: " + args[0]);
    pids_.push_back(pid);
  }

  void send_sigkill(std::size_t i) { (void)::kill(pids_[i], SIGKILL); }

  /// Waits for child `i` to end and returns its wait status.
  int reap(std::size_t i) {
    int status = 0;
    while (::waitpid(pids_[i], &status, 0) < 0 && errno == EINTR) {
    }
    pids_[i] = -1;
    return status;
  }

 private:
  std::vector<pid_t> pids_;
};

/// What a spool file holds: its complete reports, the sums of their
/// totals, and whether bytes of a torn report follow them.
struct SpoolContents {
  std::uint64_t reports = 0;
  double bytes = 0.0;
  double packets = 0.0;
  bool torn = false;
};

SpoolContents read_spool(const std::string& path) {
  SpoolContents contents;
  std::ifstream in(path, std::ios::binary);
  if (!in) return contents;
  flowtable::ReportReader reader(in);
  try {
    while (const auto item = reader.next()) {
      ++contents.reports;
      contents.bytes += item->report.totals.bytes;
      contents.packets += item->report.totals.packets;
    }
  } catch (const std::runtime_error&) {
    contents.torn = true;
  }
  return contents;
}

void check_interval(double low, double high, double truth,
                    const std::string& what) {
  EXPECT_LT(low, high) << what;
  if (truth < low || truth > high) {
    ++g_interval_violations;
    ADD_FAILURE() << what << ": truth " << truth << " outside interval ["
                  << low << ", " << high << "] (budgeted violation)";
  }
}

/// Shared assertions once a collector holds the whole fleet's reports.
void check_convergence(Collector& collector, std::uint64_t seed) {
  collector.finalize_all();

  // Healthy fleet: perfect stream hygiene.
  EXPECT_EQ(collector.reports_ingested(),
            static_cast<std::uint64_t>(kSites) * kEpochs);
  EXPECT_EQ(collector.epochs_finalized(), kEpochs);
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), static_cast<std::size_t>(kSites));
  for (const auto& site : sites) {
    EXPECT_EQ(site.reports, kEpochs) << site.site_id;
    EXPECT_EQ(site.duplicates, 0u) << site.site_id;
    EXPECT_EQ(site.late, 0u) << site.site_id;
    EXPECT_EQ(site.epoch_gaps, 0u) << site.site_id;
    EXPECT_EQ(site.legacy, 0u) << site.site_id;
  }

  const GroundTruth truth = exact_truth(seed);

  // Theorem-2 aggregate interval covers exact truth, globally...
  const auto totals = collector.totals();
  ASSERT_TRUE(totals.interval_valid);
  check_interval(totals.bytes_low, totals.bytes_high, truth.total_bytes,
                 "seed " + std::to_string(seed) + " global bytes");
  EXPECT_NEAR(totals.packets, truth.total_packets,
              0.05 * truth.total_packets);

  // ...and per merged top-k flow.  On a mod-N split every site sees a
  // slice of each heavy hitter.
  const auto top = collector.top_k(10);
  ASSERT_EQ(top.size(), 10u);
  for (const auto& flow : top) {
    ASSERT_TRUE(flow.interval_valid);
    EXPECT_EQ(flow.sites, static_cast<std::uint32_t>(kSites));
    const std::uint32_t id = flow.flow.src_ip & 0x00ffffffu;
    const auto it = truth.flow_bytes.find(id);
    ASSERT_NE(it, truth.flow_bytes.end());
    check_interval(flow.bytes_low, flow.bytes_high, it->second,
                   "seed " + std::to_string(seed) + " flow " +
                       std::to_string(id));
  }

  // Distributed vs single-process: two estimates of the same truth, both
  // with honest 99.9% intervals -- they must overlap.
  const auto reference = single_process_reference(seed);
  const auto single = reference->totals();
  ASSERT_TRUE(single.interval_valid);
  EXPECT_TRUE(totals.bytes_low <= single.bytes_high &&
              single.bytes_low <= totals.bytes_high)
      << "merged [" << totals.bytes_low << ", " << totals.bytes_high
      << "] vs single-process [" << single.bytes_low << ", "
      << single.bytes_high << "]";
}

class CollectorSoak : public ::testing::Test {
 protected:
  static void TearDownTestSuite() {
    // The per-check failures above are real coverage misses; at 99.9%
    // confidence the suite's documented budget is at most one across all
    // seeds (docs/collector.md "Convergence guarantees").
    EXPECT_LE(g_interval_violations, 1)
        << "Theorem-2 coverage violated more than the budget allows";
  }
};

TEST_F(CollectorSoak, SpooledFleetConvergesAcrossSeeds) {
  for (const std::uint64_t seed : {11ull, 29ull}) {
    std::vector<std::string> spools;
    std::vector<std::string> commands;
    for (int site = 0; site < kSites; ++site) {
      spools.push_back(std::string(::testing::TempDir()) + "soak_seed" +
                       std::to_string(seed) + "_s" + std::to_string(site) +
                       ".drpt");
      std::remove(spools.back().c_str());
      commands.push_back(
          monitor_command(seed, site, "--spool", spools.back()));
    }
    const auto status = spawn_fleet(commands);
    for (std::size_t i = 0; i < status.size(); ++i) {
      ASSERT_EQ(status[i], 0) << commands[i];
    }

    CollectorConfig config;
    config.confidence = kConfidence;
    Collector collector(config);
    for (int site = 0; site < kSites; ++site) {
      collector.expect_site(static_cast<std::uint32_t>(site));
    }
    SpoolSource source(spools);
    const auto stats = source.poll(collector);
    EXPECT_EQ(stats.truncated_tails, 0u);
    EXPECT_EQ(stats.unreadable, 0u);
    check_convergence(collector, seed);
    for (const auto& spool : spools) std::remove(spool.c_str());
  }
}

TEST_F(CollectorSoak, LiveSocketFleetConverges) {
  const std::uint64_t seed = 47;
  CollectorConfig config;
  config.confidence = kConfidence;
  // Connections drain at the scheduler's whim; the known fleet is
  // pre-registered and the window out-sized so finalisation waits for
  // every site instead of declaring stragglers late.
  config.liveness_window = 1000;
  Collector collector(config);
  for (int site = 0; site < kSites; ++site) {
    collector.expect_site(static_cast<std::uint32_t>(site));
  }
  std::unique_ptr<ReportServer> server;
  try {
    server = std::make_unique<ReportServer>(collector);
  } catch (const std::runtime_error& e) {
    GTEST_SKIP() << "cannot bind loopback socket: " << e.what();
  }

  std::vector<std::string> commands;
  for (int site = 0; site < kSites; ++site) {
    commands.push_back(monitor_command(
        seed, site, "--connect",
        "127.0.0.1:" + std::to_string(server->port())));
  }
  const auto status = spawn_fleet(commands);
  for (std::size_t i = 0; i < status.size(); ++i) {
    ASSERT_EQ(status[i], 0) << commands[i];
  }

  // The processes exited 0, so every report was written to a connected
  // socket; wait (bounded) for the handler threads to drain them.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    {
      util::MutexLock lock(server->ingest_mutex());
      if (collector.reports_ingested() >=
          static_cast<std::uint64_t>(kSites) * kEpochs) {
        break;
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "fleet reports did not drain in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server->stop();
  EXPECT_EQ(server->connections_accepted(),
            static_cast<std::uint64_t>(kSites));
  EXPECT_EQ(server->truncated_streams(), 0u);
  check_convergence(collector, seed);
}

// What a crash costs.  A monitor keeps no checkpoint, so a site killed
// mid-run loses its open epoch and every later one.  The collector must
// count that loss, not merge a silent undercount: with R complete reports
// out of E epochs, the site reads R reports and E - R epoch gaps, lags once
// E - R exceeds the liveness window, and a torn last report shows up only
// as a truncated tail -- none of its records merge.
TEST_F(CollectorSoak, KilledSiteLossIsCountedNotMerged) {
  constexpr std::uint64_t kSeed = 61;
  constexpr std::size_t kVictim = 2;
  // Sized so the kill lands long before the last epoch: on a 4-CPU host a
  // Release site writes its first report about 60 ms in and its last about
  // 290 ms later.
  constexpr std::uint32_t kKillFlows = 10000;
  constexpr std::uint64_t kKillEpochs = 40;

  std::vector<std::string> spools;
  ChildProcesses fleet;
  for (int site = 0; site < kSites; ++site) {
    spools.push_back(std::string(::testing::TempDir()) + "soak_kill_" +
                     std::to_string(getpid()) + "_s" + std::to_string(site) +
                     ".drpt");
    std::remove(spools.back().c_str());
    fleet.spawn(monitor_args(kSeed, site, kKillFlows, kKillEpochs, "--spool",
                             spools.back()));
  }

  // write_report flushes each report whole, so one complete report in the
  // spool means the site is past its first rotate.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (read_spool(spools[kVictim]).reports == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "site " << kVictim << " wrote no report in time";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fleet.send_sigkill(kVictim);
  for (std::size_t site = 0; site < spools.size(); ++site) {
    const int status = fleet.reap(site);
    if (site == kVictim) {
      EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "site " << site << " ended before the kill, status " << status;
    } else {
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "site " << site << " status " << status;
    }
  }
  // Every child is reaped: no monitor process is left running.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);

  const SpoolContents victim = read_spool(spools[kVictim]);
  const std::uint64_t complete = victim.reports;
  ASSERT_GE(complete, 1u);
  ASSERT_LT(complete, kKillEpochs)
      << "the kill landed after the last epoch; the run is too short";
  SpoolContents expected;
  for (std::size_t site = 0; site < spools.size(); ++site) {
    const SpoolContents contents = read_spool(spools[site]);
    if (site != kVictim) {
      EXPECT_EQ(contents.reports, kKillEpochs) << site;
      EXPECT_FALSE(contents.torn) << site;
    }
    expected.bytes += contents.bytes;
    expected.packets += contents.packets;
  }

  const CollectorConfig config;
  Collector collector(config);
  for (int site = 0; site < kSites; ++site) {
    collector.expect_site(static_cast<std::uint32_t>(site));
  }
  SpoolSource source(spools);
  const auto stats = source.poll(collector);
  EXPECT_EQ(stats.reports, (kSites - 1) * kKillEpochs + complete);
  EXPECT_EQ(stats.truncated_tails, victim.torn ? 1u : 0u);
  EXPECT_EQ(stats.unreadable, 0u);
  collector.finalize_all();
  EXPECT_EQ(collector.epochs_finalized(), kKillEpochs);

  // Only complete reports merge: the totals are the sums of their totals.
  const auto totals = collector.totals();
  EXPECT_NEAR(totals.bytes, expected.bytes, 1e-9 * expected.bytes);
  EXPECT_NEAR(totals.packets, expected.packets, 1e-9 * expected.packets);

  const std::uint64_t lost = kKillEpochs - complete;
  const auto sites = collector.sites();
  ASSERT_EQ(sites.size(), static_cast<std::size_t>(kSites));
  for (const auto& site : sites) {
    if (site.site_id == kVictim) {
      EXPECT_EQ(site.reports, complete);
      EXPECT_EQ(site.epoch_gaps, lost);
      EXPECT_EQ(site.lag_epochs, lost);
      EXPECT_EQ(site.lagging, lost > config.liveness_window);
    } else {
      EXPECT_EQ(site.reports, kKillEpochs) << site.site_id;
      EXPECT_EQ(site.epoch_gaps, 0u) << site.site_id;
      EXPECT_FALSE(site.lagging) << site.site_id;
    }
  }
  for (const auto& spool : spools) std::remove(spool.c_str());
}

}  // namespace
}  // namespace disco::collect
