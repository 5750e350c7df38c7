// Report transports: how DRPT epoch reports travel from monitor processes
// to the collector.
//
//   * SpoolSource -- each monitor appends reports to its own spool file;
//     the collector polls the files incrementally.  A poll picks up where
//     the previous one stopped (byte offset of the last complete report),
//     so a report the monitor is still flushing is retried, not lost, and
//     a torn tail (crash / short write) is detected and counted instead of
//     being silently dropped.
//   * ReportServer / ReportClient -- a TCP listener that accepts monitor
//     connections and feeds every received report into a Collector, with
//     its own mutex making the externally-synchronised Collector safe
//     under concurrent connections.  Clients stream write_report bytes;
//     the framing is the DRPT format itself.
//
// Both transports carry DRPT v3, the one wire version (docs/collector.md);
// a report the reader rejects ends its stream like a torn one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collect/collector.hpp"
#include "flowtable/report_io.hpp"
#include "util/thread_annotations.hpp"

namespace disco::collect {

/// Incremental reader over a set of append-only spool files (one per
/// monitor process).  Not thread-safe; poll from the collector thread.
class SpoolSource {
 public:
  explicit SpoolSource(std::vector<std::string> paths);

  struct PollStats {
    std::uint64_t reports = 0;          ///< reports delivered this poll
    std::uint64_t truncated_tails = 0;  ///< files ending mid-report
    std::uint64_t unreadable = 0;       ///< files that could not be opened
  };

  /// Reads every complete report appended since the last poll, in file
  /// order, feeding each into `collector`.  A file's torn tail freezes that
  /// file's offset at the last complete report: if the missing bytes arrive
  /// later (the monitor was mid-flush), the next poll resumes cleanly; if
  /// they never do, every poll reports the truncation.  Never throws on
  /// stream damage -- damage is counted, not fatal.
  PollStats poll(Collector& collector);

  /// Total complete reports delivered across all polls.
  [[nodiscard]] std::uint64_t reports_delivered() const noexcept {
    return delivered_;
  }

 private:
  struct File {
    std::string path;
    std::uint64_t offset = 0;  // byte offset of the next unread report
  };
  std::vector<File> files_;
  std::uint64_t delivered_ = 0;
};

/// TCP client side: connects to a collector's ReportServer and streams
/// reports.  Throws std::runtime_error when the network stack refuses
/// (socket/connect/write failure).  Movable, not copyable.
class ReportClient {
 public:
  ReportClient(const std::string& host, std::uint16_t port);
  ~ReportClient();
  ReportClient(ReportClient&&) noexcept;
  ReportClient& operator=(ReportClient&&) noexcept;
  ReportClient(const ReportClient&) = delete;
  ReportClient& operator=(const ReportClient&) = delete;

  /// Writes one report (write_report framing) and flushes it to the socket.
  void send(const EpochReport& report, std::uint32_t site_id);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// TCP server side: accepts monitor connections on a loopback/INADDR_ANY
/// port and ingests every received report into the wrapped Collector under
/// an internal mutex.  Pass port 0 for an ephemeral port (port() reports
/// the bound one).  The Collector must outlive the server; other threads
/// may keep using the Collector through with_collector().  Throws
/// std::runtime_error when the listener cannot be set up (sandboxes that
/// forbid bind -- callers should treat that as "transport unavailable").
class ReportServer {
 public:
  explicit ReportServer(Collector& collector, std::uint16_t port = 0);
  ~ReportServer();
  ReportServer(const ReportServer&) = delete;
  ReportServer& operator=(const ReportServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Stops accepting, closes every connection, joins the service threads.
  /// Reports already on the wire are drained first.  Idempotent.
  void stop();

  /// The mutex serialising every ingest from connection threads.  Hold it
  /// (util::MutexLock) around any direct Collector access made while
  /// connections are live; after stop() returns no locking is needed.
  [[nodiscard]] util::Mutex& ingest_mutex() noexcept;

  [[nodiscard]] std::uint64_t connections_accepted() const noexcept;
  /// Connections that ended mid-report (torn stream): their complete
  /// reports were ingested, the torn tail was discarded and counted.
  [[nodiscard]] std::uint64_t truncated_streams() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace disco::collect
