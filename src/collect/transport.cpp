#include "collect/transport.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <istream>
#include <list>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace disco::collect {

// --- SpoolSource ------------------------------------------------------------

SpoolSource::SpoolSource(std::vector<std::string> paths) {
  files_.reserve(paths.size());
  for (auto& path : paths) files_.push_back(File{std::move(path), 0});
}

SpoolSource::PollStats SpoolSource::poll(Collector& collector) {
  PollStats stats;
  struct Open {
    File* file = nullptr;
    std::unique_ptr<std::ifstream> in;
    std::optional<flowtable::ReportReader> reader;
    bool done = false;
  };
  std::vector<Open> open;
  open.reserve(files_.size());
  for (File& file : files_) {
    auto in = std::make_unique<std::ifstream>(file.path, std::ios::binary);
    if (*in) in->seekg(static_cast<std::streamoff>(file.offset));
    if (!*in) {
      // Not created yet (monitor still starting) or unreadable; retry on
      // the next poll.
      ++stats.unreadable;
      continue;
    }
    Open o;
    o.file = &file;
    o.in = std::move(in);
    o.reader.emplace(*o.in);
    open.push_back(std::move(o));
  }
  // Round-robin, one report per file per round.  Monitors append in epoch
  // order, so this interleaves the fleet's epochs instead of letting the
  // first file race the collector's epoch watermark ahead and turn every
  // other site's backlog into "late" reports.
  bool progress = true;
  while (progress) {
    progress = false;
    for (Open& o : open) {
      if (o.done) continue;
      std::optional<flowtable::ReportReader::Item> item;
      try {
        item = o.reader->next();
      } catch (const std::exception&) {
        // Torn tail: freeze the offset at the last complete report.  If
        // the monitor was mid-flush the bytes complete later and the next
        // poll resumes; if the file is permanently torn, every poll counts
        // it (the caller decides when to give up).
        ++stats.truncated_tails;
        o.done = true;
        continue;
      }
      if (!item) {  // clean end of spool (for now)
        o.done = true;
        continue;
      }
      collector.ingest(*item);
      ++stats.reports;
      ++delivered_;
      o.file->offset = static_cast<std::uint64_t>(o.in->tellg());
      progress = true;
    }
  }
  return stats;
}

// --- socket plumbing --------------------------------------------------------

namespace {

/// std::streambuf over a connected socket fd, read side.  Unbuffered
/// beyond one recv-sized block: report streams are parsed incrementally
/// and the reader never needs to seek.
class FdInBuf final : public std::streambuf {
 public:
  explicit FdInBuf(int fd) : fd_(fd) {}

 private:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t got;
    do {
      got = ::recv(fd_, buffer_, sizeof(buffer_), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(*gptr());
  }

  int fd_;
  char buffer_[4096];
};

/// Write side: buffers one block, flushes on overflow/sync.  A failed
/// flush poisons the stream (badbit via returning eof), which
/// write_report turns into its std::runtime_error.
class FdOutBuf final : public std::streambuf {
 public:
  explicit FdOutBuf(int fd) : fd_(fd) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

 private:
  bool flush_buffer() {
    const char* data = pbase();
    std::size_t left = static_cast<std::size_t>(pptr() - pbase());
    while (left > 0) {
      ssize_t sent;
      do {
        sent = ::send(fd_, data, left, 0);
      } while (sent < 0 && errno == EINTR);
      if (sent <= 0) return false;
      data += sent;
      left -= static_cast<std::size_t>(sent);
    }
    setp(buffer_, buffer_ + sizeof(buffer_));
    return true;
  }

  int_type overflow(int_type ch) override {
    if (!flush_buffer()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_buffer() ? 0 : -1; }

  int fd_;
  char buffer_[4096];
};

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("collect: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close_fd(fd);
    throw std::runtime_error("collect: bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    close_fd(fd);
    throw std::runtime_error("collect: connect to " + host + " failed: " +
                             std::strerror(errno));
  }
  return fd;
}

}  // namespace

// --- ReportClient -----------------------------------------------------------

struct ReportClient::Impl {
  explicit Impl(int fd) : fd_(fd), buf_(fd), out_(&buf_) {}
  ~Impl() { close_fd(fd_); }
  int fd_;
  FdOutBuf buf_;
  std::ostream out_;
};

ReportClient::ReportClient(const std::string& host, std::uint16_t port)
    : impl_(std::make_unique<Impl>(connect_tcp(host, port))) {}

ReportClient::~ReportClient() = default;
ReportClient::ReportClient(ReportClient&&) noexcept = default;
ReportClient& ReportClient::operator=(ReportClient&&) noexcept = default;

void ReportClient::send(const EpochReport& report, std::uint32_t site_id,
                        std::uint32_t version) {
  flowtable::write_report(impl_->out_, report, site_id, version);
}

// --- ReportServer -----------------------------------------------------------

struct ReportServer::Impl {
  Impl(Collector& collector, std::uint16_t port) : collector_(collector) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("collect: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 16) != 0) {
      const std::string why = std::strerror(errno);
      close_fd(listen_fd_);
      throw std::runtime_error("collect: cannot listen: " + why);
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) != 0) {
      close_fd(listen_fd_);
      throw std::runtime_error("collect: getsockname failed");
    }
    port_ = ntohs(bound.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }

  ~Impl() { stop(); }

  void accept_loop() {
    for (;;) {
      int fd;
      do {
        fd = ::accept(listen_fd_, nullptr, nullptr);
      } while (fd < 0 && errno == EINTR);
      if (fd < 0) return;  // listener closed by stop()
      {
        util::MutexLock lock(state_mutex_);
        if (stopping_) {
          close_fd(fd);
          return;
        }
        conn_fds_.push_back(fd);
        ++accepted_;
        // Reap ended connections, so their threads and stacks do not
        // outlive them until stop(); a done handler only closes its fd.
        for (auto it = handlers_.begin(); it != handlers_.end();) {
          if (!it->done) {
            ++it;
            continue;
          }
          it->thread.join();
          it = handlers_.erase(it);
        }
      }
      // The acceptor owns the handler threads; stop() joins the acceptor
      // first, so no handler is ever spawned after the join sweep starts.
      Handler& handler = handlers_.emplace_back();
      handler.thread =
          std::thread([this, fd, &handler] { serve(fd, handler); });
    }
  }

  /// One connection's thread; `done` (under state_mutex_) once serve() ends.
  struct Handler {
    std::thread thread;
    bool done = false;
  };

  void serve(int fd, Handler& self) {
    FdInBuf buf(fd);
    std::istream in(&buf);
    flowtable::ReportReader reader(in);
    try {
      while (auto item = reader.next()) {
        util::MutexLock lock(ingest_mutex_);
        collector_.ingest(*item);
      }
    } catch (const std::exception&) {
      // Torn stream (client died mid-report / stop() cut the socket):
      // everything before the tear was ingested; the tear is counted.
      util::MutexLock lock(state_mutex_);
      ++truncated_;
    }
    {
      util::MutexLock lock(state_mutex_);
      for (auto it = conn_fds_.begin(); it != conn_fds_.end(); ++it) {
        if (*it == fd) {
          conn_fds_.erase(it);
          break;
        }
      }
      self.done = true;
    }
    close_fd(fd);
  }

  void stop() {
    {
      util::MutexLock lock(state_mutex_);
      if (stopping_) return;
      stopping_ = true;
      // Shut down (not close) live connections: their handler threads own
      // the fds and will close them on the EOF this produces.
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    // The shutdown wakes the acceptor's accept(); the acceptor reads
    // listen_fd_ until it exits, so the descriptor is closed (and its number
    // freed for reuse) only after the join.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    close_fd(listen_fd_);
    listen_fd_ = -1;
    for (Handler& handler : handlers_) {
      if (handler.thread.joinable()) handler.thread.join();
    }
  }

  Collector& collector_;  // accessed only under ingest_mutex_ until stop()
  util::Mutex ingest_mutex_;
  util::Mutex state_mutex_;
  bool stopping_ DISCO_GUARDED_BY(state_mutex_) = false;
  std::vector<int> conn_fds_ DISCO_GUARDED_BY(state_mutex_);
  std::uint64_t accepted_ DISCO_GUARDED_BY(state_mutex_) = 0;
  std::uint64_t truncated_ DISCO_GUARDED_BY(state_mutex_) = 0;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  /// Touched by the acceptor, then by stop() once it has joined it.  A
  /// list, so a node stays put while its thread holds it.
  std::list<Handler> handlers_;
};

ReportServer::ReportServer(Collector& collector, std::uint16_t port)
    : impl_(std::make_unique<Impl>(collector, port)) {}

ReportServer::~ReportServer() = default;

std::uint16_t ReportServer::port() const noexcept { return impl_->port_; }

void ReportServer::stop() { impl_->stop(); }

util::Mutex& ReportServer::ingest_mutex() noexcept {
  return impl_->ingest_mutex_;
}

std::uint64_t ReportServer::connections_accepted() const noexcept {
  util::MutexLock lock(impl_->state_mutex_);
  return impl_->accepted_;
}

std::uint64_t ReportServer::truncated_streams() const noexcept {
  util::MutexLock lock(impl_->state_mutex_);
  return impl_->truncated_;
}

}  // namespace disco::collect
