// Implementation of the model-checking harness declared in model.hpp.
//
// One Execution object drives one run of a driver.  Worker bodies run on
// real std::threads, but cooperatively: a single `active_` token (guarded
// by `gate_`) names the one thread allowed to execute, and the token only
// moves at modeled operations.  That strict handover is what lets every
// structure below be plain, unlocked C++ -- by construction there is never
// a second thread inside the checker.
//
// Decisions (which thread runs next, which store a weak load reads) are
// delegated to a Controller.  RandomController walks the tree with a
// per-execution seeded RNG; DfsController records the path as
// {chosen, arity} nodes and backtracks by incrementing the deepest
// non-exhausted node and replaying the prefix -- the classic stateless
// model-checking loop, with an optional CHESS preemption bound applied
// before the controller is consulted.
#include "verify/model.hpp"

#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

namespace disco::verify {
namespace {

// ---------------------------------------------------------------------------
// Controllers.
// ---------------------------------------------------------------------------

class Controller {
 public:
  virtual ~Controller() = default;
  /// Picks one of n alternatives at the next decision point.
  virtual unsigned choose(unsigned n) = 0;
  /// Prepares the next execution; false means the tree is fully explored.
  virtual bool next_execution() = 0;
};

class RandomController final : public Controller {
 public:
  explicit RandomController(std::uint64_t seed) : seed_(seed) { reseed(); }

  unsigned choose(unsigned n) override {
    return static_cast<unsigned>(rng_() % n);
  }

  bool next_execution() override {
    ++index_;
    reseed();
    return true;
  }

 private:
  void reseed() {
    // splitmix-style mixing so consecutive indices give unrelated walks.
    std::uint64_t z = seed_ + 0x9e3779b97f4a7c15ULL * (index_ + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    rng_.seed(z ^ (z >> 31));
  }

  std::uint64_t seed_;
  std::uint64_t index_ = 0;
  std::mt19937_64 rng_;
};

class DfsController final : public Controller {
 public:
  unsigned choose(unsigned n) override {
    if (cursor_ < path_.size()) {
      const Node& node = path_[cursor_++];
      if (node.arity != n) {
        // Replay diverged: the driver consulted a different number of
        // alternatives than last time on the identical decision prefix.
        // That means it has hidden nondeterminism (time, RNG, real thread
        // communication) and DFS results would be meaningless.
        throw std::logic_error(
            "verify: driver is nondeterministic (decision arity changed "
            "during DFS replay)");
      }
      return node.chosen;
    }
    path_.push_back(Node{0, n});
    ++cursor_;
    return 0;
  }

  bool next_execution() override {
    while (!path_.empty() && path_.back().chosen + 1 >= path_.back().arity) {
      path_.pop_back();
    }
    if (path_.empty()) return false;
    ++path_.back().chosen;
    cursor_ = 0;
    return true;
  }

 private:
  struct Node {
    unsigned chosen;
    unsigned arity;
  };
  std::vector<Node> path_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Per-execution state.
// ---------------------------------------------------------------------------

bool has_acquire(std::memory_order order) {
  return order == std::memory_order_acquire ||
         order == std::memory_order_consume ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

bool has_release(std::memory_order order) {
  return order == std::memory_order_release ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

/// One entry in a location's modification order.
struct StoreRecord {
  std::uint64_t value = 0;
  unsigned writer = 0;
  std::uint32_t stamp = 0;   ///< writer's clock component at the store
  std::uint64_t event = 0;   ///< global event number, for trace cross-refs
  VectorClock release;       ///< clock an acquire load of this store joins
};

struct Location {
  enum class Kind { kUnknown, kAtomic, kPlain, kMutex };

  const void* addr = nullptr;
  Kind kind = Kind::kUnknown;
  std::string name;
  bool dead = false;

  // Atomic locations: bounded store history.  `base` is the modification
  // order index of stores.front(); indices only grow as old stores are
  // trimmed.
  std::deque<StoreRecord> stores;
  std::uint64_t base = 0;
  std::array<std::uint64_t, kMaxThreads> read_floor{};  ///< index + 1; 0 = none
  std::array<std::uint32_t, kMaxThreads> stale_run{};

  // Plain locations: FastTrack epochs.
  unsigned last_writer = 0;
  std::uint32_t write_stamp = 0;
  std::uint64_t write_event = 0;
  std::array<std::uint32_t, kMaxThreads> read_stamps{};
  std::array<std::uint64_t, kMaxThreads> read_events{};

  // Mutex locations.
  bool locked = false;
  unsigned owner = 0;
  VectorClock handoff;  ///< accumulated release clock of past unlocks
};

struct Event {
  std::uint64_t seq = 0;
  unsigned thread = 0;
  const char* op = "";
  const Location* where = nullptr;
  std::uint64_t value = 0;
  bool has_value = false;
  std::int64_t reads_from = -1;  ///< event number of the store read, or -1
  bool stale = false;
};

struct ThreadCtx {
  enum class State { kUnused, kReady, kBlocked, kFinished };

  unsigned id = 0;
  State state = State::kUnused;
  std::function<void()> body;
  std::thread os;
  std::condition_variable cv;
  const void* waiting_on = nullptr;

  VectorClock clock;
  VectorClock fence_release;  ///< clock at the last release fence
  VectorClock acq_pending;    ///< release clocks seen by relaxed loads since
                              ///< the last acquire fence
  /// writes_ + 1 as of this thread's last spin_yield (0 = never yielded):
  /// while it still equals writes_ + 1, nobody has written since, and the
  /// thread is parked -- rerunning it would only re-poll the same stores.
  std::uint64_t parked_at = 0;
};

constexpr std::size_t kTraceEvents = 96;

class Execution {
 public:
  Execution(const Options& options, Controller& controller)
      : opts_(options), ctl_(controller) {
    threads_[0].id = 0;
    threads_[0].state = ThreadCtx::State::kReady;
    threads_[0].clock.tick(0);
  }

  ~Execution() = default;

  // -- driver-facing ------------------------------------------------------

  void run_threads(std::vector<std::function<void()>> bodies);
  void spin_yield() { schedule(SchedKind::kYield); }
  void check(bool condition, const char* what) {
    if (condition || failed_) return;
    fail(std::string("CHECK FAILED: ") + what + "  (thread T" +
         std::to_string(tls_tid) + ")");
  }
  void set_label(const void* addr, const char* name) {
    location(addr, Location::Kind::kUnknown).name = name;
  }

  // -- modeled operations -------------------------------------------------

  std::uint64_t atomic_load(const std::atomic<std::uint64_t>* cell,
                            std::memory_order order);
  void atomic_store(std::atomic<std::uint64_t>* cell, std::uint64_t value,
                    std::memory_order order);
  std::uint64_t atomic_rmw(std::atomic<std::uint64_t>* cell, detail::Rmw op,
                           std::uint64_t operand, std::uint64_t mask,
                           std::memory_order order);
  bool atomic_cas(std::atomic<std::uint64_t>* cell, std::uint64_t& expected,
                  std::uint64_t desired, std::memory_order success,
                  std::memory_order failure);
  void fence(std::memory_order order);
  void plain_read(const void* addr);
  void plain_write(const void* addr);
  void mutex_lock(const void* addr);
  void mutex_unlock(const void* addr);
  void forget(const void* addr) noexcept {
    auto it = locations_.find(addr);
    if (it != locations_.end()) it->second->dead = true;
  }

  // -- results ------------------------------------------------------------

  bool failed() const { return failed_; }
  bool pruned() const { return pruned_; }
  const std::string& report() const { return failure_; }

 private:
  enum class SchedKind { kStep, kYield, kBlocked };

  ThreadCtx& self() { return threads_[tls_tid]; }

  static void trampoline(Execution* exec, unsigned id);

  void schedule(SchedKind kind);
  void switch_to(unsigned next, bool exiting);
  unsigned pick_runnable(bool exclude_self, bool skip_parked = false);
  void thread_finished();
  void declare_deadlock();

  Location& location(const void* addr, Location::Kind kind);
  /// Registers the pre-execution value (whatever `cell` holds) as the
  /// initial store, hb-before everything via the spawn edge, so weak loads
  /// can still read it after later stores land.
  static void ensure_init(Location& loc,
                          const std::atomic<std::uint64_t>* cell) {
    if (!loc.stores.empty()) return;
    StoreRecord init;
    init.value = cell->load(std::memory_order_relaxed);
    loc.stores.push_back(std::move(init));
  }
  StoreRecord& append_store(Location& loc, std::atomic<std::uint64_t>* cell,
                            std::uint64_t value, std::memory_order order,
                            const VectorClock* merge_release);
  void apply_load_sync(ThreadCtx& me, const StoreRecord& store,
                       std::memory_order order);

  void record(const Location* where, const char* op, std::uint64_t value,
              bool has_value, std::int64_t reads_from = -1,
              bool stale = false);
  void fail(std::string what);
  std::string format_trace() const;

  Options opts_;
  Controller& ctl_;

  std::array<ThreadCtx, kMaxThreads> threads_{};
  unsigned nthreads_ = 1;
  bool running_ = false;  ///< inside run_threads (workers exist)

  std::mutex gate_;
  unsigned active_ = 0;

  std::uint64_t steps_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t writes_ = 0;  ///< atomic stores, plain writes and unlocks
  unsigned preemptions_ = 0;
  bool failed_ = false;
  bool pruned_ = false;
  bool finishing_ = false;

  std::string failure_;
  std::array<Event, kTraceEvents> trace_{};

  std::unordered_map<const void*, std::unique_ptr<Location>> locations_;
  std::vector<std::unique_ptr<Location>> graveyard_;
  std::array<unsigned, 4> name_counters_{};  // indexed by Location::Kind

 public:
  static thread_local Execution* tls_exec;
  static thread_local unsigned tls_tid;
};

thread_local Execution* Execution::tls_exec = nullptr;
thread_local unsigned Execution::tls_tid = 0;

Execution* current_execution() noexcept { return Execution::tls_exec; }

// ---------------------------------------------------------------------------
// Scheduling.
// ---------------------------------------------------------------------------

unsigned Execution::pick_runnable(bool exclude_self, bool skip_parked) {
  // Deterministic candidate order (by id) so DFS replays are stable.
  unsigned candidates[kMaxThreads];
  unsigned n = 0;
  for (unsigned t = 1; t < nthreads_; ++t) {
    if (threads_[t].state != ThreadCtx::State::kReady) continue;
    if (exclude_self && t == tls_tid) continue;
    if (skip_parked && threads_[t].parked_at == writes_ + 1) continue;
    candidates[n++] = t;
  }
  if (n == 0) return kMaxThreads;  // nobody runnable
  if (n == 1) return candidates[0];
  if (finishing_) {
    // Fair round-robin: first candidate strictly after the current thread.
    for (unsigned i = 0; i < n; ++i) {
      if (candidates[i] > tls_tid) return candidates[i];
    }
    return candidates[0];
  }
  return candidates[ctl_.choose(n)];
}

void Execution::schedule(SchedKind kind) {
  if (!running_) return;  // main thread outside run_threads: nothing to do
  if (++steps_ > opts_.max_steps && !finishing_) {
    pruned_ = true;
    finishing_ = true;
  }
  if (steps_ > opts_.max_steps * 10 + 1000000) {
    // Even fair finishing-mode scheduling did not drain the driver: its
    // exit condition is unreachable (e.g. it waits for values nobody will
    // push).  Failing loudly beats a silent ctest hang; we cannot unwind
    // an exception through the noexcept frames under test, so abort.
    std::fprintf(stderr,
                 "verify: driver livelock -- %llu steps without finishing "
                 "(max_steps=%llu); the driver's exit condition looks "
                 "unreachable\n%s",
                 static_cast<unsigned long long>(steps_),
                 static_cast<unsigned long long>(opts_.max_steps),
                 format_trace().c_str());
    std::abort();
  }

  ThreadCtx& me = self();
  if (kind == SchedKind::kBlocked) {
    unsigned next = pick_runnable(/*exclude_self=*/true);
    if (next == kMaxThreads) {
      declare_deadlock();
      return;  // failed_ now set; caller breaks out of its wait loop
    }
    switch_to(next, /*exiting=*/false);
    return;
  }

  if (finishing_) {
    if (kind == SchedKind::kYield) {
      unsigned next = pick_runnable(/*exclude_self=*/true);
      if (next != kMaxThreads) switch_to(next, /*exiting=*/false);
    }
    return;
  }

  if (kind == SchedKind::kYield) {
    // Voluntary: switching is free and preferred, staying is not explored
    // (the caller told us it cannot make progress right now).  Nor is
    // switching to a thread that yielded since the last write, unless no
    // other thread is runnable: it would only re-poll the same stores.
    // Without this rule two pollers could pass the token back and forth
    // forever while a third thread waits to write what both need, making a
    // three-thread driver's tree infinite.  With two threads it changes
    // nothing: the one candidate is taken either way.
    me.parked_at = writes_ + 1;
    unsigned next = pick_runnable(/*exclude_self=*/true, /*skip_parked=*/true);
    if (next == kMaxThreads) next = pick_runnable(/*exclude_self=*/true);
    if (next != kMaxThreads) switch_to(next, /*exiting=*/false);
    return;
  }

  // Ordinary step: possibly preempt.
  if (opts_.preemption_bound >= 0 &&
      preemptions_ >= static_cast<unsigned>(opts_.preemption_bound)) {
    return;  // budget spent: keep running the current thread
  }
  unsigned next = pick_runnable(/*exclude_self=*/false);
  if (next == kMaxThreads || next == tls_tid) return;
  ++preemptions_;
  switch_to(next, /*exiting=*/false);
}

void Execution::switch_to(unsigned next, bool exiting) {
  unsigned me = tls_tid;
  std::unique_lock<std::mutex> lk(gate_);
  active_ = next;
  threads_[next].cv.notify_one();
  if (exiting) return;
  threads_[me].cv.wait(lk, [&] { return active_ == me; });
}

void Execution::declare_deadlock() {
  if (!failed_) {
    std::string what = "DEADLOCK: no runnable thread.";
    for (unsigned t = 1; t < nthreads_; ++t) {
      const ThreadCtx& ctx = threads_[t];
      if (ctx.state != ThreadCtx::State::kBlocked) continue;
      what += "\n  T" + std::to_string(t) + " blocked on ";
      auto it = locations_.find(ctx.waiting_on);
      what += it != locations_.end() ? it->second->name : "<mutex>";
    }
    fail(std::move(what));
  }
  // failed_ => finishing_: the blocked callers force-acquire and drain.
  for (unsigned t = 1; t < nthreads_; ++t) {
    if (threads_[t].state == ThreadCtx::State::kBlocked) {
      threads_[t].state = ThreadCtx::State::kReady;
      threads_[t].waiting_on = nullptr;
    }
  }
}

void Execution::trampoline(Execution* exec, unsigned id) {
  {
    std::unique_lock<std::mutex> lk(exec->gate_);
    exec->threads_[id].cv.wait(lk, [&] { return exec->active_ == id; });
  }
  tls_exec = exec;
  tls_tid = id;
  exec->threads_[id].body();
  exec->thread_finished();
  tls_exec = nullptr;
  tls_tid = 0;
}

void Execution::thread_finished() {
  ThreadCtx& me = self();
  me.state = ThreadCtx::State::kFinished;
  unsigned next = pick_runnable(/*exclude_self=*/true);
  if (next == kMaxThreads) {
    bool any_blocked = false;
    for (unsigned t = 1; t < nthreads_; ++t) {
      any_blocked |= threads_[t].state == ThreadCtx::State::kBlocked;
    }
    if (any_blocked) {
      declare_deadlock();
      next = pick_runnable(/*exclude_self=*/true);
    }
  }
  if (next != kMaxThreads) {
    switch_to(next, /*exiting=*/true);
  } else {
    switch_to(0, /*exiting=*/true);  // everyone done: wake the driver
  }
}

void Execution::run_threads(std::vector<std::function<void()>> bodies) {
  if (tls_tid != 0 || running_) {
    throw std::logic_error("verify: run_threads must not nest");
  }
  if (bodies.empty() || bodies.size() > kMaxThreads - 1) {
    throw std::logic_error("verify: run_threads needs 1..kMaxThreads-1 bodies");
  }

  nthreads_ = static_cast<unsigned>(bodies.size()) + 1;
  ThreadCtx& main = threads_[0];
  main.clock.tick(0);  // spawn event
  for (unsigned t = 1; t < nthreads_; ++t) {
    ThreadCtx& ctx = threads_[t];
    ctx.id = t;
    ctx.body = std::move(bodies[t - 1]);
    ctx.state = ThreadCtx::State::kReady;
    ctx.waiting_on = nullptr;
    ctx.clock = main.clock;  // everything the driver did pre-spawn
    ctx.clock.tick(t);
    ctx.fence_release.clear();
    ctx.acq_pending.clear();
  }
  running_ = true;
  preemptions_ = 0;
  main.state = ThreadCtx::State::kBlocked;
  for (unsigned t = 1; t < nthreads_; ++t) {
    threads_[t].os = std::thread(&Execution::trampoline, this, t);
  }

  unsigned first = pick_runnable(/*exclude_self=*/true);
  {
    std::unique_lock<std::mutex> lk(gate_);
    active_ = first;
    threads_[first].cv.notify_one();
    main.cv.wait(lk, [&] { return active_ == 0; });
  }

  for (unsigned t = 1; t < nthreads_; ++t) {
    threads_[t].os.join();
    main.clock.merge(threads_[t].clock);  // join edge
    threads_[t].state = ThreadCtx::State::kUnused;
    threads_[t].body = nullptr;
  }
  running_ = false;
  nthreads_ = 1;
  main.state = ThreadCtx::State::kReady;
}

// ---------------------------------------------------------------------------
// Locations and stores.
// ---------------------------------------------------------------------------

Location& Execution::location(const void* addr, Location::Kind kind) {
  auto it = locations_.find(addr);
  if (it != locations_.end() && it->second->dead) {
    // Address reuse: keep the old object alive for the trace, start fresh.
    graveyard_.push_back(std::move(it->second));
    locations_.erase(it);
    it = locations_.end();
  }
  if (it == locations_.end()) {
    auto loc = std::make_unique<Location>();
    loc->addr = addr;
    it = locations_.emplace(addr, std::move(loc)).first;
  }
  Location& loc = *it->second;
  if (loc.kind == Location::Kind::kUnknown &&
      kind != Location::Kind::kUnknown) {
    loc.kind = kind;
    if (loc.name.empty()) {
      static constexpr const char* kPrefix[] = {"?", "A", "V", "X"};
      unsigned idx = name_counters_[static_cast<unsigned>(kind)]++;
      loc.name = std::string(kPrefix[static_cast<unsigned>(kind)]) +
                 std::to_string(idx);
    }
  }
  return loc;
}

StoreRecord& Execution::append_store(Location& loc,
                                     std::atomic<std::uint64_t>* cell,
                                     std::uint64_t value,
                                     std::memory_order order,
                                     const VectorClock* merge_release) {
  ThreadCtx& me = self();
  StoreRecord rec;
  rec.value = value;
  rec.writer = tls_tid;
  rec.stamp = me.clock.tick(tls_tid);
  rec.event = events_;  // caller records the event right after
  // A release store publishes everything this thread has done; a relaxed
  // store publishes only up to the thread's last release fence (possibly
  // nothing).  An RMW additionally carries forward the clock of the store
  // it replaced, approximating C++ release sequences.
  rec.release = has_release(order) ? me.clock : me.fence_release;
  if (merge_release != nullptr) rec.release.merge(*merge_release);

  loc.stores.push_back(std::move(rec));
  ++writes_;
  cell->store(value, std::memory_order_relaxed);  // mirror newest value
  while (loc.stores.size() > opts_.store_history) {
    loc.stores.pop_front();
    ++loc.base;
  }
  // Own stores are coherence floors for our own later reads.
  std::uint64_t newest = loc.base + loc.stores.size() - 1;
  loc.read_floor[tls_tid] = newest + 1;
  return loc.stores.back();
}

void Execution::apply_load_sync(ThreadCtx& me, const StoreRecord& store,
                                std::memory_order order) {
  if (has_acquire(order)) {
    me.clock.merge(store.release);
  } else {
    // Remembered so a later acquire *fence* upgrades this relaxed load.
    me.acq_pending.merge(store.release);
  }
}

// ---------------------------------------------------------------------------
// Modeled atomic operations.
// ---------------------------------------------------------------------------

std::uint64_t Execution::atomic_load(const std::atomic<std::uint64_t>* cell,
                                     std::memory_order order) {
  schedule(SchedKind::kStep);
  Location& loc = location(cell, Location::Kind::kAtomic);
  ensure_init(loc, cell);
  ThreadCtx& me = self();

  const std::uint64_t newest = loc.base + loc.stores.size() - 1;
  // Happens-before floor: the newest store this thread already knows about
  // (coherence forbids reading anything older than it).
  std::uint64_t lo = loc.base;
  for (std::uint64_t i = newest + 1; i-- > loc.base;) {
    const StoreRecord& s = loc.stores[static_cast<std::size_t>(i - loc.base)];
    if (me.clock.covers(s.writer, s.stamp)) {
      lo = i;
      break;
    }
  }
  if (loc.read_floor[tls_tid] > 0 && loc.read_floor[tls_tid] - 1 > lo) {
    lo = loc.read_floor[tls_tid] - 1;  // read-read coherence
  }
  // seq_cst loads are pinned to the newest store (we model a single total
  // order for them rather than full C++ SC -- documented simplification),
  // and so is everything once a verdict is in or the memory-liveness bound
  // for this thread/location is spent.
  std::uint64_t pick = newest;
  if (lo < newest && order != std::memory_order_seq_cst && !finishing_ &&
      loc.stale_run[tls_tid] < opts_.stale_read_bound) {
    pick = lo + ctl_.choose(static_cast<unsigned>(newest - lo + 1));
  }
  const bool stale = pick != newest;
  loc.stale_run[tls_tid] = stale ? loc.stale_run[tls_tid] + 1 : 0;
  if (loc.read_floor[tls_tid] < pick + 1) loc.read_floor[tls_tid] = pick + 1;

  const StoreRecord& store =
      loc.stores[static_cast<std::size_t>(pick - loc.base)];
  apply_load_sync(me, store, order);
  me.clock.tick(tls_tid);

  static constexpr const char* kOp[] = {"load.relaxed", "load.consume",
                                        "load.acquire", "load.release",
                                        "load.acq_rel", "load.seq_cst"};
  record(&loc, kOp[static_cast<int>(order)], store.value, true,
         static_cast<std::int64_t>(store.event), stale);
  return store.value;
}

void Execution::atomic_store(std::atomic<std::uint64_t>* cell,
                             std::uint64_t value, std::memory_order order) {
  schedule(SchedKind::kStep);
  Location& loc = location(cell, Location::Kind::kAtomic);
  ensure_init(loc, cell);
  ++events_;
  append_store(loc, cell, value, order, nullptr);
  static constexpr const char* kOp[] = {"store.relaxed", "store.consume",
                                        "store.acquire", "store.release",
                                        "store.acq_rel", "store.seq_cst"};
  --events_;  // record() re-increments; keep store.event == its event number
  record(&loc, kOp[static_cast<int>(order)], value, true);
}

std::uint64_t Execution::atomic_rmw(std::atomic<std::uint64_t>* cell,
                                    detail::Rmw op, std::uint64_t operand,
                                    std::uint64_t mask,
                                    std::memory_order order) {
  schedule(SchedKind::kStep);
  Location& loc = location(cell, Location::Kind::kAtomic);
  ensure_init(loc, cell);
  // An RMW always reads the newest store in modification order.
  const StoreRecord prev = loc.stores.back();
  ThreadCtx& me = self();
  apply_load_sync(me, prev, order);

  std::uint64_t next = prev.value;
  switch (op) {
    case detail::Rmw::kAdd: next = (prev.value + operand) & mask; break;
    case detail::Rmw::kSub: next = (prev.value - operand) & mask; break;
    case detail::Rmw::kAnd: next = prev.value & operand; break;
    case detail::Rmw::kOr: next = prev.value | operand; break;
    case detail::Rmw::kXor: next = prev.value ^ operand; break;
    case detail::Rmw::kExchange: next = operand & mask; break;
  }
  ++events_;
  append_store(loc, cell, next, order, &prev.release);
  --events_;
  record(&loc, "rmw", next, true, static_cast<std::int64_t>(prev.event));
  return prev.value;
}

bool Execution::atomic_cas(std::atomic<std::uint64_t>* cell,
                           std::uint64_t& expected, std::uint64_t desired,
                           std::memory_order success,
                           std::memory_order failure) {
  schedule(SchedKind::kStep);
  Location& loc = location(cell, Location::Kind::kAtomic);
  ensure_init(loc, cell);
  const StoreRecord prev = loc.stores.back();
  ThreadCtx& me = self();
  if (prev.value == expected) {
    apply_load_sync(me, prev, success);
    ++events_;
    append_store(loc, cell, desired, success, &prev.release);
    --events_;
    record(&loc, "cas.ok", desired, true,
           static_cast<std::int64_t>(prev.event));
    return true;
  }
  // Failed CAS: a load (with the failure order) of the newest store.
  apply_load_sync(me, prev, failure);
  me.clock.tick(tls_tid);
  record(&loc, "cas.fail", prev.value, true,
         static_cast<std::int64_t>(prev.event));
  expected = prev.value;
  return false;
}

void Execution::fence(std::memory_order order) {
  schedule(SchedKind::kStep);
  ThreadCtx& me = self();
  if (has_acquire(order)) {
    me.clock.merge(me.acq_pending);
    me.acq_pending.clear();
  }
  if (has_release(order)) {
    me.fence_release = me.clock;
  }
  me.clock.tick(tls_tid);
  record(nullptr,
         order == std::memory_order_seq_cst  ? "fence.seq_cst"
         : has_release(order)                ? "fence.release"
                                             : "fence.acquire",
         0, false);
}

// ---------------------------------------------------------------------------
// Plain accesses (race detection only -- not scheduling points).
// ---------------------------------------------------------------------------

void Execution::plain_read(const void* addr) {
  Location& loc = location(addr, Location::Kind::kPlain);
  ThreadCtx& me = self();
  if (!failed_ && loc.write_stamp != 0 &&
      !me.clock.covers(loc.last_writer, loc.write_stamp)) {
    record(&loc, "read", 0, false);
    fail("DATA RACE on " + loc.name + ": plain read by T" +
         std::to_string(tls_tid) + " (clock " + me.clock.str() +
         ") is concurrent with the plain write by T" +
         std::to_string(loc.last_writer) + " at event #" +
         std::to_string(loc.write_event) + " (epoch T" +
         std::to_string(loc.last_writer) + ":" +
         std::to_string(loc.write_stamp) + ")");
    return;
  }
  me.clock.tick(tls_tid);
  loc.read_stamps[tls_tid] = me.clock.at(tls_tid);
  loc.read_events[tls_tid] = events_ + 1;
  record(&loc, "read", 0, false);
}

void Execution::plain_write(const void* addr) {
  Location& loc = location(addr, Location::Kind::kPlain);
  ThreadCtx& me = self();
  if (!failed_) {
    if (loc.write_stamp != 0 &&
        !me.clock.covers(loc.last_writer, loc.write_stamp)) {
      record(&loc, "write", 0, false);
      fail("DATA RACE on " + loc.name + ": plain write by T" +
           std::to_string(tls_tid) + " (clock " + me.clock.str() +
           ") is concurrent with the plain write by T" +
           std::to_string(loc.last_writer) + " at event #" +
           std::to_string(loc.write_event));
      return;
    }
    for (unsigned t = 0; t < kMaxThreads; ++t) {
      if (t == tls_tid || loc.read_stamps[t] == 0) continue;
      if (!me.clock.covers(t, loc.read_stamps[t])) {
        record(&loc, "write", 0, false);
        fail("DATA RACE on " + loc.name + ": plain write by T" +
             std::to_string(tls_tid) + " (clock " + me.clock.str() +
             ") is concurrent with the plain read by T" + std::to_string(t) +
             " at event #" + std::to_string(loc.read_events[t]) + " (epoch T" +
             std::to_string(t) + ":" + std::to_string(loc.read_stamps[t]) +
             ")");
        return;
      }
    }
  }
  me.clock.tick(tls_tid);
  loc.last_writer = tls_tid;
  loc.write_stamp = me.clock.at(tls_tid);
  loc.write_event = events_ + 1;
  // This write is ordered after every recorded read (just checked), so by
  // transitivity future accesses only need to be checked against the write.
  loc.read_stamps.fill(0);
  ++writes_;
  record(&loc, "write", 0, false);
}

// ---------------------------------------------------------------------------
// Mutexes.
// ---------------------------------------------------------------------------

void Execution::mutex_lock(const void* addr) {
  schedule(SchedKind::kStep);
  Location& loc = location(addr, Location::Kind::kMutex);
  ThreadCtx& me = self();
  while (loc.locked && !failed_) {
    me.state = ThreadCtx::State::kBlocked;
    me.waiting_on = addr;
    schedule(SchedKind::kBlocked);
    // Resumed: either the mutex was released (unlock marked us kReady) or a
    // deadlock verdict flipped failed_ and force-released everyone.
  }
  me.state = ThreadCtx::State::kReady;
  me.waiting_on = nullptr;
  loc.locked = true;
  loc.owner = tls_tid;
  me.clock.merge(loc.handoff);
  me.clock.tick(tls_tid);
  record(&loc, "lock", 0, false);
}

void Execution::mutex_unlock(const void* addr) {
  schedule(SchedKind::kStep);
  Location& loc = location(addr, Location::Kind::kMutex);
  ThreadCtx& me = self();
  loc.locked = false;
  ++writes_;
  loc.handoff.merge(me.clock);
  me.clock.tick(tls_tid);
  for (unsigned t = 1; t < nthreads_; ++t) {
    if (threads_[t].state == ThreadCtx::State::kBlocked &&
        threads_[t].waiting_on == addr) {
      threads_[t].state = ThreadCtx::State::kReady;
      threads_[t].waiting_on = nullptr;
    }
  }
  record(&loc, "unlock", 0, false);
}

// ---------------------------------------------------------------------------
// Traces and failure reports.
// ---------------------------------------------------------------------------

void Execution::record(const Location* where, const char* op,
                       std::uint64_t value, bool has_value,
                       std::int64_t reads_from, bool stale) {
  Event& ev = trace_[events_ % kTraceEvents];
  ++events_;
  ev.seq = events_;
  ev.thread = tls_tid;
  ev.op = op;
  ev.where = where;
  ev.value = value;
  ev.has_value = has_value;
  ev.reads_from = reads_from;
  ev.stale = stale;
}

std::string Execution::format_trace() const {
  std::string out = "  last events (oldest first):\n";
  const std::uint64_t from =
      events_ > kTraceEvents ? events_ - kTraceEvents : 0;
  for (std::uint64_t i = from; i < events_; ++i) {
    const Event& ev = trace_[i % kTraceEvents];
    char head[64];
    std::snprintf(head, sizeof(head), "    #%-4llu T%u  ",
                  static_cast<unsigned long long>(ev.seq), ev.thread);
    out += head;
    if (ev.where != nullptr) {
      out += ev.where->name;
      out += ' ';
    }
    out += ev.op;
    if (ev.has_value) {
      out += " = ";
      out += std::to_string(ev.value);
    }
    if (ev.reads_from >= 0) {
      out += "  (reads-from #";
      out += std::to_string(ev.reads_from);
      if (ev.stale) out += ", stale";
      out += ')';
    }
    out += '\n';
  }
  return out;
}

void Execution::fail(std::string what) {
  if (failed_) return;
  failed_ = true;
  finishing_ = true;
  failure_ = "verify: " + what + "\n" + format_trace();
}

// ---------------------------------------------------------------------------
// detail:: entry points and the public API.
// ---------------------------------------------------------------------------

Execution* exec() { return current_execution(); }

struct TlsGuard {
  explicit TlsGuard(Execution* e) {
    Execution::tls_exec = e;
    Execution::tls_tid = 0;
  }
  ~TlsGuard() { Execution::tls_exec = nullptr; }
};

}  // namespace

namespace detail {

bool modeled() noexcept { return exec() != nullptr; }

std::uint64_t atomic_load(const std::atomic<std::uint64_t>* cell,
                          std::memory_order order) {
  return exec()->atomic_load(cell, order);
}

void atomic_store(std::atomic<std::uint64_t>* cell, std::uint64_t value,
                  std::memory_order order) {
  exec()->atomic_store(cell, value, order);
}

std::uint64_t atomic_rmw(std::atomic<std::uint64_t>* cell, Rmw op,
                         std::uint64_t operand, std::uint64_t mask,
                         std::memory_order order) {
  return exec()->atomic_rmw(cell, op, operand, mask, order);
}

bool atomic_cas(std::atomic<std::uint64_t>* cell, std::uint64_t& expected,
                std::uint64_t desired, std::memory_order success,
                std::memory_order failure) {
  return exec()->atomic_cas(cell, expected, desired, success, failure);
}

void fence(std::memory_order order) { exec()->fence(order); }

void plain_read(const void* addr) { exec()->plain_read(addr); }

void plain_write(const void* addr) { exec()->plain_write(addr); }

void mutex_lock(const void* addr) { exec()->mutex_lock(addr); }

void mutex_unlock(const void* addr) { exec()->mutex_unlock(addr); }

void forget(const void* addr) noexcept {
  if (Execution* e = exec()) e->forget(addr);
}

}  // namespace detail

void run_threads(std::vector<std::function<void()>> bodies) {
  Execution* e = exec();
  if (e == nullptr) {
    throw std::logic_error("verify: run_threads outside explore()");
  }
  e->run_threads(std::move(bodies));
}

void mc_check(bool condition, const char* what) {
  if (Execution* e = exec()) {
    e->check(condition, what);
    return;
  }
  if (!condition) {
    throw std::logic_error(std::string("verify: mc_check failed outside "
                                       "explore(): ") +
                           what);
  }
}

void spin_yield() {
  if (Execution* e = exec()) {
    e->spin_yield();
    return;
  }
  std::this_thread::yield();
}

void label(const void* addr, const char* name) {
  if (Execution* e = exec()) e->set_label(addr, name);
}

Result explore(const Options& options, const std::function<void()>& driver) {
  if (exec() != nullptr) {
    throw std::logic_error("verify: explore() must not nest");
  }
  std::unique_ptr<Controller> controller;
  if (options.exhaustive) {
    controller = std::make_unique<DfsController>();
  } else {
    controller = std::make_unique<RandomController>(options.seed);
  }

  Result result;
  for (;;) {
    Execution execution(options, *controller);
    {
      TlsGuard guard(&execution);
      driver();
    }
    ++result.executions;
    if (execution.pruned()) ++result.pruned;
    if (execution.failed()) {
      result.failed = true;
      result.report = execution.report();
      break;
    }
    if (!controller->next_execution()) {
      result.exhausted = options.exhaustive;
      break;
    }
    if (result.executions >= options.max_executions) break;
  }
  return result;
}

}  // namespace disco::verify
