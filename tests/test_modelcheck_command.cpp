// Model-check drivers for the pipeline's command protocols
// (src/pipeline/pipeline.cpp).
//
// InBandRotateBoundaryIsExact checks a property of SpscRing alone: a marker
// pushed by the ring's single producer is delivered exactly between the
// values pushed before and after it, in every schedule.  The pipeline does
// not rely on it today: it posts every command on a separate per-worker
// command ring, read between data pops, so PipelineMonitor::rotate's cut is
// not exact (pipeline.hpp, "Epoch semantics").  A marker-based rotation, in
// which each producer stamps its own data ring, would rely on exactly this
// property.
//
// The other drivers check the completion side (the worker fills a result the
// issuer then reads): a publish/subscribe handshake on a flag, posted through
// the pipeline's own command ring type, an SpscRing<Command*> of two slots.
//
// Compiled with DISCO_MODELCHECK=1; see test_modelcheck_ring.cpp for the
// harness conventions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "pipeline/packet_ring.hpp"
#include "util/atomic.hpp"
#include "verify/model.hpp"

namespace verify = disco::verify;
namespace util = disco::util;
using disco::pipeline::SpscRing;

namespace {

/// A control marker pushed through the data ring itself.
constexpr std::uint64_t kRotate = ~std::uint64_t{0};

}  // namespace

TEST(ModelCheckCommand, InBandRotateBoundaryIsExact) {
  // Producer: 1, 2, ROTATE, 3.  Consumer accumulates per epoch; the marker
  // must cut exactly after 1+2 in EVERY schedule: one producer's ring
  // delivers a marker in push order with its data.
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  verify::Result r = verify::explore(opts, [] {
    SpscRing<std::uint64_t> ring(4);
    std::uint64_t epoch0 = 0;
    std::uint64_t epoch1 = 0;
    verify::run_threads({
        [&] {
          const std::uint64_t feed[] = {1, 2, kRotate, 3};
          for (std::uint64_t v : feed) {
            while (!ring.try_push(v)) verify::spin_yield();
          }
        },
        [&] {
          std::uint64_t buf[4];
          bool rotated = false;
          std::uint64_t acc = 0;
          std::size_t popped = 0;
          while (popped < 4) {
            const std::size_t got = ring.pop_batch(buf, 4);
            if (got == 0) {
              verify::spin_yield();
              continue;
            }
            popped += got;
            for (std::size_t i = 0; i < got; ++i) {
              if (buf[i] == kRotate) {
                epoch0 = acc;
                acc = 0;
                rotated = true;
              } else {
                acc += buf[i];
              }
            }
          }
          verify::mc_check(rotated, "the rotate marker must arrive");
          epoch1 = acc;
        },
    });
    verify::mc_check(epoch0 == 3, "epoch 0 must hold exactly 1+2");
    verify::mc_check(epoch1 == 3, "epoch 1 must hold exactly the tail");
  });
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

namespace {

/// The synchronous command handshake from pipeline.cpp, reduced to its
/// memory protocol: the issuer stack-allocates the command, passes a
/// POINTER through the ring (two slots, as a pipeline worker's command
/// ring), and polls a completion flag; the worker runs the command's
/// closure, which writes the result into the issuer's frame, and releases
/// the flag.  The issuer's read of `result` is only safe
/// because of that release/acquire pair, and once it sees the flag it
/// reuses the command's storage at once (writes `arg`), as the real
/// caller's stack frame is reused when the control call returns -- so the
/// release store must be the worker's last access to the command.  Each
/// planted variant breaks one half.
struct Command {
  util::shared<std::uint64_t> arg;
  util::shared<std::uint64_t> result;
  util::atomic<std::uint64_t> done{0};
};

enum class Handshake {
  kPristine,
  kRelaxedDone,    ///< the completion store is relaxed
  kReadAfterDone,  ///< the worker reads the command after its release store
};

template <Handshake kVariant>
verify::Result explore_handshake() {
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  return verify::explore(opts, [] {
    SpscRing<Command*> ring(2);
    Command cmd;
    verify::label(&cmd.done, "cmd.done");
    verify::label(&cmd.result, "cmd.result");
    verify::label(&cmd.arg, "cmd.arg");
    std::uint64_t answer = 0;
    verify::run_threads({
        [&] {  // issuer
          cmd.arg = 7;
          while (!ring.try_push(&cmd)) verify::spin_yield();
          while (cmd.done.load(std::memory_order_acquire) == 0) {
            verify::spin_yield();
          }
          answer = cmd.result;
          cmd.arg = 0;  // the frame is reused
        },
        [&] {  // worker
          Command* c = nullptr;
          while (ring.pop_batch(&c, 1) == 0) verify::spin_yield();
          c->result = static_cast<std::uint64_t>(c->arg) * 2;
          c->done.store(1, kVariant == Handshake::kRelaxedDone
                               ? std::memory_order_relaxed
                               : std::memory_order_release);
          if constexpr (kVariant == Handshake::kReadAfterDone) {
            (void)static_cast<std::uint64_t>(c->arg);
          }
        },
    });
    verify::mc_check(answer == 14, "issuer must read the worker's result");
  });
}

}  // namespace

TEST(ModelCheckCommand, CompletionHandshakeExhaustive) {
  verify::Result r = explore_handshake<Handshake::kPristine>();
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

TEST(ModelCheckCommand, CompletionHandshakeRelaxedDoneIsFlagged) {
  verify::Result r = explore_handshake<Handshake::kRelaxedDone>();
  ASSERT_TRUE(r.failed)
      << "a relaxed completion store must be reported as a race on result";
  EXPECT_NE(r.report.find("DATA RACE"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("cmd.result"), std::string::npos) << r.report;
}

TEST(ModelCheckCommand, CompletionHandshakeReadAfterDoneIsFlagged) {
  verify::Result r = explore_handshake<Handshake::kReadAfterDone>();
  ASSERT_TRUE(r.failed)
      << "a worker touching the command after its release store must be "
         "reported as a race with the issuer's reuse";
  EXPECT_NE(r.report.find("DATA RACE"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("cmd.arg"), std::string::npos) << r.report;
}

namespace {

/// PipelineMonitor::on_all reduced to its memory protocol: one control
/// thread and two workers, each worker with its own command ring and its
/// own completion handshake.  The control thread posts both commands before
/// waiting on either -- so the workers run them concurrently -- and reads
/// each result only after that command's `done`.  The buggy twin waits on
/// worker 0 alone and then reads worker 1's result anyway.
///
/// Same preemption bound and execution cap as the two-thread drivers.  A
/// third thread multiplies every stale-read choice, so a load may return a
/// stale store at most once in a row here (stale_read_bound 1, not the
/// default 2): that keeps the whole tree (~470k executions) under the cap.
template <bool kBuggy>
verify::Result explore_fan_out() {
  verify::Options opts;
  opts.exhaustive = true;
  opts.preemption_bound = 2;
  opts.max_executions = 500000;
  opts.stale_read_bound = 1;
  return verify::explore(opts, [] {
    SpscRing<Command*> ring0(2);
    SpscRing<Command*> ring1(2);
    Command cmd0;
    Command cmd1;
    verify::label(&cmd0.done, "cmd0.done");
    verify::label(&cmd0.result, "cmd0.result");
    verify::label(&cmd1.done, "cmd1.done");
    verify::label(&cmd1.result, "cmd1.result");
    std::uint64_t answer0 = 0;
    std::uint64_t answer1 = 0;
    const auto worker = [](SpscRing<Command*>& ring) {
      Command* c = nullptr;
      while (ring.pop_batch(&c, 1) == 0) verify::spin_yield();
      c->result = static_cast<std::uint64_t>(c->arg) * 2;
      c->done.store(1, std::memory_order_release);
    };
    const auto wait = [](Command& c) {
      while (c.done.load(std::memory_order_acquire) == 0) verify::spin_yield();
    };
    verify::run_threads({
        [&] {  // control: post to every worker, then wait
          cmd0.arg = 7;
          cmd1.arg = 11;
          while (!ring0.try_push(&cmd0)) verify::spin_yield();
          while (!ring1.try_push(&cmd1)) verify::spin_yield();
          wait(cmd0);
          if (!kBuggy) wait(cmd1);
          answer0 = cmd0.result;
          answer1 = cmd1.result;
        },
        [&] { worker(ring0); },
        [&] { worker(ring1); },
    });
    verify::mc_check(answer0 == 14, "control must read worker 0's result");
    verify::mc_check(answer1 == 22, "control must read worker 1's result");
  });
}

}  // namespace

TEST(ModelCheckCommand, FanOutPostsAllBeforeWaitingExhaustive) {
  verify::Result r = explore_fan_out<false>();
  EXPECT_FALSE(r.failed) << r.report;
  EXPECT_TRUE(r.exhausted);
  EXPECT_EQ(r.pruned, 0u);
}

TEST(ModelCheckCommand, FanOutUnwaitedWorkerIsFlagged) {
  verify::Result r = explore_fan_out<true>();
  ASSERT_TRUE(r.failed)
      << "reading a result without waiting on its done must be a race";
  EXPECT_NE(r.report.find("DATA RACE"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("cmd1.result"), std::string::npos) << r.report;
}
