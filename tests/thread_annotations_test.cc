// The annotation layer must be free: under any compiler the wrappers add
// no state over the std primitives they forward to, and under non-Clang
// compilers the annotation macros must expand to *nothing* — not even a
// token — so a GCC release build of annotated headers is byte-for-byte the
// unannotated program. The functional cases then prove the wrappers behave
// like the primitives they replace (lock exclusion, condition-variable
// handoff), so migrating a subsystem onto them is purely a static-analysis
// change.

#include "tglink/util/thread_annotations.h"

#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace tglink {
namespace {

// --- zero-cost: no size overhead over the std primitives -------------------

static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex must add no state over std::mutex");
static_assert(sizeof(MutexLock) == sizeof(Mutex*),
              "MutexLock must hold exactly the mutex reference");

// --- zero-cost: macros vanish entirely on non-Clang compilers --------------

#ifndef __clang__
#define TGLINK_TA_STR_INNER(x) #x
#define TGLINK_TA_STR(x) TGLINK_TA_STR_INNER(x)
// Stringizing an empty expansion yields "", i.e. a 1-byte literal. Any
// leftover token — an attribute, a keyword, even a stray space-producing
// macro — would grow the literal and fail the assert.
static_assert(sizeof(TGLINK_TA_STR(TGLINK_GUARDED_BY(mu))) == 1,
              "TGLINK_GUARDED_BY must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_PT_GUARDED_BY(mu))) == 1,
              "TGLINK_PT_GUARDED_BY must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_REQUIRES(mu))) == 1,
              "TGLINK_REQUIRES must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_REQUIRES_SHARED(mu))) == 1,
              "TGLINK_REQUIRES_SHARED must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_ACQUIRE(mu))) == 1,
              "TGLINK_ACQUIRE must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_ACQUIRE_SHARED(mu))) == 1,
              "TGLINK_ACQUIRE_SHARED must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_RELEASE(mu))) == 1,
              "TGLINK_RELEASE must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_RELEASE_SHARED(mu))) == 1,
              "TGLINK_RELEASE_SHARED must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_TRY_ACQUIRE(true, mu))) == 1,
              "TGLINK_TRY_ACQUIRE must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_EXCLUDES(mu))) == 1,
              "TGLINK_EXCLUDES must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_CAPABILITY("mutex"))) == 1,
              "TGLINK_CAPABILITY must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_SCOPED_CAPABILITY)) == 1,
              "TGLINK_SCOPED_CAPABILITY must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_RETURN_CAPABILITY(mu))) == 1,
              "TGLINK_RETURN_CAPABILITY must expand to nothing under GCC");
static_assert(sizeof(TGLINK_TA_STR(TGLINK_NO_THREAD_SAFETY_ANALYSIS)) == 1,
              "TGLINK_NO_THREAD_SAFETY_ANALYSIS must expand to nothing");
#undef TGLINK_TA_STR
#undef TGLINK_TA_STR_INNER
#endif  // !__clang__

// --- functional: the wrappers behave like the primitives -------------------

TEST(ThreadAnnotationsTest, MutexLockExcludesConcurrentWriters) {
  Mutex mu;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIterations = 25000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIterations; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<int64_t>(kThreads) * kIterations);
}

TEST(ThreadAnnotationsTest, TryLockReportsContention) {
  Mutex mu;
  mu.Lock();
  EXPECT_FALSE(mu.TryLock());
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(ThreadAnnotationsTest, CondVarHandsOffUnderMutex) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool consumed = false;
  std::thread consumer([&] {
    mu.Lock();
    while (!ready) cv.Wait(mu);
    consumed = true;
    mu.Unlock();
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyAll();
  {
    mu.Lock();
    while (!consumed) cv.Wait(mu);
    mu.Unlock();
  }
  consumer.join();
  EXPECT_TRUE(consumed);
}

}  // namespace
}  // namespace tglink
