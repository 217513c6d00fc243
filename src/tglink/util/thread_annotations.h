// Clang Thread Safety Annotations and capability-annotated lock wrappers.
//
// Every piece of mutable shared state in the library declares its lock
// discipline with these macros, and every mutex in library code is one of
// the wrappers below — the tglink_lint `raw-mutex` rule bans std::mutex /
// std::shared_mutex / std::lock_guard spelled raw outside this header, so
// the discipline is total: there is no unannotated lock to hide behind.
//
// Under Clang with -Wthread-safety (the `analyze` CMake preset promotes it
// to -Werror=thread-safety-analysis) a forgotten lock, a read of a
// TGLINK_GUARDED_BY member outside its mutex, or an unbalanced
// Lock()/Unlock() pair is a compile error. Under GCC (and any compiler
// without the attributes) every macro expands to nothing and the wrappers
// compile down to the plain standard-library primitives:
// sizeof(Mutex) == sizeof(std::mutex), all methods are inline one-liners —
// thread_annotations_test pins both properties.
//
// Conventions (see DESIGN.md §11):
//   - Data members:   int count_ TGLINK_GUARDED_BY(mu_);
//   - Internal helpers that assume the lock:  void F() TGLINK_REQUIRES(mu_);
//   - Public entry points that take the lock: void G() TGLINK_EXCLUDES(mu_);
//   - Scoped locking is the default (MutexLock); manual Lock()/Unlock() is
//     reserved for the thread pool's worker loop, where the lock is dropped
//     around user code.
//
// The macro set mirrors Abseil's (capability model, not the older
// lockable model) so the names read the same as in upstream documentation:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#ifndef TGLINK_UTIL_THREAD_ANNOTATIONS_H_
#define TGLINK_UTIL_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(x)  // expands to nothing
#endif

/// Marks a type as a capability ("mutex"-like); lock functions name it.
#define TGLINK_CAPABILITY(x) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define TGLINK_SCOPED_CAPABILITY \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Data member readable/writable only while holding the named capability
/// (shared hold suffices for reads, exclusive for writes).
#define TGLINK_GUARDED_BY(x) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the named capability.
#define TGLINK_PT_GUARDED_BY(x) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// The function may only be called while holding the capability exclusively.
#define TGLINK_REQUIRES(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

/// The function may only be called while holding the capability (shared).
#define TGLINK_REQUIRES_SHARED(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability exclusively and does not release it.
#define TGLINK_ACQUIRE(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

/// The function acquires the capability shared and does not release it.
#define TGLINK_ACQUIRE_SHARED(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

/// The function releases the (exclusive or scoped) capability.
#define TGLINK_RELEASE(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

/// The function releases the shared capability.
#define TGLINK_RELEASE_SHARED(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// The function tries to acquire; first argument is the success value.
#define TGLINK_TRY_ACQUIRE(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (deadlock / re-entrancy guard).
#define TGLINK_EXCLUDES(...) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// The function returns a reference to the named capability.
#define TGLINK_RETURN_CAPABILITY(x) \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Escape hatch: the function is deliberately outside the analysis. Every
/// use must carry a comment justifying why the analysis cannot see it.
#define TGLINK_NO_THREAD_SAFETY_ANALYSIS \
  TGLINK_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

namespace tglink {

class CondVar;

/// std::mutex with the "mutex" capability. Zero-cost: no extra state, all
/// methods inline forwards (thread_annotations_test pins the sizeof).
class TGLINK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() TGLINK_ACQUIRE() { mu_.lock(); }
  void Unlock() TGLINK_RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool TryLock() TGLINK_TRY_ACQUIRE(true) {
    return mu_.try_lock();
  }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// Scoped exclusive hold of a Mutex — the default way to lock.
class TGLINK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) TGLINK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() TGLINK_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait atomically releases the held
/// Mutex and reacquires it before returning, exactly like
/// std::condition_variable on std::unique_lock — the adopt/release dance
/// below reuses the caller's hold instead of a second ownership wrapper,
/// so the capability stays held across the call from the analysis's (and
/// the caller's) point of view.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. The caller must hold `mu`; it is released for
  /// the duration of the block and reacquired before returning. Callers
  /// loop over their predicate as with any condition variable.
  void Wait(Mutex& mu) TGLINK_REQUIRES(mu) {
    // The one sanctioned bridge to the std wait protocol: adopt the
    // caller's hold, hand it to the wait, then release ownership back.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Wait, but give up after `timeout`. Returns true when notified, false
  /// on timeout; either way the Mutex is reacquired before returning.
  /// Subject to spurious wakeups like Wait — callers loop on a predicate
  /// (or, for periodic work like the obs heartbeat, on a deadline).
  bool WaitFor(Mutex& mu, std::chrono::nanoseconds timeout)
      TGLINK_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const bool notified =
        cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
    lock.release();
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // tglink-lint: disable=raw-mutex
};

}  // namespace tglink

#endif  // TGLINK_UTIL_THREAD_ANNOTATIONS_H_
