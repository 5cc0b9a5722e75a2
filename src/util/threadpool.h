// Minimal persistent worker pool for the sharded parallel executor.
//
// One pool per Engine, created lazily on the first parallel fixpoint Run().
// `Run(n, task)` executes task(index, thread) for every index in [0, n),
// spreading indexes across the pool's worker threads *and* the calling
// thread via an atomic claim counter, then returns once all n indexes have
// completed (a full barrier). `thread` identifies the executing lane
// (0 = the caller, 1..threads-1 = pool workers) so callers can hand each
// lane its own scratch state without locking.
//
// The pool itself is deliberately dumb: no futures, no task queue, no
// stealing. The engine's wave structure (run shards to quiescence, commit
// effects in wave seq order) provides all the ordering; the pool only
// provides the parallelism and the barrier.
#ifndef PROVNET_UTIL_THREADPOOL_H_
#define PROVNET_UTIL_THREADPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace provnet {

class ThreadPool {
 public:
  // `threads` counts the calling thread: ThreadPool(4) spawns 3 workers.
  // Values < 1 are clamped to 1 (no workers; Run degenerates to a loop).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t threads() const { return threads_; }

  // Runs task(index, thread) for every index in [0, n); returns after all
  // have completed. Indexes are claimed dynamically (load-balanced); the
  // mapping of index to thread is therefore NOT deterministic — callers
  // must not bake ordering assumptions into it. Not reentrant.
  void Run(size_t n, const std::function<void(size_t, size_t)>& task);

 private:
  void WorkerLoop(size_t thread_index);

  size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(size_t, size_t)>* task_ = nullptr;  // guarded by mu_
  size_t task_count_ = 0;                                      // guarded by mu_
  std::atomic<size_t> next_{0};
  size_t active_ = 0;        // workers still inside the current batch
  uint64_t generation_ = 0;  // bumped per Run() to wake workers exactly once
  bool stop_ = false;
};

}  // namespace provnet

#endif  // PROVNET_UTIL_THREADPOOL_H_
