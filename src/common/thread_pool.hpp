// Fixed-size worker pool with a parallel_for helper.
//
// The IR-container pipeline compiles thousands of translation units per
// configuration family (§6.4); we parallelize compilation and hashing
// across cores exactly as a production build tool would.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace xaas::common {

class ThreadPool {
public:
  /// `threads == 0` selects the hardware concurrency. The workers start
  /// with the first submitted task, so a pool that only ever runs inline
  /// (or is never used, like the deploy pools of a gateway that serves
  /// synchronously) starts no thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_; }

  /// Enqueue an arbitrary task.
  std::future<void> submit(std::function<void()> task);

  /// Run fn(i) for i in [0, n) across the pool and wait for completion.
  /// Work is divided into contiguous chunks for cache friendliness;
  /// `grain` is the minimum indices per chunk, so cheap per-index bodies
  /// are not drowned in task-dispatch overhead. Small ranges (and any
  /// range on a single-worker pool) run inline on the calling thread with
  /// no queue round-trip at all.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Chunk-granular variant: fn(begin, end) per contiguous chunk, letting
  /// callers hoist per-chunk state out of the index loop.
  void parallel_for_chunks(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t grain = 1);

private:
  void worker_loop();

  std::size_t threads_;
  std::once_flag started_;
  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace xaas::common
