#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace xaas::common {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::call_once(started_, [this] {
    workers_.reserve(threads_);
    for (std::size_t i = 0; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  });
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain) {
  parallel_for_chunks(
      n,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      grain);
}

void ThreadPool::parallel_for_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t chunks = std::min(max_chunks, threads_ * 4);
  if (chunks <= 1 || threads_ <= 1) {
    fn(0, n);  // inline: no queue round-trip, no future allocation
    return;
  }
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t begin = c * chunk_size;
    const std::size_t end = std::min(n, begin + chunk_size);
    if (begin >= end) break;
    futures.push_back(submit([begin, end, &fn] { fn(begin, end); }));
  }
  // The first chunk runs on the calling thread while workers drain the
  // rest. Every future is drained before any exception propagates —
  // queued tasks reference `fn`, which dies when this frame unwinds.
  std::exception_ptr first_error;
  try {
    fn(0, std::min(n, chunk_size));
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace xaas::common
