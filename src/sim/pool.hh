/**
 * @file
 * A persistent worker pool for the sharded engine's per-cycle
 * fan-out (see engine.hh).
 *
 * The engine dispatches one tiny task batch per cycle (the phase-1
 * shards), so the pool is built around cheap
 * epoch-based hand-off rather than a task queue: run() publishes a
 * batch (a plain function pointer + context, no allocation), bumps
 * an epoch under the wake mutex, and the calling thread *joins the
 * batch itself*, pulling task indices from a shared atomic cursor
 * alongside the workers. The release/acquire pairs on the cursor
 * and the completion counter give every task a happens-before edge
 * into the caller's return, which is the barrier the engine's
 * determinism argument leans on: everything a shard wrote in phase
 * k is visible to every reader of phase k+1.
 *
 * A worker that oversleeps an entire epoch (the caller finished the
 * batch alone) simply waits for the next one; a worker that wakes
 * into a fresh epoch pulls from the fresh cursor. The cursor and the
 * published task count both carry the batch number in their high
 * 32 bits, so a draw is honoured only against the batch it was
 * drawn from: a straggler whose fetch-add hit the previous batch's
 * exhausted cursor just as the next batch was published holds an
 * index from the old numbering, and must not run the new batch's
 * task of that index (another thread draws it from the fresh
 * cursor — a shard ticked twice pushes its lanes twice). Task
 * indices are therefore handed out exactly once per batch: a
 * straggler can join a batch late but can never duplicate or lose a
 * task.
 */

#ifndef METRO_SIM_POOL_HH
#define METRO_SIM_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace metro
{

/** Runs batches of indexed tasks across N persistent workers plus
 *  the calling thread. Not reentrant: one batch at a time. */
class TickPool
{
  public:
    /** A batch task: called once per index in [0, n). */
    using TaskFn = void (*)(void *ctx, unsigned index);

    TickPool() = default;
    ~TickPool() { resize(0); }

    TickPool(const TickPool &) = delete;
    TickPool &operator=(const TickPool &) = delete;

    /** Number of resident workers (excluding the caller). */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Set the resident worker count (0 tears the pool down).
     *  Rare (engine thread-count changes); rebuilds the pool. */
    void
    resize(unsigned workers)
    {
        if (workers == threads_.size())
            return;
        if (!threads_.empty()) {
            {
                std::lock_guard<std::mutex> lk(m_);
                stop_ = true;
            }
            cv_.notify_all();
            for (auto &t : threads_)
                t.join();
            threads_.clear();
            stop_ = false;
        }
        for (unsigned i = 0; i < workers; ++i)
            threads_.emplace_back([this] { workerLoop(); });
    }

    /**
     * Run fn(ctx, i) for every i in [0, n), distributing across the
     * workers and the calling thread; returns once all n tasks have
     * completed (the barrier). With no workers, runs inline.
     */
    void
    run(unsigned n, TaskFn fn, void *ctx)
    {
        if (n == 0)
            return;
        if (threads_.empty() || n == 1) {
            for (unsigned i = 0; i < n; ++i)
                fn(ctx, i);
            return;
        }
        // Publish order matters for stragglers still parked on the
        // previous batch's exhausted cursor: done/fn/ctx first, the
        // tagged task count next, and only then the cursor reset
        // that lets anyone pull — the acquire on the cursor RMW
        // makes the rest visible.
        const std::uint64_t tag = std::uint64_t{++batch_} << 32;
        done_.store(0, std::memory_order_relaxed);
        fn_.store(fn, std::memory_order_relaxed);
        ctx_.store(ctx, std::memory_order_relaxed);
        nTasks_.store(tag | n, std::memory_order_release);
        next_.store(tag, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lk(m_);
            ++epoch_;
        }
        cv_.notify_all();
        pullTasks();
        if (done_.load(std::memory_order_acquire) != n) {
            std::unique_lock<std::mutex> lk(doneM_);
            doneCv_.wait(lk, [&] {
                return done_.load(std::memory_order_acquire) == n;
            });
        }
    }

  private:
    void
    pullTasks()
    {
        for (;;) {
            const std::uint64_t draw =
                next_.fetch_add(1, std::memory_order_acq_rel);
            // Honour the draw only against the batch it came from: a
            // straggler's fetch-add on the previous batch's cursor
            // may race a fresh publish, and its index then names a
            // task of the old numbering (see the file comment).
            const std::uint64_t count =
                nTasks_.load(std::memory_order_acquire);
            const auto i = static_cast<unsigned>(draw);
            const auto n = static_cast<unsigned>(count);
            if ((draw >> 32) != (count >> 32) || i >= n)
                return;
            fn_.load(std::memory_order_relaxed)(
                ctx_.load(std::memory_order_relaxed), i);
            if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                n) {
                std::lock_guard<std::mutex> lk(doneM_);
                doneCv_.notify_all();
            }
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(m_);
                cv_.wait(lk,
                         [&] { return stop_ || epoch_ > seen; });
                if (stop_)
                    return;
                seen = epoch_;
            }
            pullTasks();
        }
    }

    std::vector<std::thread> threads_;

    /** Epoch hand-off (guarded by m_). @{ */
    std::mutex m_;
    std::condition_variable cv_;
    std::uint64_t epoch_ = 0;
    bool stop_ = false;
    /** @} */

    /** The published batch. nTasks_ and next_ hold the batch
     *  number (batch_) in their high 32 bits above the task count
     *  and the cursor. @{ */
    std::atomic<TaskFn> fn_{nullptr};
    std::atomic<void *> ctx_{nullptr};
    std::atomic<std::uint64_t> nTasks_{0};
    std::atomic<std::uint64_t> next_{0};
    std::atomic<unsigned> done_{0};
    std::uint32_t batch_ = 0; ///< caller-only: batches published
    /** @} */

    /** Completion signalling back to the caller. @{ */
    std::mutex doneM_;
    std::condition_variable doneCv_;
    /** @} */
};

} // namespace metro

#endif // METRO_SIM_POOL_HH
