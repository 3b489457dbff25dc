/**
 * @file
 * Deterministic parallel execution layer.
 *
 * Every embarrassingly parallel loop in QAC — independent anneal reads,
 * qbsolv restarts, exact-solver enumeration shards — runs through this
 * scheduler.  The contract is *bitwise determinism*: results must be
 * identical regardless of thread count.  The layer supplies the
 * mechanics that make that tractable:
 *
 *  - parallelFor(count, threads, fn): dynamic (work-stealing-style)
 *    index distribution over a fixed global pool.  Callers write
 *    results into per-index slots and reduce in index order, so the
 *    schedule cannot leak into the output.
 *  - TaskGroup: futures-style fork/join for irregular task sets.
 *
 * Threads knobs across QAC share one convention: 0 = hardware
 * concurrency, N = exactly N logical workers.  Thread-count changes
 * only scheduling; per-task RNG streams are derived counter-style from
 * the user seed (Rng::streamAt), never from shared generator state.
 *
 * Observability: when the qac::stats registry is enabled the layer
 * records exec.tasks (indices executed), exec.steal (indices executed
 * by pool workers rather than the submitting thread), and per-drive
 * busy time under exec.worker_time.
 */

#ifndef QAC_EXEC_EXEC_H
#define QAC_EXEC_EXEC_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qac::exec {

/** Number of hardware threads (always >= 1). */
size_t hardwareConcurrency();

/** Resolve a threads knob: 0 = hardware concurrency, N = N. */
size_t resolveThreads(uint32_t threads);

/**
 * Fixed pool of detached workers feeding a shared queue.  parallelFor
 * and TaskGroup borrow workers from here; the submitting thread always
 * participates too, so a pool is never required for forward progress.
 */
class ThreadPool
{
  public:
    /**
     * The process-wide pool.  Sized so that explicit --threads requests
     * up to 8 gain real concurrency even on small machines (important
     * for the determinism and TSan test suites, which exercise
     * threads=8 schedules regardless of the host's core count).
     */
    static ThreadPool &global();

    explicit ThreadPool(size_t num_threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    size_t size() const { return workers_.size(); }

    /** Enqueue @p fn for execution on some worker. */
    void submit(std::function<void()> fn);

    /** True when called from inside a pool worker (nesting guard). */
    static bool onWorkerThread();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Run fn(i) for every i in [0, count) on up to @p threads workers
 * (0 = hardware concurrency).  Indices are handed out dynamically, so
 * callers MUST write results into per-index slots (or reduce through
 * an order-insensitive merge) to keep outputs deterministic.
 *
 * Exceptions: every index still runs; afterwards the exception thrown
 * by the lowest faulting index is rethrown (sequential semantics).
 * Nested calls from inside a pool worker degrade to an inline loop.
 */
void parallelFor(size_t count, uint32_t threads,
                 const std::function<void(size_t)> &fn);

/**
 * Futures-style fork/join over the global pool.  spawn() may run the
 * task asynchronously (or inline when called from a pool worker);
 * wait() joins everything and rethrows the exception of the
 * earliest-spawned failing task.
 */
class TaskGroup
{
  public:
    TaskGroup() = default;
    ~TaskGroup();
    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    void spawn(std::function<void()> fn);
    void wait();

  private:
    struct State
    {
        std::mutex mu;
        std::condition_variable cv;
        size_t active = 0;
        size_t err_order = SIZE_MAX;
        std::exception_ptr err;
    };
    State state_;
    size_t spawned_ = 0;
};

} // namespace qac::exec

#endif // QAC_EXEC_EXEC_H
