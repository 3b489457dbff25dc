#include "qac/exec/exec.h"

#include <algorithm>
#include <atomic>

#include "qac/stats/registry.h"
#include "qac/stats/trace.h"

namespace qac::exec {

namespace {

thread_local bool t_on_worker = false;

} // namespace

size_t
hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

size_t
resolveThreads(uint32_t threads)
{
    return threads == 0 ? hardwareConcurrency() : threads;
}

ThreadPool &
ThreadPool::global()
{
    // At least 7 workers (submitter makes 8) so --threads 8 schedules
    // are genuinely concurrent even on single-core CI machines; on big
    // machines, one worker per extra core.
    static ThreadPool pool(
        std::max<size_t>(hardwareConcurrency() - 1, 7));
    return pool;
}

ThreadPool::ThreadPool(size_t num_threads)
{
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    stats::gauge("exec.pool.threads", num_threads);
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

bool
ThreadPool::onWorkerThread()
{
    return t_on_worker;
}

void
ThreadPool::workerLoop()
{
    t_on_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (stop_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

namespace {

/** Shared state of one parallelFor invocation. */
struct ForState
{
    std::atomic<size_t> next{0};
    std::mutex err_mu;
    size_t err_index = SIZE_MAX;
    std::exception_ptr err;

    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t active = 0;
};

/** Pull indices until exhausted; returns how many this thread ran. */
uint64_t
drive(ForState &st, size_t count, const std::function<void(size_t)> &fn)
{
    const uint64_t t0 = stats::Trace::nowNs();
    uint64_t ran = 0;
    for (;;) {
        size_t i = st.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            break;
        try {
            fn(i);
        } catch (...) {
            // Keep running the remaining indices (a sequential loop
            // would never reach them, but skipping here would make the
            // *set of completed work* schedule-dependent); report the
            // lowest faulting index, which IS the sequential error.
            std::lock_guard<std::mutex> lock(st.err_mu);
            if (i < st.err_index) {
                st.err_index = i;
                st.err = std::current_exception();
            }
        }
        ++ran;
    }
    if (ran > 0 && stats::Registry::global().enabled())
        stats::Registry::global().timer("exec.worker_time").addNs(
            stats::Trace::nowNs() - t0);
    return ran;
}

} // namespace

void
parallelFor(size_t count, uint32_t threads,
            const std::function<void(size_t)> &fn)
{
    if (count == 0)
        return;
    const size_t want = std::min(resolveThreads(threads), count);
    if (want <= 1 || ThreadPool::onWorkerThread()) {
        // Sequential (or nested-parallel) fallback runs inline with
        // the same semantics: every index runs, the lowest faulting
        // index's exception is rethrown.
        ForState st;
        drive(st, count, fn);
        stats::count("exec.tasks", count);
        if (st.err)
            std::rethrow_exception(st.err);
        return;
    }

    ThreadPool &pool = ThreadPool::global();
    const size_t helpers = std::min(want - 1, pool.size());
    ForState st;
    st.active = helpers;

    std::atomic<uint64_t> stolen{0};
    const bool tracing = stats::Trace::global().enabled();
    for (size_t h = 0; h < helpers; ++h) {
        // Flow arrow from the enqueuing span to the helper's worker
        // slice, so Perfetto shows which call fanned each task out.
        uint64_t flow = 0;
        if (tracing) {
            flow = stats::Trace::newFlowId();
            stats::Trace::global().flowBegin("exec.parallel_for", flow);
        }
        pool.submit([&st, &stolen, count, &fn, flow] {
            const uint64_t t0 = stats::Trace::nowNs();
            uint64_t ran = drive(st, count, fn);
            stolen.fetch_add(ran, std::memory_order_relaxed);
            if (flow != 0) {
                stats::Trace::global().complete(
                    "exec.worker", t0, stats::Trace::nowNs() - t0);
                stats::Trace::global().flowEnd("exec.parallel_for",
                                               flow);
            }
            std::lock_guard<std::mutex> lock(st.done_mu);
            --st.active;
            st.done_cv.notify_one();
        });
    }

    drive(st, count, fn); // the caller works too

    {
        std::unique_lock<std::mutex> lock(st.done_mu);
        st.done_cv.wait(lock, [&st] { return st.active == 0; });
    }

    stats::count("exec.tasks", count);
    stats::count("exec.steal", stolen.load(std::memory_order_relaxed));
    if (st.err)
        std::rethrow_exception(st.err);
}

TaskGroup::~TaskGroup()
{
    // Tasks reference this group's state: never destroy while active.
    std::unique_lock<std::mutex> lock(state_.mu);
    state_.cv.wait(lock, [this] { return state_.active == 0; });
}

void
TaskGroup::spawn(std::function<void()> fn)
{
    const size_t order = spawned_++;
    auto record_err = [this, order](std::exception_ptr e) {
        if (order < state_.err_order) {
            state_.err_order = order;
            state_.err = e;
        }
    };

    if (ThreadPool::onWorkerThread()) {
        // Nested: run inline to keep the pool deadlock-free.
        try {
            fn();
        } catch (...) {
            std::lock_guard<std::mutex> lock(state_.mu);
            record_err(std::current_exception());
        }
        stats::count("exec.tasks");
        return;
    }

    {
        std::lock_guard<std::mutex> lock(state_.mu);
        ++state_.active;
    }
    uint64_t flow = 0;
    if (stats::Trace::global().enabled()) {
        flow = stats::Trace::newFlowId();
        stats::Trace::global().flowBegin("exec.spawn", flow);
    }
    ThreadPool::global().submit([this, fn = std::move(fn), record_err,
                                 flow] {
        const uint64_t t0 = stats::Trace::nowNs();
        std::exception_ptr err;
        try {
            fn();
        } catch (...) {
            err = std::current_exception();
        }
        if (flow != 0) {
            stats::Trace::global().complete(
                "exec.task", t0, stats::Trace::nowNs() - t0);
            stats::Trace::global().flowEnd("exec.spawn", flow);
        }
        std::lock_guard<std::mutex> lock(state_.mu);
        if (err)
            record_err(err);
        --state_.active;
        state_.cv.notify_all();
    });
    stats::count("exec.tasks");
    stats::count("exec.steal");
}

void
TaskGroup::wait()
{
    std::unique_lock<std::mutex> lock(state_.mu);
    state_.cv.wait(lock, [this] { return state_.active == 0; });
    if (state_.err) {
        std::exception_ptr err = state_.err;
        state_.err = nullptr;
        state_.err_order = SIZE_MAX;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

} // namespace qac::exec
