/**
 * @file
 * The serving half of qmad, split transport-free / transport-bound:
 *
 *  - ServiceCore: a bounded admission queue feeding one dispatcher
 *    thread.  The dispatcher pulls the head request plus every queued
 *    request against the same object (up to a batch cap) and runs the
 *    batch as TaskGroup tasks on the global exec pool — the object is
 *    acquired once, the pool is shared, and each request's randomness
 *    comes only from its own (seed, request id) stream family, so a
 *    batched run is byte-identical to the same request served alone.
 *    A full queue rejects with QueueFull (typed backpressure, never a
 *    silent drop); drain() stops admission and completes everything
 *    already accepted.
 *
 *  - Server: the unix-socket front end.  One accept loop, one thread
 *    per connection; each connection gets a Hello capabilities frame,
 *    then pipelines Requests and receives Results/Errors in
 *    completion order.  Writes to a connection are serialized by a
 *    per-connection mutex because completions arrive from the
 *    dispatcher thread.
 *
 * Both qmad and the in-process tests drive these classes directly;
 * the daemon binary only adds flag parsing and signal handling.
 */

#ifndef QAC_SERVICE_SERVER_H
#define QAC_SERVICE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "qac/service/object_store.h"
#include "qac/service/request.h"
#include "qac/service/wire.h"

namespace qac::service {

struct CoreOptions
{
    /** Admission-queue bound; submits beyond it get QueueFull. */
    size_t queue_depth = 256;
    /** Max requests coalesced into one same-object batch. */
    size_t max_batch = 16;
    /** Server-side cap on per-request threads (0 = honor request). */
    uint32_t threads = 0;
    /**
     * Start the dispatcher in the constructor.  Tests set false and
     * call start() later to observe queue states deterministically.
     */
    bool autostart = true;
};

class ServiceCore
{
  public:
    /**
     * Completion callback: exactly one invocation per *accepted*
     * request, from the dispatcher thread.  On Ok @p result is
     * non-null; otherwise @p message explains the typed failure.
     */
    using Callback = std::function<void(
        ErrorCode code, const SampleResult *result,
        const std::string &message)>;

    ServiceCore(ObjectStore &store, CoreOptions opts);
    ~ServiceCore();

    ServiceCore(const ServiceCore &) = delete;
    ServiceCore &operator=(const ServiceCore &) = delete;

    /**
     * Admit a request.  Returns Ok and retains @p cb (to be called
     * exactly once), or rejects synchronously — QueueFull, Draining,
     * UnknownSolver, UnknownObject — in which case @p cb is NOT
     * retained and never called.
     */
    ErrorCode submit(SampleRequest req, Callback cb);

    /** Start the dispatcher (no-op when already running). */
    void start();

    /**
     * Graceful shutdown: reject new submits with Draining, complete
     * every accepted request, then stop the dispatcher.  Blocks until
     * all callbacks have run.  Idempotent.
     */
    void drain();

    bool draining() const;
    size_t queued() const;

    /** Dispatch groups executed (a lone request counts as one). */
    uint64_t batches() const;
    /** Requests that shared their batch with at least one other. */
    uint64_t batchedRequests() const;
    uint64_t completed() const;

    const CoreOptions &options() const { return opts_; }

  private:
    struct Pending
    {
        SampleRequest req;
        Callback cb;
    };

    void dispatchLoop();
    void runBatch(std::vector<Pending> &batch);

    ObjectStore &store_;
    CoreOptions opts_;

    mutable std::mutex mu_;
    std::condition_variable cv_;      ///< wakes the dispatcher
    std::condition_variable idle_cv_; ///< wakes drain()
    std::deque<Pending> queue_;
    size_t in_flight_ = 0;
    bool draining_ = false;
    bool stop_ = false;
    bool started_ = false;
    uint64_t batches_ = 0;
    uint64_t batched_requests_ = 0;
    uint64_t completed_ = 0;
    std::thread dispatcher_;
};

struct ServerOptions
{
    std::string socket_path;
    StoreOptions store;
    CoreOptions core;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    ObjectStore &store() { return store_; }
    ServiceCore &core() { return core_; }
    const std::string &socketPath() const
    {
        return opts_.socket_path;
    }

    /** Bind + listen + start the accept loop.  False on error. */
    bool listen(std::string *error = nullptr);

    /**
     * Graceful shutdown: stop accepting, drain the core (completing
     * every accepted request and flushing its reply), then close all
     * connections and join.  Idempotent; also run by the destructor.
     */
    void drain();

    uint64_t connectionsAccepted() const
    {
        return accepted_.load();
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::mutex write_mu; ///< one reply frame at a time
        std::mutex pending_mu;
        std::condition_variable pending_cv;
        size_t pending = 0; ///< accepted requests not yet replied
    };

    void acceptLoop();
    void serveConnection(std::shared_ptr<Conn> conn);
    Hello helloFrame() const;

    ServerOptions opts_;
    ObjectStore store_;
    ServiceCore core_;

    int listen_fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::thread accept_thread_;
    bool listening_ = false;
    std::atomic<bool> draining_{false};
    std::atomic<uint64_t> accepted_{0};

    std::mutex conns_mu_;
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<std::thread> conn_threads_;
};

} // namespace qac::service

#endif // QAC_SERVICE_SERVER_H
