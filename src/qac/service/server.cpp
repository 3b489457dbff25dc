#include "qac/service/server.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "qac/anneal/sampler.h"
#include "qac/core/program.h"
#include "qac/exec/exec.h"
#include "qac/stats/registry.h"
#include "qac/util/logging.h"

namespace qac::service {

// ------------------------------------------------------- ServiceCore

ServiceCore::ServiceCore(ObjectStore &store, CoreOptions opts)
    : store_(store), opts_(opts)
{
    if (opts_.queue_depth == 0)
        opts_.queue_depth = 1;
    if (opts_.max_batch == 0)
        opts_.max_batch = 1;
    if (opts_.autostart)
        start();
}

ServiceCore::~ServiceCore()
{
    // Unconditional stop: abandon anything still queued (the
    // destructor owes each accepted request its one callback).
    std::deque<Pending> orphans;
    {
        std::unique_lock<std::mutex> lock(mu_);
        draining_ = true;
        stop_ = true;
        cv_.notify_all();
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
    {
        std::unique_lock<std::mutex> lock(mu_);
        orphans.swap(queue_);
    }
    for (auto &p : orphans)
        p.cb(ErrorCode::Draining, nullptr, "service shut down");
}

void
ServiceCore::start()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (started_)
        return;
    started_ = true;
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

ErrorCode
ServiceCore::submit(SampleRequest req, Callback cb)
{
    // Validate before queueing: a bad name or digest fails fast while
    // the client still has context, not minutes later in a batch.
    if (!anneal::hasSampler(req.solver))
        return ErrorCode::UnknownSolver;
    if (!store_.knows(req.object_digest))
        return ErrorCode::UnknownObject;
    if (opts_.threads != 0 &&
        (req.common.threads == 0 ||
         req.common.threads > opts_.threads))
        req.common.threads = opts_.threads;
    std::unique_lock<std::mutex> lock(mu_);
    if (draining_)
        return ErrorCode::Draining;
    if (queue_.size() >= opts_.queue_depth) {
        stats::count("service.rejected.queue_full");
        return ErrorCode::QueueFull;
    }
    queue_.push_back(Pending{std::move(req), std::move(cb)});
    stats::count("service.submitted");
    cv_.notify_one();
    return ErrorCode::Ok;
}

void
ServiceCore::dispatchLoop()
{
    for (;;) {
        std::vector<Pending> batch;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (stop_)
                return; // leftovers become the destructor's orphans
            batch.push_back(std::move(queue_.front()));
            queue_.pop_front();
            // Coalesce queued requests against the same object: one
            // acquire, one pass over the pool.  (By value: growing
            // `batch` reallocates, so a reference would dangle.)
            const std::string digest =
                batch.front().req.object_digest;
            for (auto it = queue_.begin();
                 it != queue_.end() && batch.size() < opts_.max_batch;)
            {
                if (it->req.object_digest == digest) {
                    batch.push_back(std::move(*it));
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
            in_flight_ = batch.size();
        }
        runBatch(batch);
        {
            std::unique_lock<std::mutex> lock(mu_);
            in_flight_ = 0;
            batches_ += 1;
            if (batch.size() > 1)
                batched_requests_ += batch.size();
            completed_ += batch.size();
            idle_cv_.notify_all();
        }
    }
}

void
ServiceCore::runBatch(std::vector<Pending> &batch)
{
    stats::count("service.batches");
    stats::record("service.batch_size",
                  static_cast<double>(batch.size()));

    ErrorCode code = ErrorCode::Ok;
    std::string error;
    auto exe =
        store_.acquire(batch.front().req.object_digest, &code, &error);
    if (!exe) {
        for (auto &p : batch)
            p.cb(code, nullptr, error);
        return;
    }

    struct Slot
    {
        ErrorCode code = ErrorCode::Ok;
        SampleResult result;
        std::string message;
    };
    std::vector<Slot> slots(batch.size());
    auto runOne = [&](size_t i) {
        stats::ScopedTimer t("service.request_time");
        try {
            slots[i].result = runLocal(*exe, batch[i].req);
        } catch (const FatalError &e) {
            slots[i].code = ErrorCode::BadRequest;
            slots[i].message = e.what();
        } catch (const std::exception &e) {
            slots[i].code = ErrorCode::Internal;
            slots[i].message = e.what();
        }
    };
    if (batch.size() == 1) {
        runOne(0);
    } else {
        // Shared-pool batching: each request is one TaskGroup task;
        // its inner parallelFor degrades to an inline loop on a pool
        // worker (exec.h), so the batch divides the pool without
        // oversubscribing it — and without touching result bytes.
        exec::TaskGroup group;
        for (size_t i = 0; i < batch.size(); ++i)
            group.spawn([&runOne, i] { runOne(i); });
        group.wait();
    }
    // Replies in admission order, from this one thread.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (slots[i].code == ErrorCode::Ok)
            batch[i].cb(ErrorCode::Ok, &slots[i].result, "");
        else
            batch[i].cb(slots[i].code, nullptr, slots[i].message);
    }
}

void
ServiceCore::drain()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        draining_ = true;
        if (!started_)
            return;
        idle_cv_.wait(lock, [this] {
            return queue_.empty() && in_flight_ == 0;
        });
        if (stop_)
            return; // another drain already stopped the dispatcher
        stop_ = true;
        cv_.notify_all();
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
}

bool
ServiceCore::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

size_t
ServiceCore::queued() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
}

uint64_t
ServiceCore::batches() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return batches_;
}

uint64_t
ServiceCore::batchedRequests() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return batched_requests_;
}

uint64_t
ServiceCore::completed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return completed_;
}

// ------------------------------------------------------------ Server

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), store_(opts_.store),
      core_(store_, opts_.core)
{}

Server::~Server()
{
    drain();
}

Hello
Server::helloFrame() const
{
    Hello hello;
    hello.server = "qmad";
    hello.solvers = anneal::samplerNames();
    hello.objects = store_.list();
    hello.queue_depth =
        static_cast<uint32_t>(core_.options().queue_depth);
    hello.max_loaded = static_cast<uint32_t>(opts_.store.max_loaded);
    return hello;
}

bool
Server::listen(std::string *error)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socket_path.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path too long: " + opts_.socket_path;
        return false;
    }
    std::strncpy(addr.sun_path, opts_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    ::unlink(opts_.socket_path.c_str()); // stale socket from a crash
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(listen_fd_, 64) < 0)
    {
        if (error)
            *error = "bind/listen '" + opts_.socket_path +
                "': " + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    if (::pipe(wake_pipe_) < 0) {
        if (error)
            *error = std::string("pipe: ") + std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        return false;
    }
    listening_ = true;
    accept_thread_ = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {wake_pipe_[0], POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        if (fds[1].revents)
            return; // drain() woke us
        if (!(fds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (draining_.load()) {
            ::close(fd);
            continue;
        }
        accepted_.fetch_add(1);
        stats::count("service.connections");
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(conn);
        conn_threads_.emplace_back(
            [this, conn] { serveConnection(conn); });
    }
}

void
Server::serveConnection(std::shared_ptr<Conn> conn)
{
    {
        std::lock_guard<std::mutex> wl(conn->write_mu);
        writeFrame(conn->fd, FrameKind::Hello,
                   encodeHello(helloFrame()));
    }
    for (;;) {
        FrameKind kind;
        ErrorCode code = ErrorCode::Ok;
        std::string error;
        auto body = readFrame(conn->fd, &kind, &code, &error);
        if (!body) {
            if (code != ErrorCode::Ok) {
                // Corrupt frame: report it, then hang up — a byte
                // stream cannot resync past a bad length header.
                ErrorFrame ef{0, code, error};
                std::lock_guard<std::mutex> wl(conn->write_mu);
                writeFrame(conn->fd, FrameKind::Error,
                           encodeError(ef));
            }
            break;
        }
        if (kind == FrameKind::Ping) {
            std::lock_guard<std::mutex> wl(conn->write_mu);
            writeFrame(conn->fd, FrameKind::Pong, *body);
            continue;
        }
        if (kind != FrameKind::Request) {
            ErrorFrame ef{0, ErrorCode::BadRequest,
                          "unexpected frame kind"};
            std::lock_guard<std::mutex> wl(conn->write_mu);
            writeFrame(conn->fd, FrameKind::Error, encodeError(ef));
            continue;
        }
        SampleRequest req;
        if (!parseRequest(*body, req, &error)) {
            ErrorFrame ef{0, ErrorCode::BadRequest, error};
            std::lock_guard<std::mutex> wl(conn->write_mu);
            writeFrame(conn->fd, FrameKind::Error, encodeError(ef));
            continue;
        }
        const uint64_t request_id = req.request_id;
        {
            std::lock_guard<std::mutex> pl(conn->pending_mu);
            ++conn->pending;
        }
        ErrorCode admitted = core_.submit(
            std::move(req),
            [conn, request_id](ErrorCode cb_code,
                               const SampleResult *result,
                               const std::string &message) {
                {
                    std::lock_guard<std::mutex> wl(conn->write_mu);
                    if (cb_code == ErrorCode::Ok) {
                        writeFrame(conn->fd, FrameKind::Result,
                                   serializeResult(*result));
                    } else {
                        ErrorFrame ef{request_id, cb_code, message};
                        writeFrame(conn->fd, FrameKind::Error,
                                   encodeError(ef));
                    }
                }
                std::lock_guard<std::mutex> pl(conn->pending_mu);
                --conn->pending;
                conn->pending_cv.notify_all();
            });
        if (admitted != ErrorCode::Ok) {
            // Rejected synchronously; the callback was not retained.
            {
                ErrorFrame ef{request_id, admitted,
                              errorCodeName(admitted)};
                std::lock_guard<std::mutex> wl(conn->write_mu);
                writeFrame(conn->fd, FrameKind::Error,
                           encodeError(ef));
            }
            std::lock_guard<std::mutex> pl(conn->pending_mu);
            --conn->pending;
            conn->pending_cv.notify_all();
        }
    }
    // EOF (or shutdown): let in-flight replies flush before closing.
    {
        std::unique_lock<std::mutex> pl(conn->pending_mu);
        conn->pending_cv.wait(pl,
                              [&conn] { return conn->pending == 0; });
    }
    std::lock_guard<std::mutex> wl(conn->write_mu);
    ::close(conn->fd);
    conn->fd = -1;
}

void
Server::drain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true))
        return; // the first caller owns the teardown
    if (!listening_) {
        core_.drain();
        return;
    }
    // 1. Stop accepting.
    ssize_t ignored = ::write(wake_pipe_[1], "x", 1);
    (void)ignored;
    if (accept_thread_.joinable())
        accept_thread_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socket_path.c_str());

    // 2. Complete every accepted request (their replies flush through
    //    the per-connection callbacks as they finish).
    core_.drain();

    // 3. Wake connection readers; they flush remaining replies (none
    //    by now) and exit on EOF.
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto &conn : conns_) {
            std::lock_guard<std::mutex> wl(conn->write_mu);
            if (conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RD);
        }
        threads.swap(conn_threads_);
    }
    for (auto &t : threads)
        t.join();
    ::close(wake_pipe_[0]);
    ::close(wake_pipe_[1]);
    wake_pipe_[0] = wake_pipe_[1] = -1;
    listening_ = false;
}

} // namespace qac::service
