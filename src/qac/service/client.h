/**
 * @file
 * Client side of the qmad protocol: connect to a daemon's unix
 * socket, read its Hello capabilities frame, then issue requests.
 *
 * call() is the synchronous one-shot most callers want; send() /
 * receive() expose the pipelined form (N sends, then N receives —
 * replies arrive in completion order and carry the request id, so a
 * pipelining caller matches them up itself).  `qma client` and the
 * perfbench service probe both sit on this class, which is what
 * keeps the remote path byte-identical to `qma run`: the client only
 * moves a SampleRequest/SampleResult pair that local execution uses
 * unchanged.
 */

#ifndef QAC_SERVICE_CLIENT_H
#define QAC_SERVICE_CLIENT_H

#include <string>

#include "qac/service/request.h"
#include "qac/service/wire.h"

namespace qac::service {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Connect to the daemon at @p socket_path and read its Hello.
     * False (with @p error) on connect failure or a protocol
     * mismatch.
     */
    bool connect(const std::string &socket_path,
                 std::string *error = nullptr);

    bool connected() const { return fd_ >= 0; }

    /** Capabilities advertised at connect time. */
    const Hello &hello() const { return hello_; }

    /** Synchronous round trip: send one request, wait for its reply. */
    ErrorCode call(const SampleRequest &req, SampleResult *out,
                   std::string *error = nullptr);

    /** Pipelined send; pair with one receive() per send. */
    bool send(const SampleRequest &req, std::string *error = nullptr);

    /**
     * Block for the next Result or Error frame.  Ok fills @p out;
     * a server-side Error frame returns its code with the message in
     * @p error; Disconnected means the peer hung up.
     */
    ErrorCode receive(SampleResult *out, std::string *error = nullptr);

    /** Liveness round trip (only meaningful with no replies due). */
    bool ping(std::string *error = nullptr);

    void close();

  private:
    int fd_ = -1;
    Hello hello_;
};

} // namespace qac::service

#endif // QAC_SERVICE_CLIENT_H
