#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"

namespace powerchop
{

double
clientRetryBackoffSeconds(const ClientRetryPolicy &policy,
                          unsigned attempt)
{
    // Jitter seeded by (seed, attempt): concurrent clients with
    // distinct seeds decorrelate without wall-clock randomness.
    return backoffSeconds(
        policy.backoffBaseSeconds, policy.backoffMaxSeconds, attempt,
        policy.backoffJitterFraction,
        policy.seed ^
            (static_cast<std::uint64_t>(attempt) * 0x9e3779b97f4a7c15ull));
}

ServeClient::~ServeClient()
{
    close();
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)),
      policy_(other.policy_), target_(other.target_),
      targetPath_(std::move(other.targetPath_)),
      targetPort_(other.targetPort_)
{
    other.fd_ = -1;
    other.target_ = Target::None;
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        reader_ = std::move(other.reader_);
        policy_ = other.policy_;
        target_ = other.target_;
        targetPath_ = std::move(other.targetPath_);
        targetPort_ = other.targetPort_;
        other.fd_ = -1;
        other.target_ = Target::None;
    }
    return *this;
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    reader_.reset();
}

bool
ServeClient::connectUnix(const std::string &path, std::string *err)
{
    // A daemon restarting under our feet must surface as a failed
    // (and retryable) write, not a SIGPIPE death.
    serveIgnoreSigpipe();
    close();
    // Remember the dial target before attempting: a refused dial
    // must still be redialable (the daemon may be mid-restart).
    target_ = Target::Unix;
    targetPath_ = path;
    struct sockaddr_un addr = {};
    if (path.size() >= sizeof(addr.sun_path)) {
        if (err)
            *err = csprintf("socket path too long: %s", path.c_str());
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (err)
            *err = csprintf("socket failed: %s",
                            std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err) {
            *err = csprintf("connect %s failed: %s", path.c_str(),
                            std::strerror(errno));
        }
        close();
        return false;
    }
    reader_ = std::make_unique<FdReader>(fd_);
    applyTimeout();
    return true;
}

bool
ServeClient::connectTcp(unsigned short port, std::string *err)
{
    serveIgnoreSigpipe();
    close();
    target_ = Target::Tcp;
    targetPort_ = port;
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        if (err)
            *err = csprintf("socket failed: %s",
                            std::strerror(errno));
        return false;
    }
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        if (err) {
            *err = csprintf("connect 127.0.0.1:%u failed: %s", port,
                            std::strerror(errno));
        }
        close();
        return false;
    }
    reader_ = std::make_unique<FdReader>(fd_);
    applyTimeout();
    return true;
}

void
ServeClient::setRetryPolicy(const ClientRetryPolicy &policy)
{
    policy_ = policy;
    applyTimeout();
}

void
ServeClient::applyTimeout()
{
    if (reader_) {
        reader_->setPollTimeoutMs(
            policy_.timeoutSeconds > 0
                ? static_cast<int>(policy_.timeoutSeconds * 1e3) + 1
                : -1);
    }
}

bool
ServeClient::reconnect(std::string *err)
{
    // connectUnix/connectTcp reset target_, so stash the dial info
    // before close() runs inside them.
    switch (target_) {
      case Target::Unix: {
        const std::string path = targetPath_;
        return connectUnix(path, err);
      }
      case Target::Tcp:
        return connectTcp(targetPort_, err);
      case Target::None:
        break;
    }
    if (err)
        *err = "never connected: nothing to reconnect to";
    return false;
}

bool
ServeClient::attemptOnce(const std::string &frame, ServeReply &reply,
                         std::string &err)
{
    if (fd_ < 0 && !reconnect(&err))
        return false;
    if (!writeAllFd(fd_, frame)) {
        err = csprintf("send failed: %s", std::strerror(errno));
        close();
        return false;
    }
    if (!readResponse(*reader_, reply.status, reply.payload)) {
        err = reader_->outcome() == ReadOutcome::TimedOut
                  ? csprintf("reply timed out after %.3fs",
                             policy_.timeoutSeconds)
                  : "torn reply (daemon gone mid-response?)";
        close();
        return false;
    }
    return true;
}

ServeReply
ServeClient::request(const std::string &line)
{
    const std::string frame = line + "\n";
    const unsigned attempts = policy_.retries + 1;
    ServeReply reply;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        reply.attempts = attempt;
        std::string err;
        if (attemptOnce(frame, reply, err)) {
            reply.ioFailed = false;
            reply.error.clear();
            return reply;
        }
        reply.ioFailed = true;
        reply.error = csprintf("attempt %u/%u: %s", attempt,
                               attempts, err.c_str());
        if (attempt < attempts) {
            const double wait =
                clientRetryBackoffSeconds(policy_, attempt + 1);
            if (wait > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            }
        }
    }
    return reply;
}

ServeReply
ServeClient::get(std::uint64_t key)
{
    return request(csprintf(
        "GET %016llx", static_cast<unsigned long long>(key)));
}

ServeReply
ServeClient::sim(const std::string &specJson)
{
    return request("SIM " + specJson);
}

ServeReply
ServeClient::stats()
{
    return request("STATS");
}

} // namespace powerchop
