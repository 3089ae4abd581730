#include "svc/client.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/posix_error.hpp"

namespace opmsim::svc {

namespace {

bool read_exact(int fd, std::uint8_t* buf, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
        const ssize_t k = ::read(fd, buf + got, n - got);
        if (k > 0) {
            got += static_cast<std::size_t>(k);
        } else if (k < 0 && errno == EINTR) {
            continue;
        } else {
            return false;
        }
    }
    return true;
}

bool write_all(int fd, const std::uint8_t* buf, std::size_t n) {
    std::size_t put = 0;
    while (put < n) {
        // MSG_NOSIGNAL: a daemon that died mid-send must surface as EPIPE
        // (a retryable transport failure), not a process-killing SIGPIPE.
        const ssize_t k = ::send(fd, buf + put, n - put, MSG_NOSIGNAL);
        if (k > 0) {
            put += static_cast<std::size_t>(k);
        } else if (k < 0 && errno == EINTR) {
            continue;
        } else {
            return false;
        }
    }
    return true;
}

[[noreturn]] void transport_fail(const std::string& what) {
    throw solver_error(ErrorCode::internal_error, "svc::Client: " + what);
}

/// connect() bounded by `timeout` seconds (<= 0: plain blocking connect).
/// The socket is flipped to non-blocking for the dial and restored after,
/// so a daemon that accepted but wedged cannot park the caller in
/// ::connect forever.  Returns false with `why` set on failure.
bool connect_with_timeout(int fd, const sockaddr* addr, socklen_t len,
                          double timeout, std::string& why) {
    if (timeout <= 0) {
        if (::connect(fd, addr, len) != 0) {
            why = util::errno_message(errno);
            return false;
        }
        return true;
    }
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    bool ok = ::connect(fd, addr, len) == 0;
    if (!ok && (errno == EINPROGRESS || errno == EAGAIN)) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLOUT;
        const int ms = static_cast<int>(timeout * 1e3);
        const int rc = ::poll(&pfd, 1, ms > 0 ? ms : 1);
        if (rc <= 0) {
            why = rc == 0 ? "connect timed out" : util::errno_message(errno);
        } else {
            int err = 0;
            socklen_t errlen = sizeof err;
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
            if (err == 0)
                ok = true;
            else
                why = util::errno_message(err);
        }
    } else if (!ok) {
        why = util::errno_message(errno);
    }
    ::fcntl(fd, F_SETFL, flags);
    return ok;
}

} // namespace

Client::Client(ClientOptions opt) : opt_(std::move(opt)) {
    if (opt_.retry.max_attempts < 1) opt_.retry.max_attempts = 1;
    jitter_rng_.seed(opt_.retry.jitter_seed);
}

Client::~Client() { close(); }

void Client::connect_unix(const std::string& path) {
    OPMSIM_REQUIRE(fd_ < 0, "svc::Client: already connected");
    OPMSIM_REQUIRE(path.size() < sizeof sockaddr_un{}.sun_path,
                   "svc::Client: socket path too long");
    endpoint_ = Endpoint::unix_sock;
    unix_path_ = path;
    dial(/*reconnect=*/false);
}

void Client::connect_tcp(int port) {
    OPMSIM_REQUIRE(fd_ < 0, "svc::Client: already connected");
    endpoint_ = Endpoint::tcp;
    tcp_port_ = port;
    dial(/*reconnect=*/false);
}

void Client::dial(bool reconnect) {
    int fd = -1;
    std::string why;
    bool ok = false;
    if (endpoint_ == Endpoint::unix_sock) {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            transport_fail(std::string("socket: ") + util::errno_message(errno));
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, unix_path_.c_str(), unix_path_.size() + 1);
        ok = connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                                  sizeof addr, opt_.connect_timeout, why);
        if (!ok) why = "connect(" + unix_path_ + "): " + why;
    } else {
        OPMSIM_REQUIRE(endpoint_ == Endpoint::tcp,
                       "svc::Client: no endpoint recorded");
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            transport_fail(std::string("socket: ") + util::errno_message(errno));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port_));
        ok = connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                                  sizeof addr, opt_.connect_timeout, why);
        if (!ok)
            why = "connect(127.0.0.1:" + std::to_string(tcp_port_) + "): " + why;
    }
    if (!ok) {
        ::close(fd);
        transport_fail(why);
    }
    fd_ = fd;
    try {
        handshake(reconnect);
    } catch (...) {
        // Leave no half-open connection behind: a failed handshake tears
        // the socket and receiver down so the next dial starts clean.
        close();
        throw;
    }
}

void Client::handshake(bool reconnect) {
    {
        // Raised BEFORE the receiver spawns, so its exit path (which
        // clears it) can never be overtaken by this store.
        const util::MutexLock lock(pending_mutex_);
        receiving_ = true;
    }
    receiver_ = std::thread([this] { receive_loop(); });
    // Minor-1 hello body: one reconnect flag byte.  A minor-0 server
    // ignores the body entirely, so this needs no negotiation.
    std::vector<std::uint8_t> hello_body{
        static_cast<std::uint8_t>(reconnect ? 1 : 0)};

    std::promise<std::pair<MsgType, std::vector<std::uint8_t>>> promise;
    auto future = promise.get_future();
    Pending p;
    p.deliver = [&promise](MsgType t, std::vector<std::uint8_t> body) {
        promise.set_value({t, std::move(body)});
    };
    const std::uint64_t id = register_pending(p);
    if (id == 0) transport_fail("connection closed before hello");
    if (!send_frame(MsgType::hello, id, hello_body)) {
        {
            const util::MutexLock plock(pending_mutex_);
            pending_.erase(id);
        }
        transport_fail("hello send failed");
    }
    if (opt_.connect_timeout > 0 &&
        future.wait_for(std::chrono::duration<double>(opt_.connect_timeout)) ==
            std::future_status::timeout) {
        // Hung daemon: sever the socket; the receiver wakes, fails the
        // pending entry (exactly-once), and we report the timeout.
        transport_broken_.store(true, std::memory_order_release);
        ::shutdown(fd_, SHUT_RDWR);
        (void)future.get();
        transport_fail("handshake timed out after " +
                       std::to_string(opt_.connect_timeout) + "s");
    }
    const auto [type, payload] = future.get();
    if (type != MsgType::hello_ack) transport_fail("handshake rejected");
    util::ByteReader r(payload.data(), payload.size());
    const std::uint16_t major = r.u16();
    if (major != kProtoMajor)
        transport_fail("server speaks protocol major " + std::to_string(major));
    minor_ = r.u16();
}

void Client::reconnect() {
    OPMSIM_REQUIRE(endpoint_ != Endpoint::none,
                   "svc::Client: reconnect before connect");
    close();
    dial(/*reconnect=*/true);
    transport_broken_.store(false, std::memory_order_release);
    reconnects_.fetch_add(1, std::memory_order_relaxed);
}

void Client::close() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (receiver_.joinable()) receiver_.join();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    minor_ = 0;
}

std::uint64_t Client::register_pending(Pending& p) {
    // Register BEFORE sending so a fast reply cannot race the map insert;
    // the id must be reserved and mapped atomically.
    const util::MutexLock lock(pending_mutex_);
    if (!receiving_) return 0;  // no receiver left to deliver the reply
    const std::uint64_t id = next_id_++;
    pending_[id] = std::move(p);
    return id;
}

bool Client::send_frame(MsgType type, std::uint64_t id,
                        const std::vector<std::uint8_t>& payload) {
    util::ByteWriter w;
    FrameHeader h;
    h.type = type;
    h.request_id = id;
    h.payload_len = payload.size();
    encode_frame_header(w, h);
    w.bytes(payload.data(), payload.size());
    const util::MutexLock lock(write_mutex_);
    return write_all(fd_, w.data().data(), w.size());
}

void Client::fail_all_pending(const std::string& why) {
    std::map<std::uint64_t, Pending> orphans;
    {
        // Same critical section as the swap: a call registering after it
        // sees receiving_ == false and fails itself instead of parking an
        // entry that no one will ever deliver.
        const util::MutexLock lock(pending_mutex_);
        receiving_ = false;
        orphans.swap(pending_);
    }
    util::ByteWriter w;
    encode(w, Status{ErrorCode::internal_error, why});
    for (auto& [id, p] : orphans) p.deliver(MsgType::error, w.data());
}

void Client::receive_loop() {
    std::vector<std::uint8_t> header(kFrameHeaderBytes);
    for (;;) {
        if (!read_exact(fd_, header.data(), header.size())) break;
        FrameHeader hdr;
        try {
            hdr = decode_frame_header(header.data(), header.size(),
                                      opt_.max_frame_bytes);
        } catch (...) {
            break;  // framing lost (or an absurd length): unusable
        }
        std::vector<std::uint8_t> payload(hdr.payload_len);
        if (!read_exact(fd_, payload.data(), payload.size())) break;
        Pending p;
        {
            const util::MutexLock lock(pending_mutex_);
            const auto it = pending_.find(hdr.request_id);
            if (it == pending_.end()) continue;  // stray reply: drop
            p = std::move(it->second);
            pending_.erase(it);
        }
        p.deliver(hdr.type, std::move(payload));
    }
    // Publish the breakage BEFORE delivering the failures: a retry loop
    // woken by its failed future must see the flag.
    transport_broken_.store(true, std::memory_order_release);
    fail_all_pending("connection closed");
}

void Client::sleep_backoff(int attempt) {
    double jitter;
    {
        const util::MutexLock lock(retry_mutex_);
        jitter = std::uniform_real_distribution<double>(0.0, 0.5)(jitter_rng_);
    }
    double delay = opt_.retry.base_backoff;
    for (int i = 0; i < attempt; ++i) delay *= opt_.retry.multiplier;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(delay * (1.0 + jitter)));
}

std::pair<MsgType, std::vector<std::uint8_t>> Client::call(
    MsgType type, const std::vector<std::uint8_t>& payload) {
    OPMSIM_REQUIRE(fd_ >= 0, "svc::Client: not connected");
    std::promise<std::pair<MsgType, std::vector<std::uint8_t>>> promise;
    std::future<std::pair<MsgType, std::vector<std::uint8_t>>> future =
        promise.get_future();
    Pending p;
    p.deliver = [&promise](MsgType t, std::vector<std::uint8_t> body) {
        promise.set_value({t, std::move(body)});
    };
    // id 0: the receiver had already exited, so nothing would ever
    // deliver a reply — fail exactly like a send to the dead peer.
    const std::uint64_t id = register_pending(p);
    if (id == 0 || !send_frame(type, id, payload)) {
        transport_broken_.store(true, std::memory_order_release);
        {
            const util::MutexLock plock(pending_mutex_);
            pending_.erase(id);
        }
        transport_fail("send failed (connection closed)");
    }
    auto [rtype, body] = future.get();
    if (rtype == MsgType::error) {
        util::ByteReader r(body.data(), body.size());
        const Status st = decode_status(r);
        throw solver_error(st.code, st.message);
    }
    return {rtype, std::move(body)};
}

std::pair<MsgType, std::vector<std::uint8_t>> Client::retry_call(
    MsgType type, const std::vector<std::uint8_t>& payload) {
    const RetryPolicy& rp = opt_.retry;
    for (int attempt = 0;; ++attempt) {
        try {
            return call(type, payload);
        } catch (const solver_error& e) {
            // Control calls are not known idempotent: only the explicit
            // "admission control shed this before doing anything" signal
            // is safe to retry.
            if (e.code() != ErrorCode::overloaded || !rp.retry_overloaded ||
                attempt + 1 >= rp.max_attempts)
                throw;
        }
        sleep_backoff(attempt);
    }
}

std::uint64_t Client::register_system(const opm::DescriptorSystem& sys) {
    util::ByteWriter w;
    encode(w, sys);
    const auto [type, body] = retry_call(MsgType::register_descriptor, w.data());
    util::ByteReader r(body.data(), body.size());
    return r.u64();
}

std::uint64_t Client::register_system(const opm::MultiTermSystem& sys) {
    util::ByteWriter w;
    encode(w, sys);
    const auto [type, body] = retry_call(MsgType::register_multiterm, w.data());
    util::ByteReader r(body.data(), body.size());
    return r.u64();
}

void Client::remove_system(std::uint64_t handle) {
    util::ByteWriter w;
    w.u64(handle);
    retry_call(MsgType::remove_system, w.data());
}

api::SolveResult Client::submit(std::uint64_t handle, const WireScenario& sc,
                                std::uint64_t deadline_ms) {
    const RetryPolicy& rp = opt_.retry;
    for (int attempt = 0;; ++attempt) {
        api::SolveResult res;
        if (transport_broken_.load(std::memory_order_acquire) &&
            rp.retry_transport && endpoint_ != Endpoint::none) {
            // A previous attempt (or any other call) lost the connection:
            // redial + re-handshake before spending this attempt.
            try {
                reconnect();
            } catch (...) {
                res.status = status_from_current_exception();
            }
        }
        if (res.status.ok()) res = submit_async(handle, sc, deadline_ms).get();
        if (res.status.ok()) return res;

        // Transport internal_error (flag raised by whoever saw the pipe
        // die) is retryable; a server-side internal_error is not.
        const bool transport =
            res.status.code == ErrorCode::internal_error &&
            transport_broken_.load(std::memory_order_acquire);
        const bool retryable =
            (res.status.code == ErrorCode::overloaded && rp.retry_overloaded) ||
            (transport && rp.retry_transport && endpoint_ != Endpoint::none);
        if (!retryable || attempt + 1 >= rp.max_attempts) return res;
        sleep_backoff(attempt);
    }
}

std::future<api::SolveResult> Client::submit_async(std::uint64_t handle,
                                                   const WireScenario& sc,
                                                   std::uint64_t deadline_ms) {
    auto promise = std::make_shared<std::promise<api::SolveResult>>();
    std::future<api::SolveResult> future = promise->get_future();
    submit_cb(
        handle, sc,
        [promise](api::SolveResult res) { promise->set_value(std::move(res)); },
        deadline_ms);
    return future;
}

void Client::submit_cb(std::uint64_t handle, const WireScenario& sc,
                       std::function<void(api::SolveResult)> cb,
                       std::uint64_t deadline_ms) {
    OPMSIM_REQUIRE(fd_ >= 0, "svc::Client: not connected");
    util::ByteWriter body;
    body.u64(handle);
    encode(body, sc);
    // Appended minor-1 field; a minor-0 peer negotiated it away, so the
    // deadline is silently dropped rather than sent as trailing garbage.
    if (minor_ >= 1) body.u64(deadline_ms);

    Pending p;
    p.deliver = [cb = std::move(cb)](MsgType type,
                                     std::vector<std::uint8_t> payload) {
        api::SolveResult res;
        try {
            util::ByteReader r(payload.data(), payload.size());
            if (type == MsgType::result) {
                res = decode_result(r);
            } else if (type == MsgType::error) {
                res.status = decode_status(r);
            } else {
                res.status = {ErrorCode::internal_error,
                              "unexpected reply type"};
            }
        } catch (...) {
            res.status = status_from_current_exception();
        }
        cb(std::move(res));
    };
    const std::uint64_t id = register_pending(p);
    if (id != 0 && send_frame(MsgType::submit, id, body.data())) return;

    // Transport failure — the receiver had already exited (id 0) or the
    // send failed.  Deliver it outside every lock: the callback is free to
    // submit again.  Exactly-once with the receiver's fail_all_pending:
    // whoever erases the map entry delivers; the other path finds the
    // entry gone and does nothing.
    transport_broken_.store(true, std::memory_order_release);
    if (id != 0) {
        const util::MutexLock plock(pending_mutex_);
        const auto it = pending_.find(id);
        if (it == pending_.end()) return;  // receiver already failed it
        p = std::move(it->second);
        pending_.erase(it);
    }
    util::ByteWriter err;
    encode(err, Status{ErrorCode::internal_error,
                       "send failed (connection closed)"});
    p.deliver(MsgType::error, err.data());
}

void Client::save_caches(std::uint64_t handle, const std::string& path) {
    util::ByteWriter w;
    w.u64(handle);
    w.str(path);
    retry_call(MsgType::save_caches, w.data());
}

void Client::load_caches(std::uint64_t handle, const std::string& path) {
    util::ByteWriter w;
    w.u64(handle);
    w.str(path);
    retry_call(MsgType::load_caches, w.data());
}

ServiceStats Client::stats() {
    const auto [type, body] = retry_call(MsgType::stats, {});
    util::ByteReader r(body.data(), body.size());
    return decode_service_stats(r);
}

void Client::ping() { retry_call(MsgType::ping, {}); }

void Client::shutdown_server() { retry_call(MsgType::shutdown, {}); }

} // namespace opmsim::svc
