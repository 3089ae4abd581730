#pragma once
/// \file client.hpp
/// \brief Client library for the opmsim scenario daemon.
///
/// A Client owns one connection to an svc::Server and exposes the wire
/// protocol as typed calls.  A background receive thread demultiplexes
/// reply frames by request_id, so requests may be pipelined: the async
/// submit paths (submit_async / submit_cb) let a caller keep many
/// scenarios in flight — which is exactly what makes the daemon's
/// micro-batching window fill up — while the blocking helpers stay
/// one-liner convenient.
///
/// Failure model: a reply carrying MsgType::error is rethrown in the
/// caller's thread as solver_error with the server's taxonomy code.  A
/// failed *scenario* is not an error frame — Engine::run_batch reports
/// failure as data, so submit() returns a SolveResult whose `status`
/// carries the code and the transport stays healthy.  A broken connection
/// fails every pending call with ErrorCode::internal_error — each
/// registered callback exactly once, never dropped, never double-fired.
/// A request issued after the connection has died fails immediately with
/// internal_error, exactly once (call() throws, submit_cb delivers it).
///
/// Survivability (PR 10): ClientOptions carries a RetryPolicy.  The
/// blocking submit() — idempotent by construction: the daemon recomputes,
/// it does not mutate — retries on `overloaded` (admission-control shed)
/// and on transport failure, reconnecting + re-handshaking automatically
/// with deterministic seeded exponential backoff.  Control calls are NOT
/// known idempotent, so they retry only on `overloaded`, where the server
/// guarantees nothing happened.  Connect/handshake are bounded by
/// `connect_timeout` so a hung daemon cannot block a caller forever.
///
/// Threading contract: submit_cb/submit_async/call may be issued from any
/// thread, but connect/close/reconnect — and therefore blocking submit()
/// retries, which may reconnect — assume ONE controller thread (the same
/// contract as connect/close always had).  Callbacks must not call
/// close() (the receive thread cannot join itself).

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/wire.hpp"
#include "util/annotations.hpp"

namespace opmsim::svc {

/// Deterministic retry schedule for the client's safe-to-retry paths.
/// Attempt k (0-based) sleeps `base_backoff * multiplier^k * (1 + j)`
/// seconds before retrying, where j ~ U[0, 0.5) from a jitter_seed-seeded
/// generator — reproducible in tests, decorrelated in a fleet.
struct RetryPolicy {
    int max_attempts = 1;        ///< total tries (1 = no retry)
    double base_backoff = 0.01;  ///< first retry delay, seconds
    double multiplier = 2.0;     ///< exponential growth per attempt
    std::uint64_t jitter_seed = 0;
    bool retry_overloaded = true;  ///< retry admission-control sheds
    bool retry_transport = true;   ///< reconnect + retry submits on broken pipes
};

struct ClientOptions {
    RetryPolicy retry;
    /// Budget for connect() + the hello handshake, seconds (0 disables):
    /// a hung or drained daemon fails fast instead of blocking forever.
    double connect_timeout = 5.0;
    /// Hard cap on a reply frame's payload — mirrors the server-side
    /// bound, so a corrupt length field from a bad server cannot drive an
    /// absurd client-side allocation.
    std::size_t max_frame_bytes = std::size_t{1} << 28;
};

class Client {
public:
    Client() = default;
    explicit Client(ClientOptions opt);
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Connect to a Unix-domain socket and perform the hello handshake.
    void connect_unix(const std::string& path);
    /// Connect to a loopback TCP port and perform the hello handshake.
    void connect_tcp(int port);

    [[nodiscard]] bool connected() const { return fd_ >= 0; }
    /// The minor protocol version negotiated by the handshake.
    [[nodiscard]] std::uint16_t negotiated_minor() const { return minor_; }
    /// Automatic reconnects performed by the retry machinery so far.
    [[nodiscard]] std::uint64_t reconnects() const {
        return reconnects_.load(std::memory_order_relaxed);
    }

    /// Register a system with the daemon's Engine; returns the wire handle.
    std::uint64_t register_system(const opm::DescriptorSystem& sys);
    std::uint64_t register_system(const opm::MultiTermSystem& sys);
    void remove_system(std::uint64_t handle);

    /// Run one scenario (blocking).  Failure — whether the scenario's or
    /// the transport's — comes back as data in the result's `status`, so a
    /// load driver never needs try/catch around its request loop.  This is
    /// the retrying path: `overloaded` sheds and transport failures are
    /// retried per ClientOptions::retry (submits are idempotent).
    /// `deadline_ms` > 0 travels on the wire (negotiated minor >= 1) and
    /// bounds the server-side solve; past it the result comes back as
    /// deadline_exceeded data.
    api::SolveResult submit(std::uint64_t handle, const WireScenario& sc,
                            std::uint64_t deadline_ms = 0);
    /// Pipelined submit; same failure-as-data contract as submit(), but
    /// single-shot — the retry loop lives in blocking submit() only.
    std::future<api::SolveResult> submit_async(std::uint64_t handle,
                                               const WireScenario& sc,
                                               std::uint64_t deadline_ms = 0);
    /// Callback submit for open-loop load generation: `cb` runs on the
    /// receive thread the moment the result frame arrives (keep it cheap —
    /// timestamping and queueing, not processing).  Transport failures
    /// deliver a result with status.code == internal_error.
    void submit_cb(std::uint64_t handle, const WireScenario& sc,
                   std::function<void(api::SolveResult)> cb,
                   std::uint64_t deadline_ms = 0);

    /// Snapshot the handle's warm caches to a file on the DAEMON's host.
    void save_caches(std::uint64_t handle, const std::string& path);
    /// Merge a snapshot into the handle's caches (fingerprint-verified).
    void load_caches(std::uint64_t handle, const std::string& path);

    [[nodiscard]] ServiceStats stats();
    void ping();
    /// Ask the daemon to stop accepting work and exit its dispatch loop.
    void shutdown_server();

    void close();

private:
    struct Pending {
        std::function<void(MsgType, std::vector<std::uint8_t>)> deliver;
    };

    enum class Endpoint : std::uint8_t { none, unix_sock, tcp };

    /// Dial the recorded endpoint and handshake (the shared body of
    /// connect_unix/connect_tcp/reconnect).
    void dial(bool reconnect);
    void handshake(bool reconnect);
    /// Tear down and re-dial the recorded endpoint with the reconnect
    /// flag set; throws when the daemon is unreachable.
    void reconnect();
    void receive_loop();
    /// Send and wait for the reply frame; throws on error frames.
    std::pair<MsgType, std::vector<std::uint8_t>> call(
        MsgType type, const std::vector<std::uint8_t>& payload);
    /// call() with the RetryPolicy's overloaded-only retry (control calls
    /// are not known idempotent, so transport failures propagate).
    std::pair<MsgType, std::vector<std::uint8_t>> retry_call(
        MsgType type, const std::vector<std::uint8_t>& payload);
    /// Reserve an id and map `p` under it; returns 0 (leaving `p`
    /// untouched) when no receiver is live to deliver the reply.
    std::uint64_t register_pending(Pending& p);
    /// Write one whole frame; false when the socket write fails.
    bool send_frame(MsgType type, std::uint64_t id,
                    const std::vector<std::uint8_t>& payload);
    void fail_all_pending(const std::string& why);
    /// Sleep the deterministic exponential-backoff delay for `attempt`.
    void sleep_backoff(int attempt);

    /// Socket fd.  Written only while single-threaded (connect/dial before
    /// the receiver thread spawns; close() after it joins — controller
    /// thread contract), so it needs no capability — the receiver and
    /// senders only ever read it.
    int fd_ = -1;
    std::uint16_t minor_ = 0;  ///< (re)set by each handshake / close()
    std::thread receiver_;
    ClientOptions opt_;
    Endpoint endpoint_ = Endpoint::none;  ///< recorded by connect_* for redial
    std::string unix_path_;
    int tcp_port_ = 0;
    /// Set (release) by whoever discovers the connection died — the
    /// receiver's exit path, a failed send — and read (acquire) by the
    /// retry loop to distinguish transport internal_error from a
    /// server-side one.  Cleared by a successful reconnect.
    std::atomic<bool> transport_broken_{false};
    std::atomic<std::uint64_t> reconnects_{0};
    util::Mutex write_mutex_;  ///< serializes whole-frame socket writes
    util::Mutex pending_mutex_;
    std::map<std::uint64_t, Pending> pending_ GUARDED_BY(pending_mutex_);
    std::uint64_t next_id_ GUARDED_BY(pending_mutex_) = 1;
    /// True while a receive thread is live to deliver replies: raised by
    /// handshake() before it spawns the receiver, cleared by
    /// fail_all_pending() in the same critical section as its swap.
    /// Registration checks it, so a request issued after the receiver has
    /// exited fails at once instead of waiting on a reply no one reads.
    bool receiving_ GUARDED_BY(pending_mutex_) = false;
    /// Backoff jitter stream; its own mutex so concurrent blocking
    /// submits from different threads stay race-free.
    util::Mutex retry_mutex_;
    std::mt19937_64 jitter_rng_ GUARDED_BY(retry_mutex_){0};
};

} // namespace opmsim::svc
