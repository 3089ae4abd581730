/// \file test_svc_chaos.cpp
/// \brief Network-chaos pins for the scenario daemon (label: faultinject).
///
/// PR 10's survivability contract, driven through the deterministic fault
/// harness's socket sites (util/fault_inject.hpp):
///
///   - a frame torn mid-payload, or a connection dropped after a request
///     was fully received, kills exactly that connection — every pending
///     future on it fails exactly once with internal_error, the daemon
///     keeps serving everyone else;
///   - a retrying client (ClientOptions::retry) reconnects, re-handshakes
///     and recovers a result BIT-IDENTICAL to the unfaulted run;
///   - admission control sheds excess submits fast with `overloaded`
///     while admitted work completes bit-identical to an in-process run;
///   - drain() finishes in-flight work, writes the warm-cache
///     auto-snapshot, rejects new submits with `unavailable`, and a
///     restarted daemon warm-starts from the snapshot with zero orderings;
///   - a wire deadline expires as deadline_exceeded DATA whether it dies
///     in the queue (never touching the Engine) or mid-sweep;
///   - a peer that stops reading its replies trips the write timeout and
///     is dropped instead of wedging the dispatcher;
///   - a request issued after the client's receive thread has exited on a
///     dropped connection fails at once with internal_error, instead of
///     waiting forever on a reply no one will read.
///
/// Every fault is armed through ScopedFault so a failed ASSERT cannot
/// leave a site armed for later tests.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "util/fault_inject.hpp"

namespace api = opmsim::api;
namespace la = opmsim::la;
namespace opm = opmsim::opm;
namespace svc = opmsim::svc;
namespace util = opmsim::util;
using opmsim::ErrorCode;
using opmsim::fault::FaultSpec;
using opmsim::fault::ScopedFault;
using opmsim::fault::Site;

namespace {

std::string unique_socket(const char* tag) {
    static int counter = 0;
    return "/tmp/opmsim_chaos_" + std::to_string(::getpid()) + "_" + tag +
           "_" + std::to_string(counter++) + ".sock";
}

opm::DescriptorSystem rc_ladder(la::index_t n) {
    la::Triplets e(n, n), a(n, n), b(n, 1);
    for (la::index_t i = 0; i < n; ++i) {
        e.add(i, i, 1e-9);
        double g = 0.0;
        if (i > 0) {
            a.add(i, i - 1, 1e-3);
            g += 1e-3;
        }
        if (i + 1 < n) {
            a.add(i, i + 1, 1e-3);
            g += 1e-3;
        }
        a.add(i, i, -(g + (i == 0 ? 1e-3 : 0.0)));
    }
    b.add(0, 0, 1e-3);
    opm::DescriptorSystem sys;
    sys.e = la::CscMatrix(e);
    sys.a = la::CscMatrix(a);
    sys.b = la::CscMatrix(b);
    return sys;
}

svc::WireScenario base_scenario() {
    svc::WireScenario sc;
    sc.sources = {svc::SourceSpec::step(1.0)};
    sc.t_end = 1e-5;
    sc.steps = 64;
    return sc;
}

/// A scenario that exercises both expensive warm-up paths (ordering +
/// SoE fit), so snapshot warm starts are observable in the diagnostics.
svc::WireScenario frac_scenario() {
    svc::WireScenario sc = base_scenario();
    opm::OpmOptions frac;
    frac.alpha = 0.5;
    frac.path = opm::OpmPath::toeplitz;
    frac.history = opm::HistoryBackend::soe;
    sc.config = frac;
    return sc;
}

void expect_result_bits(const api::SolveResult& got,
                        const api::SolveResult& want) {
    EXPECT_EQ(got.status.code, want.status.code);
    ASSERT_EQ(got.outputs.size(), want.outputs.size());
    for (std::size_t c = 0; c < want.outputs.size(); ++c) {
        ASSERT_EQ(got.outputs[c].size(), want.outputs[c].size());
        for (std::size_t k = 0; k < want.outputs[c].size(); ++k) {
            EXPECT_EQ(got.outputs[c].times()[k], want.outputs[c].times()[k]);
            EXPECT_EQ(got.outputs[c].values()[k], want.outputs[c].values()[k]);
        }
    }
    ASSERT_EQ(got.states.rows(), want.states.rows());
    ASSERT_EQ(got.states.cols(), want.states.cols());
    for (la::index_t j = 0; j < want.states.cols(); ++j)
        for (la::index_t i = 0; i < want.states.rows(); ++i)
            EXPECT_EQ(got.states(i, j), want.states(i, j));
    EXPECT_EQ(got.grid, want.grid);
    EXPECT_EQ(got.steps, want.steps);
}

/// A TCP client whose connection the server has dropped: its first submit
/// resolves with internal_error, so the receive thread has seen EOF and
/// exited.  TCP because the first write to a peer that has shut its socket
/// down still succeeds there — over a Unix socket it fails with EPIPE and
/// the late-registration window never opens.  Heap-held so a test can
/// leak it when a hung call still uses it.
std::unique_ptr<svc::Client> dropped_tcp_client(const svc::Server& server,
                                                std::uint64_t& handle) {
    auto client = std::make_unique<svc::Client>();
    client->connect_tcp(server.port());
    handle = client->register_system(rc_ladder(8));
    const ScopedFault drop(Site::conn_drop);
    const api::SolveResult first =
        client->submit_async(handle, base_scenario()).get();
    EXPECT_EQ(first.status.code, ErrorCode::internal_error);
    EXPECT_EQ(drop.fires(), 1);
    return client;
}

constexpr auto kLateBound = std::chrono::seconds(5);

} // namespace

// -------------------------------------------------------- torn / dropped

TEST(SvcChaos, TornFrameKillsOnlyThatConnectionAndFailsExactlyOnce) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("torn");
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    svc::Client victim;
    victim.connect_unix(opt.socket_path);
    const std::uint64_t h = victim.register_system(rc_ladder(8));

    // The next frame the server reads from ANY connection tears between
    // header and payload — that is the victim's submit.
    api::SolveResult res;
    {
        const ScopedFault torn(Site::sock_read_torn);
        res = victim.submit(h, base_scenario());
        EXPECT_GE(torn.fires(), 1);
    }
    EXPECT_EQ(res.status.code, ErrorCode::internal_error);

    // The daemon itself survived: a fresh client gets real service.
    svc::Client healthy;
    healthy.connect_unix(opt.socket_path);
    const api::SolveResult ok = healthy.submit(h, base_scenario());
    ASSERT_TRUE(ok.status.ok()) << ok.status.message;

    victim.close();
    healthy.close();
    server.stop();
}

TEST(SvcChaos, ServerDeathMidPipelineFailsEveryPendingFutureExactlyOnce) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("death");
    opt.batch_window = 5.0;  // park the pipeline inside the batch window
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    std::vector<std::future<api::SolveResult>> futures;
    for (int k = 0; k < 8; ++k)
        futures.push_back(client.submit_async(h, base_scenario()));

    server.stop();  // daemon dies with the whole pipeline in flight

    // Every future resolves (no hang, no drop); transport failures come
    // back as internal_error data.  std::future itself traps double-set,
    // so resolution here also proves exactly-once delivery.
    for (auto& f : futures) {
        const api::SolveResult res = f.get();
        if (!res.status.ok()) {
            EXPECT_EQ(res.status.code, ErrorCode::internal_error)
                << res.status.message;
        }
    }
    client.close();
}

TEST(SvcChaos, RetryingClientRecoversBitIdenticalResultAfterConnDrop) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("retry");
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    svc::ClientOptions copt;
    copt.retry.max_attempts = 4;
    copt.retry.base_backoff = 1e-3;
    copt.retry.jitter_seed = 42;
    svc::Client client(copt);
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    // Unfaulted oracle first (cache state never changes results).
    const api::SolveResult want = client.submit(h, frac_scenario());
    ASSERT_TRUE(want.status.ok()) << want.status.message;

    api::SolveResult got;
    {
        // The server drops the connection right after it fully receives
        // the next frame — the retried submit — before any reply.
        const ScopedFault drop(Site::conn_drop);
        got = client.submit(h, frac_scenario());
        EXPECT_EQ(drop.fires(), 1);
    }
    ASSERT_TRUE(got.status.ok()) << got.status.message;
    expect_result_bits(got, want);

    EXPECT_GE(client.reconnects(), 1u);
    EXPECT_GE(server.stats().reconnects_seen, 1u);

    client.close();
    server.stop();
}

TEST(SvcChaos, SubmitAfterTheReceiverExitedFailsInsteadOfHanging) {
    svc::ServerOptions opt;
    opt.tcp_port = 0;  // ephemeral loopback
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    std::uint64_t h = 0;
    const std::unique_ptr<svc::Client> client = dropped_tcp_client(server, h);

    // Registered after the receiver failed everything it held: it must
    // still resolve, exactly once, with internal_error.
    std::future<api::SolveResult> late = client->submit_async(h, base_scenario());
    ASSERT_EQ(late.wait_for(kLateBound), std::future_status::ready)
        << "submit on a dead connection never resolved";
    EXPECT_EQ(late.get().status.code, ErrorCode::internal_error);

    client->close();
    server.stop();
}

TEST(SvcChaos, ControlCallAfterTheReceiverExitedThrowsInsteadOfHanging) {
    svc::ServerOptions opt;
    opt.tcp_port = 0;  // ephemeral loopback
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    std::uint64_t h = 0;
    std::unique_ptr<svc::Client> client = dropped_tcp_client(server, h);

    // The call() path behind every control request.
    svc::Client* raw = client.get();
    std::future<void> ping =
        std::async(std::launch::async, [raw] { raw->ping(); });
    if (ping.wait_for(kLateBound) != std::future_status::ready) {
        // The hung call still uses the client, and std::async's future
        // would block on it in its destructor: leave both behind.
        (void)new std::future<void>(std::move(ping));
        (void)client.release();
        server.stop();
        FAIL() << "ping() on a dead connection never returned";
    }
    try {
        ping.get();
        ADD_FAILURE() << "ping() on a dead connection returned normally";
    } catch (const opmsim::solver_error& e) {
        EXPECT_EQ(e.code(), ErrorCode::internal_error) << e.what();
    }

    client->close();
    server.stop();
}

TEST(SvcChaos, WriteFaultDropsTheConnectionButNotTheDaemon) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("wfail");
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    svc::Client victim;
    victim.connect_unix(opt.socket_path);
    const std::uint64_t h = victim.register_system(rc_ladder(8));

    // The server's next reply write fails (EPIPE-shaped); send_frame drops
    // the connection, and the victim's pending submit fails as data.
    api::SolveResult res;
    {
        const ScopedFault wfail(Site::sock_write_fail);
        res = victim.submit(h, base_scenario());
        EXPECT_GE(wfail.fires(), 1);
    }
    EXPECT_EQ(res.status.code, ErrorCode::internal_error);

    svc::Client healthy;
    healthy.connect_unix(opt.socket_path);
    const api::SolveResult ok = healthy.submit(h, base_scenario());
    ASSERT_TRUE(ok.status.ok()) << ok.status.message;

    victim.close();
    healthy.close();
    server.stop();
}

// ------------------------------------------------------ overload shedding

TEST(SvcChaos, QueueFullShedsOverloadedFastAndAdmittedWorkIsUnaffected) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("shed");
    opt.batch_window = 0.0;  // zero-width window: no coalescing grace
    opt.max_queue = 1;
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    // Stall every dispatch round so the (single-slot) queue stays full
    // while the reader sheds the rest of the burst on arrival.
    const ScopedFault stall(Site::dispatch_stall, FaultSpec{0, 1 << 20});

    std::vector<std::future<api::SolveResult>> futures;
    for (int k = 0; k < 16; ++k)
        futures.push_back(client.submit_async(h, base_scenario()));

    api::Engine local;
    const api::SystemHandle lh = local.add_system(rc_ladder(8));
    const api::SolveResult want = local.run(lh, base_scenario().to_scenario());

    int ok = 0, shed = 0;
    for (auto& f : futures) {
        const api::SolveResult res = f.get();
        if (res.status.ok()) {
            ++ok;
            expect_result_bits(res, want);  // admitted => full service
        } else {
            ASSERT_EQ(res.status.code, ErrorCode::overloaded)
                << res.status.message;
            ++shed;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(ok + shed, 16);

    const svc::ServiceStats stats = server.stats();
    EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(ok));
    EXPECT_GE(stall.fires(), 1);

    client.close();
    server.stop();
}

TEST(SvcChaos, PerConnectionPipelineBoundShedsExcessSubmits) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("perconn");
    opt.batch_window = 0.0;
    opt.max_pending_per_conn = 1;
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    const ScopedFault stall(Site::dispatch_stall, FaultSpec{0, 1 << 20});
    std::vector<std::future<api::SolveResult>> futures;
    for (int k = 0; k < 8; ++k)
        futures.push_back(client.submit_async(h, base_scenario()));

    int ok = 0, shed = 0;
    for (auto& f : futures) {
        const api::SolveResult res = f.get();
        if (res.status.ok())
            ++ok;
        else {
            ASSERT_EQ(res.status.code, ErrorCode::overloaded)
                << res.status.message;
            ++shed;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(ok + shed, 8);

    client.close();
    server.stop();
}

// ------------------------------------------------------------------ drain

TEST(SvcChaos, DrainFlushesInflightSnapshotsCachesAndWarmStartsARestart) {
    const std::string snapdir =
        "/tmp/opmsim_chaos_drain_" + std::to_string(::getpid());
    ::mkdir(snapdir.c_str(), 0700);

    svc::ServerOptions opt;
    opt.socket_path = unique_socket("drainA");
    opt.batch_window = 0.5;  // in-flight submit parks in the window
    opt.snapshot_dir = snapdir;
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    // Warm the caches and grab the oracle bits.
    const api::SolveResult cold = client.submit(h, frac_scenario());
    ASSERT_TRUE(cold.status.ok()) << cold.status.message;
    EXPECT_GE(cold.diag.orderings, 1);
    EXPECT_GE(cold.diag.soe_fits, 1);

    // In-flight work when the drain begins must still complete.
    auto inflight = client.submit_async(h, frac_scenario());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.begin_drain();

    // New submits are refused while draining — as data, in one round trip.
    const api::SolveResult refused = client.submit(h, frac_scenario());
    EXPECT_EQ(refused.status.code, ErrorCode::unavailable);

    const api::SolveResult flushed = inflight.get();
    ASSERT_TRUE(flushed.status.ok()) << flushed.status.message;
    expect_result_bits(flushed, cold);

    server.wait_for_shutdown();
    server.stop();
    EXPECT_EQ(server.stats().drains, 1u);
    client.close();

    // The auto-snapshot exists and warm-starts a FRESH daemon: its very
    // first request does zero orderings and zero SoE refits.
    const std::string snap = snapdir + "/opmsim_h" + std::to_string(h) +
                             ".snap";
    struct stat st {};
    ASSERT_EQ(::stat(snap.c_str(), &st), 0) << "missing snapshot " << snap;

    svc::ServerOptions opt2;
    opt2.socket_path = unique_socket("drainB");
    svc::Server second(opt2);
    second.start();
    svc::Client again;
    again.connect_unix(opt2.socket_path);
    const std::uint64_t h2 = again.register_system(rc_ladder(8));
    again.load_caches(h2, snap);
    const api::SolveResult warm = again.submit(h2, frac_scenario());
    ASSERT_TRUE(warm.status.ok()) << warm.status.message;
    EXPECT_EQ(warm.diag.orderings, 0);
    EXPECT_EQ(warm.diag.soe_fits, 0);
    expect_result_bits(warm, cold);

    again.close();
    second.stop();
    std::remove(snap.c_str());
    ::rmdir(snapdir.c_str());
}

// -------------------------------------------------------------- deadlines

TEST(SvcChaos, DeadlineExpiredWhileQueuedIsShedBeforeTheEngine) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("dlqueue");
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    api::SolveResult res;
    {
        // One 50 ms dispatcher stall outlives the 10 ms wire deadline: the
        // job expires in the queue and is shed pre-dispatch.
        const ScopedFault stall(Site::dispatch_stall);
        res = client.submit(h, base_scenario(), /*deadline_ms=*/10);
        EXPECT_EQ(stall.fires(), 1);
    }
    EXPECT_EQ(res.status.code, ErrorCode::deadline_exceeded);

    const svc::ServiceStats stats = server.stats();
    EXPECT_GE(stats.deadline_expired, 1u);
    // requests counts DISPATCHED submits only: the expired job never
    // touched the Engine.
    EXPECT_EQ(stats.requests, 0u);

    client.close();
    server.stop();
}

TEST(SvcChaos, DeadlineExpiryMidSweepComesBackAsData) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("dlsweep");
    opt.batch_window = 0.0;
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    api::SolveResult res;
    {
        // A generous wire deadline arms the sweep's cooperative check; the
        // fault harness forces that check to expire mid-sweep.
        const ScopedFault expire(Site::deadline);
        res = client.submit(h, base_scenario(), /*deadline_ms=*/60'000);
        EXPECT_GE(expire.fires(), 1);
    }
    EXPECT_EQ(res.status.code, ErrorCode::deadline_exceeded);
    EXPECT_GE(server.stats().deadline_expired, 1u);

    // The connection and daemon survive a deadline like any other
    // failure-as-data.
    const api::SolveResult ok = client.submit(h, base_scenario());
    ASSERT_TRUE(ok.status.ok()) << ok.status.message;

    client.close();
    server.stop();
}

// ---------------------------------------------------------- write timeout

TEST(SvcChaos, StalledReaderTripsWriteTimeoutInsteadOfWedgingDispatch) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("stall");
    opt.batch_window = 0.0;
    opt.write_timeout = 0.2;
    svc::Server server(opt);
    server.start();

    svc::Client healthy;
    healthy.connect_unix(opt.socket_path);
    const std::uint64_t h = healthy.register_system(rc_ladder(32));

    // A raw peer that submits a scenario with a multi-megabyte result and
    // then never reads: the reply write fills the socket buffer, blocks,
    // and must be abandoned at the 0.2 s write timeout.
    const int raw = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(raw, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, opt.socket_path.c_str(),
                opt.socket_path.size() + 1);
    ASSERT_EQ(::connect(raw, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);

    svc::WireScenario big = base_scenario();
    big.steps = 20'000;  // 32 x 20'001 state matrix ≈ 5 MB on the wire
    util::ByteWriter body;
    body.u64(h);
    svc::encode(body, big);
    svc::FrameHeader hdr;
    hdr.type = svc::MsgType::submit;
    hdr.request_id = 1;
    hdr.payload_len = body.size();
    util::ByteWriter frame;
    svc::encode_frame_header(frame, hdr);
    frame.bytes(body.data().data(), body.size());
    ASSERT_EQ(::write(raw, frame.data().data(), frame.size()),
              static_cast<ssize_t>(frame.size()));

    // The healthy client must get service while/after the stalled reply is
    // timed out — the dispatcher is blocked at most ~write_timeout.
    const auto t0 = std::chrono::steady_clock::now();
    const api::SolveResult ok = healthy.submit(h, base_scenario());
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_TRUE(ok.status.ok()) << ok.status.message;
    EXPECT_LT(seconds, 10.0);
    healthy.ping();  // dispatcher demonstrably alive

    ::close(raw);
    healthy.close();
    server.stop();
}

// ------------------------------------------------- close()-vs-inflight cbs

TEST(SvcChaos, CloseDuringInflightSubmitCbInvokesEveryCallbackExactlyOnce) {
    svc::ServerOptions opt;
    opt.socket_path = unique_socket("closecb");
    opt.batch_window = 0.25;  // park the callbacks' submits in the window
    svc::Server server(opt);
    server.start();

    svc::Client client;
    client.connect_unix(opt.socket_path);
    const std::uint64_t h = client.register_system(rc_ladder(8));

    constexpr int kInflight = 16;
    std::atomic<int> fired[kInflight];
    for (auto& f : fired) f.store(0);

    for (int k = 0; k < kInflight; ++k)
        client.submit_cb(h, base_scenario(), [&fired, k](api::SolveResult res) {
            // Either a real result or the transport failure — but exactly
            // one of them, exactly once.
            if (!res.status.ok()) {
                EXPECT_EQ(res.status.code, ErrorCode::internal_error);
            }
            fired[k].fetch_add(1);
        });

    // close() joins the receive thread, which fails every still-pending
    // callback on its way out — after this line everything has fired.
    client.close();
    for (int k = 0; k < kInflight; ++k)
        EXPECT_EQ(fired[k].load(), 1) << "callback " << k;

    server.stop();
}
