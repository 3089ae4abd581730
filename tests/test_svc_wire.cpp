/// \file test_svc_wire.cpp
/// \brief Wire-protocol pins for the scenario service (svc/wire.hpp).
///
/// Three properties are pinned here:
///   1. Round-trip fidelity — every struct the protocol ships decodes to a
///      value equivalent to what was encoded.  Doubles travel
///      bit-preserved, so equivalence is BITWISE for numeric payloads; for
///      MethodConfig it is api::batch_compatible (the daemon's coalescing
///      predicate), which compares exactly the fields that travel.
///   2. Defensive decoding — truncating the payload at EVERY prefix
///      length, or corrupting ANY single byte, either decodes cleanly or
///      throws an exception that classifies as invalid_scenario.  Never
///      UB, never a crash, never an unbounded allocation.
///   3. Version negotiation — exact-major matching, tolerant-minor
///      skew, and forward-compatible trailing fields inside struct blocks
///      (a newer encoder's extra bytes are skipped).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/engine.hpp"
#include "api/registry.hpp"
#include "la/sparse_lu.hpp"
#include "svc/wire.hpp"
#include "util/fields.hpp"
#include "util/hash.hpp"

namespace api = opmsim::api;
namespace la = opmsim::la;
namespace opm = opmsim::opm;
namespace svc = opmsim::svc;
namespace transient = opmsim::transient;
namespace util = opmsim::util;
namespace wave = opmsim::wave;
using opmsim::Diagnostics;
using opmsim::ErrorCode;
using opmsim::Status;

namespace {

constexpr std::size_t kMaxPayload = std::size_t{1} << 28;

/// Attempt `fn`; returns the taxonomy classification of whatever it threw
/// (ErrorCode::ok when it did not throw).  This is the "never UB" oracle:
/// any decode failure must surface as a classifiable C++ exception.
template <class Fn>
ErrorCode classify(Fn&& fn) {
    try {
        fn();
        return ErrorCode::ok;
    } catch (...) {
        return opmsim::status_from_current_exception().code;
    }
}

svc::WireScenario rich_scenario() {
    svc::WireScenario sc;
    sc.sources = {svc::SourceSpec::step(2.5, 1e-4),
                  svc::SourceSpec::pwl({0.0, 1e-3, 2e-3}, {0.0, 1.0, 0.25})};
    sc.t_end = 3e-3;
    sc.steps = 96;
    opm::OpmOptions o;
    o.alpha = 0.5;
    o.form = opm::OpmForm::integral;
    o.path = opm::OpmPath::toeplitz;
    o.history = opm::HistoryBackend::soe;
    o.soe_tol = 1e-7;
    o.x0 = la::Vectord{{0.25, -1.5}};
    o.quad_points = 6;
    o.quad_panels = 2;
    sc.config = o;
    return sc;
}

std::vector<std::uint8_t> encode_scenario_bytes(const svc::WireScenario& sc) {
    util::ByteWriter w;
    svc::encode(w, sc);
    return w.data();
}

svc::WireScenario decode_scenario_bytes(const std::vector<std::uint8_t>& b) {
    util::ByteReader r(b.data(), b.size());
    return svc::decode_scenario(r);
}

/// Sample-equality oracle for sources: the decoded spec's closure must be
/// bit-identical to the original's at every probe time.
void expect_sources_equal(const svc::SourceSpec& a, const svc::SourceSpec& b) {
    ASSERT_EQ(a.kind, b.kind);
    const wave::Source sa = a.make();
    const wave::Source sb = b.make();
    for (int k = -4; k <= 40; ++k) {
        const double t = k * 7.3e-5;
        EXPECT_EQ(sa(t), sb(t)) << "t = " << t;
    }
}

void expect_waveform_bits(const wave::Waveform& a, const wave::Waveform& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a.times()[k], b.times()[k]);
        EXPECT_EQ(a.values()[k], b.values()[k]);
    }
}

void expect_matrix_bits(const la::Matrixd& a, const la::Matrixd& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    for (la::index_t j = 0; j < a.cols(); ++j)
        for (la::index_t i = 0; i < a.rows(); ++i)
            EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
}

void expect_csc_bits(const la::CscMatrix& a, const la::CscMatrix& b) {
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.col_ptr(), b.col_ptr());
    ASSERT_EQ(a.row_ind(), b.row_ind());
    ASSERT_EQ(a.values(), b.values());
}

/// One config per MethodConfig alternative, in Method tag order, with the
/// non-default option values MethodConfigRoundTripEveryAlternative
/// round-trips.
std::vector<api::MethodConfig> every_alternative() {
    opm::OpmOptions opm_opt;
    opm_opt.alpha = 0.5;
    opm_opt.form = opm::OpmForm::integral;
    opm_opt.path = opm::OpmPath::recurrence;
    opm_opt.history = opm::HistoryBackend::fft;
    opm_opt.soe_tol = 1e-6;
    opm_opt.x0 = la::Vectord{{1.0, -2.0, 0.5}};
    opm_opt.quad_points = 8;
    opm_opt.quad_panels = 3;

    opm::MultiTermOptions mt_opt;
    mt_opt.path = opm::MultiTermPath::toeplitz;
    mt_opt.history = opm::HistoryBackend::blocked;
    mt_opt.soe_tol = 2e-7;
    mt_opt.quad_points = 5;
    mt_opt.quad_panels = 2;

    opm::AdaptiveOptions ad_opt;
    ad_opt.alpha = 0.75;
    ad_opt.tol = 1e-5;
    ad_opt.h_init = 1e-6;
    ad_opt.h_min = 1e-9;
    ad_opt.h_max = 1e-3;
    ad_opt.history = opm::HistoryBackend::soe;
    ad_opt.soe_tol = 1e-9;
    ad_opt.x0 = la::Vectord{{0.125}};
    ad_opt.quad_points = 4;
    ad_opt.max_steps = 5000;
    ad_opt.max_consecutive_rejects = 12;

    transient::TransientOptions tr_opt;
    tr_opt.method = transient::Method::gear2;
    tr_opt.x0 = la::Vectord{{3.0, 4.0}};

    transient::GrunwaldOptions gl_opt;
    gl_opt.alpha = 0.8;
    gl_opt.history = opm::HistoryBackend::soe;
    gl_opt.soe_tol = 5e-8;
    gl_opt.x0 = la::Vectord{{-1.0}};

    return {opm_opt, mt_opt, ad_opt, tr_opt, gl_opt};
}

/// A value of the same type that differs from `v`.
double perturbed(double v) { return v + 1.0; }
int perturbed(int v) { return v + 1; }
long perturbed(long v) { return v + 1; }
la::Vectord perturbed(la::Vectord v) {
    v.push_back(7.0);
    return v;
}
template <class Enum>
    requires std::is_enum_v<Enum>
Enum perturbed(Enum v) {
    return static_cast<Enum>(static_cast<int>(v) == 0 ? 1 : 0);
}

api::MethodConfig wire_round_trip(const api::MethodConfig& c) {
    util::ByteWriter w;
    svc::encode(w, c);
    util::ByteReader r(w.data());
    return svc::decode_method_config(r);
}

/// Pin an encoding by its length and FNV-1a digest.
template <class T>
void expect_golden(const T& value, std::size_t size, std::uint64_t digest,
                   const std::string& what) {
    util::ByteWriter w;
    svc::encode(w, value);
    EXPECT_EQ(w.size(), size) << what;
    EXPECT_EQ(opmsim::fnv1a(w.data().data(), w.size()), digest)
        << what << " (0x" << std::hex << opmsim::fnv1a(w.data().data(), w.size())
        << ")";
}

} // namespace

// ---------------------------------------------------------------- framing

TEST(SvcWire, FrameHeaderRoundTrip) {
    for (std::uint8_t t = 0; t <= svc::kMaxMsgType; ++t) {
        svc::FrameHeader h;
        h.type = static_cast<svc::MsgType>(t);
        h.request_id = 0x0123456789ABCDEFull + t;
        h.payload_len = 1000 + t;
        util::ByteWriter w;
        svc::encode_frame_header(w, h);
        ASSERT_EQ(w.size(), svc::kFrameHeaderBytes);
        const svc::FrameHeader d =
            svc::decode_frame_header(w.data().data(), w.size(), kMaxPayload);
        EXPECT_EQ(d.ver_major, svc::kProtoMajor);
        EXPECT_EQ(d.ver_minor, svc::kProtoMinor);
        EXPECT_EQ(d.type, h.type);
        EXPECT_EQ(d.request_id, h.request_id);
        EXPECT_EQ(d.payload_len, h.payload_len);
    }
}

TEST(SvcWire, FrameHeaderRejectsTruncationBadMagicAndSkew) {
    svc::FrameHeader h;
    h.type = svc::MsgType::submit;
    h.request_id = 7;
    h.payload_len = 64;
    util::ByteWriter w;
    svc::encode_frame_header(w, h);
    std::vector<std::uint8_t> bytes = w.data();

    // Truncated header: every short length must be rejected.
    for (std::size_t n = 0; n < svc::kFrameHeaderBytes; ++n)
        EXPECT_EQ(classify([&] {
                      svc::decode_frame_header(bytes.data(), n, kMaxPayload);
                  }),
                  ErrorCode::invalid_scenario)
            << "n = " << n;

    // Bad magic.
    {
        auto b = bytes;
        b[0] ^= 0xFF;
        EXPECT_EQ(classify([&] {
                      svc::decode_frame_header(b.data(), b.size(), kMaxPayload);
                  }),
                  ErrorCode::invalid_scenario);
    }
    // Major-version skew is an incompatible change: reject.
    {
        auto b = bytes;
        b[4] = static_cast<std::uint8_t>(svc::kProtoMajor + 1);
        EXPECT_EQ(classify([&] {
                      svc::decode_frame_header(b.data(), b.size(), kMaxPayload);
                  }),
                  ErrorCode::invalid_scenario);
    }
    // Minor-version skew is additive: accept (min-wins happens at hello).
    {
        auto b = bytes;
        b[6] = static_cast<std::uint8_t>(svc::kProtoMinor + 1);
        const svc::FrameHeader d =
            svc::decode_frame_header(b.data(), b.size(), kMaxPayload);
        EXPECT_EQ(d.ver_minor, svc::kProtoMinor + 1);
    }
    // Unknown message type.
    {
        auto b = bytes;
        b[8] = svc::kMaxMsgType + 1;
        EXPECT_EQ(classify([&] {
                      svc::decode_frame_header(b.data(), b.size(), kMaxPayload);
                  }),
                  ErrorCode::invalid_scenario);
    }
    // Absurd payload length: capped BEFORE any allocation happens.
    {
        auto b = bytes;
        const std::uint64_t huge = std::uint64_t{1} << 60;
        std::memcpy(b.data() + 20, &huge, sizeof huge);
        EXPECT_EQ(classify([&] {
                      svc::decode_frame_header(b.data(), b.size(), kMaxPayload);
                  }),
                  ErrorCode::invalid_scenario);
    }
}

// ------------------------------------------------------------ round trips

TEST(SvcWire, SourceSpecRoundTripEveryKind) {
    const svc::SourceSpec specs[] = {
        svc::SourceSpec::step(1.5, 2e-4),
        svc::SourceSpec::pulse(2.0, 1e-4, 5e-5, 4e-4, 5e-5),
        svc::SourceSpec::pulse_train(1.0, 0.0, 1e-5, 2e-4, 1e-5, 1e-3),
        svc::SourceSpec::sine(0.75, 1.3e4, 0.4),
        svc::SourceSpec::exp_decay(3.0, 2e-4),
        svc::SourceSpec::pwl({0.0, 1e-3, 1.5e-3}, {0.0, 2.0, -1.0}),
        svc::SourceSpec::smooth_step(1.0, 1e-4, 5e-5),
        svc::SourceSpec::smooth_pulse(1.0, 1e-4, 5e-5, 3e-4, 5e-5),
        svc::SourceSpec::smooth_pulse_train(1.0, 0.0, 1e-5, 2e-4, 1e-5, 1e-3),
    };
    for (const svc::SourceSpec& s : specs) {
        util::ByteWriter w;
        svc::encode(w, s);
        const auto bytes = w.data();
        util::ByteReader r(bytes.data(), bytes.size());
        const svc::SourceSpec d = svc::decode_source_spec(r);
        EXPECT_EQ(r.remaining(), 0u);
        expect_sources_equal(s, d);
    }
}

TEST(SvcWire, MethodConfigRoundTripEveryAlternative) {
    opm::OpmOptions opm_opt;
    opm_opt.alpha = 0.5;
    opm_opt.form = opm::OpmForm::integral;
    opm_opt.path = opm::OpmPath::recurrence;
    opm_opt.history = opm::HistoryBackend::fft;
    opm_opt.soe_tol = 1e-6;
    opm_opt.x0 = la::Vectord{{1.0, -2.0, 0.5}};
    opm_opt.quad_points = 8;
    opm_opt.quad_panels = 3;

    opm::MultiTermOptions mt_opt;
    mt_opt.path = opm::MultiTermPath::toeplitz;
    mt_opt.history = opm::HistoryBackend::blocked;
    mt_opt.soe_tol = 2e-7;
    mt_opt.quad_points = 5;
    mt_opt.quad_panels = 2;

    opm::AdaptiveOptions ad_opt;
    ad_opt.alpha = 0.75;
    ad_opt.tol = 1e-5;
    ad_opt.h_init = 1e-6;
    ad_opt.h_min = 1e-9;
    ad_opt.h_max = 1e-3;
    ad_opt.history = opm::HistoryBackend::soe;
    ad_opt.soe_tol = 1e-9;
    ad_opt.x0 = la::Vectord{{0.125}};
    ad_opt.quad_points = 4;
    ad_opt.max_steps = 5000;
    ad_opt.max_consecutive_rejects = 12;

    transient::TransientOptions tr_opt;
    tr_opt.method = transient::Method::gear2;
    tr_opt.x0 = la::Vectord{{3.0, 4.0}};

    transient::GrunwaldOptions gl_opt;
    gl_opt.alpha = 0.8;
    gl_opt.history = opm::HistoryBackend::soe;
    gl_opt.soe_tol = 5e-8;
    gl_opt.x0 = la::Vectord{{-1.0}};

    const api::MethodConfig configs[] = {opm_opt, mt_opt, ad_opt, tr_opt,
                                         gl_opt};
    for (const api::MethodConfig& c : configs) {
        util::ByteWriter w;
        svc::encode(w, c);
        const auto bytes = w.data();
        util::ByteReader r(bytes.data(), bytes.size());
        const api::MethodConfig d = svc::decode_method_config(r);
        EXPECT_EQ(r.remaining(), 0u);
        ASSERT_EQ(c.index(), d.index());

        // batch_compatible compares exactly the option fields that travel
        // (caches/control never do): a config that round-trips must
        // coalesce with its original.
        api::Scenario a, b;
        a.t_end = b.t_end = 1e-3;
        a.steps = b.steps = 32;
        a.config = c;
        b.config = d;
        EXPECT_TRUE(api::batch_compatible(a, b))
            << "alternative " << c.index();
        EXPECT_STREQ(a.method_name(), b.method_name());
    }
}

TEST(SvcWire, ScenarioRoundTrip) {
    const svc::WireScenario sc = rich_scenario();
    const auto bytes = encode_scenario_bytes(sc);
    const svc::WireScenario d = decode_scenario_bytes(bytes);

    EXPECT_EQ(d.t_end, sc.t_end);
    EXPECT_EQ(d.steps, sc.steps);
    ASSERT_EQ(d.sources.size(), sc.sources.size());
    for (std::size_t k = 0; k < sc.sources.size(); ++k)
        expect_sources_equal(sc.sources[k], d.sources[k]);

    const api::Scenario a = sc.to_scenario();
    const api::Scenario b = d.to_scenario();
    EXPECT_TRUE(api::batch_compatible(a, b));
}

TEST(SvcWire, EmptyScenarioRoundTrip) {
    const svc::WireScenario sc;  // no sources, t_end = 0, steps = 0
    const svc::WireScenario d = decode_scenario_bytes(encode_scenario_bytes(sc));
    EXPECT_TRUE(d.sources.empty());
    EXPECT_EQ(d.t_end, 0.0);
    EXPECT_EQ(d.steps, 0);
    EXPECT_EQ(d.config.index(), sc.config.index());
}

TEST(SvcWire, StatusDiagnosticsAndStatsRoundTrip) {
    {
        const Status st{ErrorCode::nonfinite_input, "NaN at column 17"};
        util::ByteWriter w;
        svc::encode(w, st);
        const auto b = w.data();
        util::ByteReader r(b.data(), b.size());
        const Status d = svc::decode_status(r);
        EXPECT_EQ(d.code, st.code);
        EXPECT_EQ(d.message, st.message);
    }
    {
        Diagnostics dg;
        dg.factor_seconds = 0.25;
        dg.sweep_seconds = 1.5;
        dg.solve_seconds = 0.75;
        dg.rhs_solved = 4096;
        dg.history_backend = opm::HistoryBackend::soe;
        dg.soe_modes = 48;
        dg.soe_fit_error = 3e-9;
        dg.orderings = 2;
        dg.factor_cache_hits = 5;
        dg.degradations = {"supernodal->scalar"};
        dg.soe_fits = 3;
        util::ByteWriter w;
        svc::encode(w, dg);
        const auto b = w.data();
        util::ByteReader r(b.data(), b.size());
        const Diagnostics d = svc::decode_diagnostics(r);
        EXPECT_EQ(d.factor_seconds, dg.factor_seconds);
        EXPECT_EQ(d.sweep_seconds, dg.sweep_seconds);
        EXPECT_EQ(d.solve_seconds, dg.solve_seconds);
        EXPECT_EQ(d.rhs_solved, dg.rhs_solved);
        EXPECT_EQ(d.history_backend, dg.history_backend);
        EXPECT_EQ(d.soe_modes, dg.soe_modes);
        EXPECT_EQ(d.soe_fit_error, dg.soe_fit_error);
        EXPECT_EQ(d.orderings, dg.orderings);
        EXPECT_EQ(d.factor_cache_hits, dg.factor_cache_hits);
        EXPECT_EQ(d.degradations, dg.degradations);
        EXPECT_EQ(d.soe_fits, dg.soe_fits);
    }
    {
        const svc::ServiceStats st{11, 4, 7, 5, 13, 2, 1, 3};
        util::ByteWriter w;
        svc::encode(w, st);
        const auto b = w.data();
        util::ByteReader r(b.data(), b.size());
        const svc::ServiceStats d = svc::decode_service_stats(r);
        EXPECT_EQ(d.requests, st.requests);
        EXPECT_EQ(d.batches, st.batches);
        EXPECT_EQ(d.coalesced, st.coalesced);
        EXPECT_EQ(d.largest_batch, st.largest_batch);
        EXPECT_EQ(d.shed, st.shed);
        EXPECT_EQ(d.deadline_expired, st.deadline_expired);
        EXPECT_EQ(d.drains, st.drains);
        EXPECT_EQ(d.reconnects_seen, st.reconnects_seen);
    }
}

TEST(SvcWire, ServiceStatsFromAMinorZeroEncoderDecodesWithZeroNewCounters) {
    // A minor-0 peer's stats block ends after largest_batch; the minor-1
    // survivability counters it cannot know must decode as zero, not as
    // garbage or a decode error.
    util::ByteWriter w;
    {
        const auto tok = w.begin_block();
        w.u64(11);
        w.u64(4);
        w.u64(7);
        w.u64(5);
        w.end_block(tok);
    }
    const auto b = w.data();
    util::ByteReader r(b.data(), b.size());
    const svc::ServiceStats d = svc::decode_service_stats(r);
    EXPECT_EQ(d.requests, 11u);
    EXPECT_EQ(d.largest_batch, 5u);
    EXPECT_EQ(d.shed, 0u);
    EXPECT_EQ(d.deadline_expired, 0u);
    EXPECT_EQ(d.drains, 0u);
    EXPECT_EQ(d.reconnects_seen, 0u);
}

TEST(SvcWire, FrameCapFuzzRejectsEveryLengthBeyondTheBound) {
    // The same decode_frame_header bound protects BOTH directions (server
    // reader and, since PR 10, the client's receive path): fuzz payload
    // lengths against a spread of caps — at, below, above and far beyond
    // each cap must classify cleanly, never allocate, never crash.
    svc::FrameHeader h;
    h.type = svc::MsgType::result;
    h.request_id = 99;
    const std::size_t caps[] = {0, 1, 64, 4096, kMaxPayload};
    for (const std::size_t cap : caps) {
        const std::uint64_t probes[] = {
            0,
            1,
            cap > 0 ? cap - 1 : 0,
            cap,
            cap + 1,
            cap * 2 + 17,
            std::uint64_t{1} << 40,
            ~std::uint64_t{0}};
        for (const std::uint64_t len : probes) {
            h.payload_len = len;
            util::ByteWriter w;
            svc::encode_frame_header(w, h);
            const ErrorCode code = classify([&] {
                const svc::FrameHeader d =
                    svc::decode_frame_header(w.data().data(), w.size(), cap);
                EXPECT_EQ(d.payload_len, len);
            });
            EXPECT_EQ(code, len <= cap ? ErrorCode::ok
                                       : ErrorCode::invalid_scenario)
                << "cap " << cap << " len " << len;
        }
    }
}

TEST(SvcWire, DescriptorAndMultiTermSystemsRoundTripBitwise) {
    la::Triplets e(3, 3), a(3, 3), b(3, 1), c(1, 3);
    e.add(0, 0, 1e-9);
    e.add(1, 1, 2e-9);
    e.add(2, 2, 1.5e-9);
    a.add(0, 0, -2e-3);
    a.add(0, 1, 1e-3);
    a.add(1, 0, 1e-3);
    a.add(1, 1, -2e-3);
    a.add(1, 2, 1e-3);
    a.add(2, 1, 1e-3);
    a.add(2, 2, -1e-3);
    b.add(0, 0, 1e-3);
    c.add(0, 2, 1.0);

    opm::DescriptorSystem sys;
    sys.e = la::CscMatrix(e);
    sys.a = la::CscMatrix(a);
    sys.b = la::CscMatrix(b);
    sys.c = la::CscMatrix(c);
    {
        util::ByteWriter w;
        svc::encode(w, sys);
        const auto bytes = w.data();
        util::ByteReader r(bytes.data(), bytes.size());
        const opm::DescriptorSystem d = svc::decode_descriptor(r);
        expect_csc_bits(d.e, sys.e);
        expect_csc_bits(d.a, sys.a);
        expect_csc_bits(d.b, sys.b);
        expect_csc_bits(d.c, sys.c);
    }

    opm::MultiTermSystem mt;
    mt.lhs.push_back({1.5, sys.e});
    mt.lhs.push_back({0.0, sys.a});
    mt.rhs.push_back({0.0, sys.b});
    mt.c = sys.c;
    {
        util::ByteWriter w;
        svc::encode(w, mt);
        const auto bytes = w.data();
        util::ByteReader r(bytes.data(), bytes.size());
        const opm::MultiTermSystem d = svc::decode_multiterm(r);
        ASSERT_EQ(d.lhs.size(), mt.lhs.size());
        ASSERT_EQ(d.rhs.size(), mt.rhs.size());
        for (std::size_t k = 0; k < mt.lhs.size(); ++k) {
            EXPECT_EQ(d.lhs[k].order, mt.lhs[k].order);
            expect_csc_bits(d.lhs[k].mat, mt.lhs[k].mat);
        }
        for (std::size_t k = 0; k < mt.rhs.size(); ++k) {
            EXPECT_EQ(d.rhs[k].order, mt.rhs[k].order);
            expect_csc_bits(d.rhs[k].mat, mt.rhs[k].mat);
        }
        expect_csc_bits(d.c, mt.c);
    }
}

TEST(SvcWire, SolveResultRoundTripBitwise) {
    // A real solve, so the result carries non-trivial waveforms, states,
    // grid and diagnostics.
    la::Triplets e(2, 2), a(2, 2), b(2, 1);
    e.add(0, 0, 1e-9);
    e.add(1, 1, 1e-9);
    a.add(0, 0, -2e-3);
    a.add(0, 1, 1e-3);
    a.add(1, 0, 1e-3);
    a.add(1, 1, -1e-3);
    b.add(0, 0, 1e-3);
    opm::DescriptorSystem sys;
    sys.e = la::CscMatrix(e);
    sys.a = la::CscMatrix(a);
    sys.b = la::CscMatrix(b);

    api::Engine engine;
    const api::SystemHandle h = engine.add_system(std::move(sys));
    api::Scenario sc;
    sc.sources = {wave::step(1.0)};
    sc.t_end = 1e-5;
    sc.steps = 24;
    const api::SolveResult res = engine.run(h, sc);

    util::ByteWriter w;
    svc::encode(w, res);
    const auto bytes = w.data();
    util::ByteReader r(bytes.data(), bytes.size());
    const api::SolveResult d = svc::decode_result(r);
    EXPECT_EQ(r.remaining(), 0u);

    EXPECT_EQ(d.method, res.method);
    EXPECT_EQ(d.status.code, res.status.code);
    EXPECT_EQ(d.status.message, res.status.message);
    ASSERT_EQ(d.outputs.size(), res.outputs.size());
    for (std::size_t k = 0; k < res.outputs.size(); ++k)
        expect_waveform_bits(d.outputs[k], res.outputs[k]);
    expect_matrix_bits(d.states, res.states);
    EXPECT_EQ(d.grid, res.grid);
    EXPECT_EQ(d.steps, res.steps);
    EXPECT_EQ(d.diag.rhs_solved, res.diag.rhs_solved);
    EXPECT_EQ(d.diag.orderings, res.diag.orderings);
    EXPECT_EQ(d.diag.factor_seconds, res.diag.factor_seconds);
    EXPECT_EQ(d.diag.soe_fits, res.diag.soe_fits);
}

// A fold over fields() written with || instead of &&, or a table that
// drops an entry, would let scenarios with different options share one
// sweep; every round-trip test above would still pass.
TEST(SvcWire, EveryOptionFieldSeparatesBatchesAndTravels) {
    for (const api::MethodConfig& base : every_alternative()) {
        std::visit(
            [&base](const auto& opt) {
                using Options = std::decay_t<decltype(opt)>;
                int field = 0;
                opmsim::util::for_each_field<Options>([&](auto mp) {
                    Options changed = opt;
                    changed.*mp = perturbed(opt.*mp);
                    api::Scenario a, b;
                    a.t_end = b.t_end = 1e-3;
                    a.steps = b.steps = 32;
                    a.config = opt;
                    b.config = changed;
                    EXPECT_FALSE(api::batch_compatible(a, b))
                        << "alternative " << base.index() << " field " << field;
                    api::Scenario d = b;
                    d.config = wire_round_trip(b.config);
                    EXPECT_TRUE(api::batch_compatible(b, d))
                        << "alternative " << base.index() << " field " << field;
                    EXPECT_FALSE(api::batch_compatible(a, d))
                        << "alternative " << base.index() << " field " << field;
                    ++field;
                });
                EXPECT_GT(field, 0) << "alternative " << base.index();
            },
            base);
    }
}

TEST(SvcWire, TransientSymbolicSeparatesBatchesButNeverTravels) {
    la::Triplets t(1, 1);
    t.add(0, 0, 1.0);
    transient::TransientOptions pinned;
    pinned.symbolic =
        std::make_shared<const la::SparseLuSymbolic>(la::CscMatrix(t));
    api::Scenario a, b;
    a.t_end = b.t_end = 1e-3;
    a.steps = b.steps = 32;
    a.config = transient::TransientOptions{};
    b.config = pinned;
    EXPECT_FALSE(api::batch_compatible(a, b));

    api::Scenario d = b;
    d.config = wire_round_trip(b.config);
    EXPECT_EQ(std::get<transient::TransientOptions>(d.config).symbolic, nullptr);
    EXPECT_TRUE(api::batch_compatible(a, d));
}

// ------------------------------------------------------------ golden bytes

// Round trips cannot see a codec that writes two same-typed fields in
// swapped order on BOTH sides; these pins can.  Each encoding's length and
// FNV-1a digest were recorded from the hand-written codecs, so any change
// to the bytes on the wire fails here.
TEST(SvcWire, GoldenBytesEveryMethodConfigAlternative) {
    const std::size_t sizes[] = {68, 27, 102, 34, 42};
    const std::uint64_t digests[] = {0xa8359b92d811a65full, 0x2cf403e285fd2904ull,
                                     0x6b16a382641ae785ull, 0x941b2162ec1ff221ull,
                                     0x60929fcde4c5d159ull};
    const std::vector<api::MethodConfig> configs = every_alternative();
    for (std::size_t k = 0; k < configs.size(); ++k)
        expect_golden(configs[k], sizes[k], digests[k],
                      "alternative " + std::to_string(k));
}

TEST(SvcWire, GoldenBytesDiagnosticsStatsAndResult) {
    Diagnostics dg;
    dg.factor_seconds = 0.25;
    dg.sweep_seconds = 1.5;
    dg.solve_seconds = 0.75;
    dg.rhs_solved = 4096;
    dg.history_backend = opm::HistoryBackend::soe;
    dg.soe_modes = 48;
    dg.soe_fit_error = 3e-9;
    dg.kernel_evals = 123456;
    dg.ordering = la::SparseLuOptions::Ordering::amd;
    dg.orderings = 2;
    dg.factorizations = 3;
    dg.refactor_count = 4;
    dg.factor_cache_hits = 5;
    dg.rcond_estimate = 1.25e-7;
    dg.pivot_growth = 17.5;
    dg.refinement_iters = 6;
    dg.degradations = {"supernodal_fallback", "pivot_tol_refactor"};
    dg.soe_fits = 7;
    expect_golden(dg, 167, 0xc85d0b5c91532a77ull, "Diagnostics");

    const svc::ServiceStats st{11, 4, 7, 5, 13, 2, 1, 3};
    expect_golden(st, 72, 0xafb3a8ebf631fa85ull, "ServiceStats");

    api::SolveResult res;
    res.method = api::Method::grunwald;
    res.status = {ErrorCode::nonfinite_state, "NaN in column 3"};
    res.outputs = {wave::Waveform({0.0, 1.0}, {0.5, 0.25})};
    res.states = la::Matrixd(2, 3);
    res.states(1, 2) = 42.0;
    res.grid = la::Vectord{{0.0, 0.5, 1.0}};
    res.steps = la::Vectord{{0.5, 0.5}};
    res.diag = dg;
    expect_golden(res, 400, 0x2205047857581334ull, "SolveResult");
}

// ----------------------------------------------------- defensive decoding

TEST(SvcWire, ScenarioTruncationAtEveryPrefixIsRejectedCleanly) {
    const auto bytes = encode_scenario_bytes(rich_scenario());
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        const std::vector<std::uint8_t> prefix(bytes.begin(),
                                               bytes.begin() + n);
        EXPECT_EQ(classify([&] { decode_scenario_bytes(prefix); }),
                  ErrorCode::invalid_scenario)
            << "prefix length " << n;
    }
}

TEST(SvcWire, ScenarioSingleByteCorruptionNeverCrashes) {
    const auto bytes = encode_scenario_bytes(rich_scenario());
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        auto corrupted = bytes;
        corrupted[i] ^= 0xFF;
        // Either the corruption lands in a value (decodes fine, garbage
        // numbers the validation layer will catch) or in structure (clean
        // invalid_scenario).  Anything else — crash, hang, huge alloc —
        // fails the test by construction.
        const ErrorCode code =
            classify([&] { decode_scenario_bytes(corrupted); });
        EXPECT_TRUE(code == ErrorCode::ok ||
                    code == ErrorCode::invalid_scenario)
            << "byte " << i << " -> code " << static_cast<int>(code);
    }
}

TEST(SvcWire, ResultTruncationAtEveryPrefixIsRejectedCleanly) {
    api::SolveResult res;
    res.method = api::Method::transient;
    res.status = {ErrorCode::ok, ""};
    res.outputs = {wave::Waveform({0.0, 1.0}, {0.5, 0.25})};
    res.states = la::Matrixd(2, 3);
    res.states(1, 2) = 42.0;
    res.grid = la::Vectord{{0.0, 0.5, 1.0}};
    res.diag.rhs_solved = 3;
    util::ByteWriter w;
    svc::encode(w, res);
    const auto bytes = w.data();
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        EXPECT_EQ(classify([&] {
                      util::ByteReader r(bytes.data(), n);
                      svc::decode_result(r);
                  }),
                  ErrorCode::invalid_scenario)
            << "prefix length " << n;
    }
}

// ---------------------------------------------------- forward compatibility

TEST(SvcWire, TrailingFieldsFromNewerEncodersAreSkipped) {
    // Emulate a minor-version-bumped encoder: same scenario layout plus
    // extra trailing fields inside the length-prefixed block.  An
    // old decoder must consume the block and ignore what it doesn't know.
    const svc::WireScenario sc = rich_scenario();
    util::ByteWriter w;
    {
        const auto tok = w.begin_block();
        w.u64(sc.sources.size());
        for (const svc::SourceSpec& s : sc.sources) svc::encode(w, s);
        w.f64(sc.t_end);
        w.i64(sc.steps);
        svc::encode(w, sc.config);
        w.f64(3.14159);  // hypothetical future field
        w.str("future-field");
        w.end_block(tok);
    }
    const auto bytes = w.data();
    const svc::WireScenario d = decode_scenario_bytes(bytes);
    EXPECT_EQ(d.t_end, sc.t_end);
    EXPECT_EQ(d.steps, sc.steps);
    ASSERT_EQ(d.sources.size(), sc.sources.size());

    api::Scenario a = sc.to_scenario();
    api::Scenario b = d.to_scenario();
    EXPECT_TRUE(api::batch_compatible(a, b));
}
