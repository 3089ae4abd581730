#pragma once
/// \file wire.hpp
/// \brief Versioned wire-level Scenario API for the opmsim service.
///
/// The scenario daemon (svc/server.hpp) and its clients speak a
/// length-prefixed binary protocol: every message is one frame — a fixed
/// 28-byte header followed by `payload_len` body bytes — and every struct
/// body is encoded with the bounds-checked little-endian primitives of
/// util/serial.hpp.  Doubles travel bit-preserved, so a scenario decoded
/// by the daemon produces results bit-identical to running the same
/// Scenario in process, and a SolveResult decoded by the client is
/// bit-identical to what the daemon's Engine returned — the property the
/// loopback tests pin.
///
/// Frame header layout (all little-endian):
///     u32  magic        "OPMS"
///     u16  ver_major    incompatible-change counter; must match exactly
///     u16  ver_minor    additive-change counter; min(client,server) wins
///     u8   type         MsgType
///     u8[3] reserved    zero
///     u64  request_id   echoed verbatim on the response frame(s)
///     u64  payload_len  body bytes following the header
///
/// Forward compatibility: struct bodies are length-prefixed blocks
/// (ByteWriter::begin_block / ByteReader::sub_reader), so a minor-version
/// bump may append fields and old decoders skip the trailing bytes they do
/// not know.  Decoding is defensive end to end — truncated, corrupt or
/// version-skewed input throws solver_error(ErrorCode::invalid_scenario),
/// never UB (tests/test_svc_wire.cpp fuzzes this).
///
/// Sources on the wire: wave::Source is an opaque std::function, so the
/// protocol ships SourceSpec — a tagged parameter record covering every
/// factory in wave/sources.hpp — and the daemon instantiates the actual
/// closures with SourceSpec::make().

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "api/scenario.hpp"
#include "opm/multiterm.hpp"
#include "util/serial.hpp"

namespace opmsim::svc {

// ---------------------------------------------------------------- framing

/// "OPMS" as a little-endian u32.
inline constexpr std::uint32_t kFrameMagic = 0x534D504F;
inline constexpr std::uint16_t kProtoMajor = 1;
/// Minor 1 (PR 10) appends: an optional u64 `deadline_ms` after the
/// scenario in submit bodies, a u8 reconnect flag in hello bodies, and the
/// {shed, deadline_expired, drains, reconnects_seen} ServiceStats counters.
/// All are trailing-block additions: a minor-0 peer negotiates them away
/// (min-wins) and a minor-1 decoder tolerates their absence.
inline constexpr std::uint16_t kProtoMinor = 1;
inline constexpr std::size_t kFrameHeaderBytes = 28;

enum class MsgType : std::uint8_t {
    hello = 0,            ///< client -> server, first frame; body empty, or
                          ///<   (minor >= 1) u8 reconnect flag
    hello_ack,            ///< server -> client: u16 major, u16 minor (negotiated)
    ok,                   ///< generic success reply; body depends on request
    error,                ///< failure reply; body = Status
    register_descriptor,  ///< body = DescriptorSystem; ok body = u64 handle
    register_multiterm,   ///< body = MultiTermSystem;  ok body = u64 handle
    remove_system,        ///< body = u64 handle; ok body empty
    submit,               ///< body = u64 handle + WireScenario, then
                          ///<   (minor >= 1) u64 deadline_ms (0 = none)
    result,               ///< reply to submit; body = SolveResult
    save_caches,          ///< body = u64 handle + str path; ok body empty
    load_caches,          ///< body = u64 handle + str path; ok body empty
    stats,                ///< body empty
    stats_reply,          ///< body = ServiceStats
    shutdown,             ///< body empty; server replies ok, then stops
    ping,                 ///< body empty
    pong,                 ///< reply to ping
};
inline constexpr std::uint8_t kMaxMsgType =
    static_cast<std::uint8_t>(MsgType::pong);

struct FrameHeader {
    std::uint16_t ver_major = kProtoMajor;
    std::uint16_t ver_minor = kProtoMinor;
    MsgType type = MsgType::ping;
    std::uint64_t request_id = 0;
    std::uint64_t payload_len = 0;
};

/// Append the 28 header bytes for `h` to `w`.
void encode_frame_header(util::ByteWriter& w, const FrameHeader& h);

/// Decode and validate a header from `n >= kFrameHeaderBytes` bytes:
/// magic, exact major-version match (minor skew is fine — that is what
/// minor versions are for), known type, payload_len <= max_payload.
/// Violations throw solver_error(ErrorCode::invalid_scenario).
FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t n,
                                std::size_t max_payload);

// --------------------------------------------------------------- payloads

/// Serializable excitation source: a tag plus the factory's parameters
/// (wave::Source itself is an opaque closure).  `params` is the factory
/// argument list in declaration order; `t`/`v` are used by `pwl` only.
struct SourceSpec {
    enum class Kind : std::uint8_t {
        step = 0,            ///< params: level, t0
        pulse,               ///< params: level, t0, rise, width, fall
        pulse_train,         ///< params: level, t0, rise, width, fall, period
        sine,                ///< params: amp, freq, phase
        exp_decay,           ///< params: amp, tau
        pwl,                 ///< t, v breakpoint arrays
        smooth_step,         ///< params: level, t0, rise
        smooth_pulse,        ///< params: level, t0, rise, width, fall
        smooth_pulse_train,  ///< params: level, t0, rise, width, fall, period
    };

    Kind kind = Kind::step;
    std::vector<double> params;
    std::vector<double> t, v;  ///< pwl breakpoints

    /// Instantiate the wave::Source this spec describes.  Throws
    /// std::invalid_argument when the parameter count does not match the
    /// kind (a decoded spec is always consistent — the decoder validates).
    [[nodiscard]] wave::Source make() const;

    /// The factory's parameter count for `kind` (0 for pwl).
    static std::size_t param_count(Kind kind);

    // Factory helpers mirroring wave/sources.hpp.
    static SourceSpec step(double level = 1.0, double t0 = 0.0);
    static SourceSpec pulse(double level, double t0, double rise, double width,
                            double fall);
    static SourceSpec pulse_train(double level, double t0, double rise,
                                  double width, double fall, double period);
    static SourceSpec sine(double amp, double freq, double phase = 0.0);
    static SourceSpec exp_decay(double amp, double tau);
    static SourceSpec pwl(std::vector<double> t, std::vector<double> v);
    static SourceSpec smooth_step(double level, double t0, double rise);
    static SourceSpec smooth_pulse(double level, double t0, double rise,
                                   double width, double fall);
    static SourceSpec smooth_pulse_train(double level, double t0, double rise,
                                         double width, double fall,
                                         double period);
};

/// The wire-level Scenario: api::Scenario with SourceSpecs in place of the
/// unserializable closures.  The MethodConfig travels as its options
/// struct's fields() table, the same table api::batch_compatible compares,
/// so two scenarios that coalesce into one micro-batch in process also
/// coalesce through the daemon.  A new option is appended to fields().
/// The process-local `caches`/`control` pointers (Engine-injected) and
/// TransientOptions::symbolic (decoded null; the daemon's per-system
/// caches supply the analysis) are not in the tables and never cross the
/// wire.
struct WireScenario {
    std::vector<SourceSpec> sources;
    double t_end = 0.0;
    la::index_t steps = 0;
    api::MethodConfig config = opm::OpmOptions{};

    /// Instantiate the in-process Scenario (sources materialized).
    [[nodiscard]] api::Scenario to_scenario() const;
};

/// Daemon micro-batching + survivability counters (stats_reply body, in
/// fields() order).  The last four are minor-1 additions: the encoder
/// appends them inside the length-prefixed block and the decoder reads
/// them only when bytes remain, so minor-0 peers interoperate in both
/// directions.
struct ServiceStats {
    std::uint64_t requests = 0;       ///< submit frames executed
    std::uint64_t batches = 0;        ///< run_batch sweeps dispatched
    std::uint64_t coalesced = 0;      ///< submits that shared a sweep with >= 1 other
    std::uint64_t largest_batch = 0;  ///< max submits in one sweep
    std::uint64_t shed = 0;           ///< submits rejected by admission control
    std::uint64_t deadline_expired = 0;  ///< submits answered deadline_exceeded
    std::uint64_t drains = 0;            ///< graceful drains begun
    std::uint64_t reconnects_seen = 0;   ///< hello frames flagged as reconnects

    static constexpr auto fields() {
        return std::tuple{&ServiceStats::requests,   &ServiceStats::batches,
                          &ServiceStats::coalesced,  &ServiceStats::largest_batch,
                          &ServiceStats::shed,       &ServiceStats::deadline_expired,
                          &ServiceStats::drains,     &ServiceStats::reconnects_seen};
    }
};

// Struct codecs.  Every encoder writes one length-prefixed block; every
// decoder consumes one and validates enums / counts / cross-field
// consistency, throwing solver_error(ErrorCode::invalid_scenario) on any
// violation.
void encode(util::ByteWriter& w, const SourceSpec& s);
SourceSpec decode_source_spec(util::ByteReader& r);

void encode(util::ByteWriter& w, const api::MethodConfig& config);
api::MethodConfig decode_method_config(util::ByteReader& r);

void encode(util::ByteWriter& w, const WireScenario& sc);
WireScenario decode_scenario(util::ByteReader& r);

void encode(util::ByteWriter& w, const Status& st);
Status decode_status(util::ByteReader& r);

void encode(util::ByteWriter& w, const Diagnostics& d);
Diagnostics decode_diagnostics(util::ByteReader& r);

void encode(util::ByteWriter& w, const wave::Waveform& wf);
wave::Waveform decode_waveform(util::ByteReader& r);

void encode(util::ByteWriter& w, const la::Matrixd& m);
la::Matrixd decode_matrix(util::ByteReader& r);

void encode(util::ByteWriter& w, const la::CscMatrix& m);
la::CscMatrix decode_csc(util::ByteReader& r);

void encode(util::ByteWriter& w, const api::SolveResult& res);
api::SolveResult decode_result(util::ByteReader& r);

void encode(util::ByteWriter& w, const opm::DescriptorSystem& sys);
opm::DescriptorSystem decode_descriptor(util::ByteReader& r);

void encode(util::ByteWriter& w, const opm::MultiTermSystem& sys);
opm::MultiTermSystem decode_multiterm(util::ByteReader& r);

void encode(util::ByteWriter& w, const ServiceStats& s);
ServiceStats decode_service_stats(util::ByteReader& r);

} // namespace opmsim::svc
