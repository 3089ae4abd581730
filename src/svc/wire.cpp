#include "svc/wire.hpp"

#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "util/fields.hpp"
#include "wave/sources.hpp"

namespace opmsim::svc {

namespace {

// ------------------------------------------------------------ field codecs
//
// The wire type of a field follows from its C++ type, so the struct codecs
// below are folds over each struct's fields() table (util/fields.hpp).

/// Decode-side enum range guard: values beyond the last enumerator are a
/// classified decode error, never a wild enum.
template <class Enum>
Enum checked_enum(util::ByteReader& r, Enum last, const char* what) {
    const std::uint8_t v = r.u8();
    if (v > static_cast<std::uint8_t>(last))
        r.fail(std::string("invalid ") + what + " enum value " +
               std::to_string(v));
    return static_cast<Enum>(v);
}

/// The last enumerator (and its name in decode errors) of every enum that
/// travels as a u8 through put()/get() below.
constexpr auto enum_bound(api::Method) {
    return std::pair{api::Method::grunwald, "method"};
}
constexpr auto enum_bound(SourceSpec::Kind) {
    return std::pair{SourceSpec::Kind::smooth_pulse_train, "source kind"};
}
constexpr auto enum_bound(opm::OpmForm) {
    return std::pair{opm::OpmForm::integral, "OPM form"};
}
constexpr auto enum_bound(opm::OpmPath) {
    return std::pair{opm::OpmPath::toeplitz, "OPM path"};
}
constexpr auto enum_bound(opm::MultiTermPath) {
    return std::pair{opm::MultiTermPath::toeplitz, "multiterm path"};
}
constexpr auto enum_bound(opm::HistoryBackend) {
    return std::pair{opm::HistoryBackend::soe, "history backend"};
}
constexpr auto enum_bound(transient::Method) {
    return std::pair{transient::Method::gear2, "transient method"};
}
constexpr auto enum_bound(la::SparseLuOptions::Ordering) {
    return std::pair{la::SparseLuOptions::Ordering::automatic, "pencil ordering"};
}

void put(util::ByteWriter& w, double v) { w.f64(v); }
void put(util::ByteWriter& w, int v) { w.i32(v); }
void put(util::ByteWriter& w, long v) { w.i64(v); }
void put(util::ByteWriter& w, std::uint64_t v) { w.u64(v); }
void put(util::ByteWriter& w, const std::vector<double>& v) { w.vec_f64(v); }
void put(util::ByteWriter& w, const std::vector<std::string>& v) {
    w.u64(v.size());
    for (const std::string& s : v) w.str(s);
}
template <class Enum>
    requires std::is_enum_v<Enum>
void put(util::ByteWriter& w, Enum v) {
    w.u8(static_cast<std::uint8_t>(v));
}

void get(util::ByteReader& r, double& v) { v = r.f64(); }
void get(util::ByteReader& r, int& v) { v = r.i32(); }
void get(util::ByteReader& r, long& v) { v = r.i64(); }
void get(util::ByteReader& r, std::uint64_t& v) { v = r.u64(); }
void get(util::ByteReader& r, std::vector<double>& v) { v = r.vec_f64(); }
void get(util::ByteReader& r, std::vector<std::string>& v) {
    const std::size_t n = r.count(8, "string list");
    v.reserve(n);
    for (std::size_t k = 0; k < n; ++k) v.push_back(r.str());
}
template <class Enum>
    requires std::is_enum_v<Enum>
void get(util::ByteReader& r, Enum& v) {
    const auto [last, what] = enum_bound(Enum{});
    v = checked_enum(r, last, what);
}

template <class T>
void put_fields(util::ByteWriter& w, const T& obj) {
    util::for_each_field<T>([&](auto mp) { put(w, obj.*mp); });
}

template <class T>
void get_fields(util::ByteReader& r, T& obj) {
    util::for_each_field<T>([&](auto mp) { get(r, obj.*mp); });
}

} // namespace

// ---------------------------------------------------------------- framing

void encode_frame_header(util::ByteWriter& w, const FrameHeader& h) {
    w.u32(kFrameMagic);
    w.u16(h.ver_major);
    w.u16(h.ver_minor);
    w.u8(static_cast<std::uint8_t>(h.type));
    w.u8(0);
    w.u8(0);
    w.u8(0);
    w.u64(h.request_id);
    w.u64(h.payload_len);
}

FrameHeader decode_frame_header(const std::uint8_t* data, std::size_t n,
                                std::size_t max_payload) {
    util::ByteReader r(data, n);
    if (r.remaining() < kFrameHeaderBytes) r.fail("truncated frame header");
    if (r.u32() != kFrameMagic) r.fail("bad frame magic");
    FrameHeader h;
    h.ver_major = r.u16();
    h.ver_minor = r.u16();
    if (h.ver_major != kProtoMajor)
        r.fail("unsupported protocol major version " +
               std::to_string(h.ver_major) + " (this build speaks " +
               std::to_string(kProtoMajor) + ")");
    const std::uint8_t t = r.u8();
    if (t > kMaxMsgType)
        r.fail("unknown message type " + std::to_string(t));
    h.type = static_cast<MsgType>(t);
    r.skip(3);
    h.request_id = r.u64();
    h.payload_len = r.u64();
    if (h.payload_len > max_payload)
        r.fail("frame payload of " + std::to_string(h.payload_len) +
               " bytes exceeds the " + std::to_string(max_payload) +
               "-byte limit");
    return h;
}

// ------------------------------------------------------------- SourceSpec

std::size_t SourceSpec::param_count(Kind kind) {
    switch (kind) {
    case Kind::step: return 2;
    case Kind::pulse: return 5;
    case Kind::pulse_train: return 6;
    case Kind::sine: return 3;
    case Kind::exp_decay: return 2;
    case Kind::pwl: return 0;
    case Kind::smooth_step: return 3;
    case Kind::smooth_pulse: return 5;
    case Kind::smooth_pulse_train: return 6;
    }
    return 0;
}

wave::Source SourceSpec::make() const {
    OPMSIM_REQUIRE(params.size() == param_count(kind),
                   "SourceSpec: parameter count does not match the kind");
    const std::vector<double>& p = params;
    switch (kind) {
    case Kind::step: return wave::step(p[0], p[1]);
    case Kind::pulse: return wave::pulse(p[0], p[1], p[2], p[3], p[4]);
    case Kind::pulse_train:
        return wave::pulse_train(p[0], p[1], p[2], p[3], p[4], p[5]);
    case Kind::sine: return wave::sine(p[0], p[1], p[2]);
    case Kind::exp_decay: return wave::exp_decay(p[0], p[1]);
    case Kind::pwl: return wave::pwl(t, v);
    case Kind::smooth_step: return wave::smooth_step(p[0], p[1], p[2]);
    case Kind::smooth_pulse:
        return wave::smooth_pulse(p[0], p[1], p[2], p[3], p[4]);
    case Kind::smooth_pulse_train:
        return wave::smooth_pulse_train(p[0], p[1], p[2], p[3], p[4], p[5]);
    }
    OPMSIM_ENSURE(false, "SourceSpec::make: unreachable kind");
}

namespace {
SourceSpec spec_of(SourceSpec::Kind kind, std::vector<double> params) {
    SourceSpec s;
    s.kind = kind;
    s.params = std::move(params);
    return s;
}
} // namespace

SourceSpec SourceSpec::step(double level, double t0) {
    return spec_of(Kind::step, {level, t0});
}
SourceSpec SourceSpec::pulse(double level, double t0, double rise, double width,
                             double fall) {
    return spec_of(Kind::pulse, {level, t0, rise, width, fall});
}
SourceSpec SourceSpec::pulse_train(double level, double t0, double rise,
                                   double width, double fall, double period) {
    return spec_of(Kind::pulse_train, {level, t0, rise, width, fall, period});
}
SourceSpec SourceSpec::sine(double amp, double freq, double phase) {
    return spec_of(Kind::sine, {amp, freq, phase});
}
SourceSpec SourceSpec::exp_decay(double amp, double tau) {
    return spec_of(Kind::exp_decay, {amp, tau});
}
SourceSpec SourceSpec::pwl(std::vector<double> t, std::vector<double> v) {
    SourceSpec s;
    s.kind = Kind::pwl;
    s.t = std::move(t);
    s.v = std::move(v);
    return s;
}
SourceSpec SourceSpec::smooth_step(double level, double t0, double rise) {
    return spec_of(Kind::smooth_step, {level, t0, rise});
}
SourceSpec SourceSpec::smooth_pulse(double level, double t0, double rise,
                                    double width, double fall) {
    return spec_of(Kind::smooth_pulse, {level, t0, rise, width, fall});
}
SourceSpec SourceSpec::smooth_pulse_train(double level, double t0, double rise,
                                          double width, double fall,
                                          double period) {
    return spec_of(Kind::smooth_pulse_train,
                   {level, t0, rise, width, fall, period});
}

void encode(util::ByteWriter& w, const SourceSpec& s) {
    const std::size_t tok = w.begin_block();
    w.u8(static_cast<std::uint8_t>(s.kind));
    w.vec_f64(s.params);
    w.vec_f64(s.t);
    w.vec_f64(s.v);
    w.end_block(tok);
}

SourceSpec decode_source_spec(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    SourceSpec s;
    get(r, s.kind);
    s.params = r.vec_f64();
    s.t = r.vec_f64();
    s.v = r.vec_f64();
    if (s.params.size() != SourceSpec::param_count(s.kind))
        r.fail("source parameter count does not match its kind");
    if (s.kind == SourceSpec::Kind::pwl && s.t.size() != s.v.size())
        r.fail("pwl breakpoint arrays differ in length");
    return s;
}

// ------------------------------------------------------------ MethodConfig

void encode(util::ByteWriter& w, const api::MethodConfig& config) {
    w.u8(static_cast<std::uint8_t>(config.index()));
    const std::size_t tok = w.begin_block();
    // The process-local caches/control/symbolic members are not in the
    // options' fields() tables, so they never travel.
    std::visit([&w](const auto& o) { put_fields(w, o); }, config);
    w.end_block(tok);
}

api::MethodConfig decode_method_config(util::ByteReader& outer) {
    api::Method tag{};
    get(outer, tag);
    util::ByteReader r = outer.sub_reader();
    // Method tags index the MethodConfig alternatives (api::method_of).
    // TransientOptions::symbolic stays null: the daemon's per-system
    // SolveCaches supply the pattern analysis instead.
    api::MethodConfig config;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        ((static_cast<std::size_t>(tag) == I
              ? get_fields(r, config.emplace<I>())
              : void()),
         ...);
    }(std::make_index_sequence<std::variant_size_v<api::MethodConfig>>{});
    return config;
}

// ---------------------------------------------------------------- Scenario

void encode(util::ByteWriter& w, const WireScenario& sc) {
    const std::size_t tok = w.begin_block();
    w.u64(sc.sources.size());
    for (const SourceSpec& s : sc.sources) encode(w, s);
    w.f64(sc.t_end);
    w.i64(sc.steps);
    encode(w, sc.config);
    w.end_block(tok);
}

WireScenario decode_scenario(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    WireScenario sc;
    const std::size_t nsrc = r.count(8, "sources");
    sc.sources.reserve(nsrc);
    for (std::size_t k = 0; k < nsrc; ++k)
        sc.sources.push_back(decode_source_spec(r));
    sc.t_end = r.f64();
    sc.steps = static_cast<la::index_t>(r.i64());
    sc.config = decode_method_config(r);
    return sc;
}

api::Scenario WireScenario::to_scenario() const {
    api::Scenario sc;
    sc.sources.reserve(sources.size());
    for (const SourceSpec& s : sources) sc.sources.push_back(s.make());
    sc.t_end = t_end;
    sc.steps = steps;
    sc.config = config;
    return sc;
}

// ------------------------------------------------------- Status/Diagnostics

void encode(util::ByteWriter& w, const Status& st) {
    const std::size_t tok = w.begin_block();
    w.u8(static_cast<std::uint8_t>(st.code));
    w.str(st.message);
    w.end_block(tok);
}

Status decode_status(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    Status st;
    st.code = checked_enum(r, ErrorCode::unavailable, "error code");
    st.message = r.str();
    return st;
}

void encode(util::ByteWriter& w, const Diagnostics& d) {
    const std::size_t tok = w.begin_block();
    put_fields(w, d);
    w.end_block(tok);
}

Diagnostics decode_diagnostics(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    Diagnostics d;
    get_fields(r, d);
    return d;
}

// ------------------------------------------------------- numeric containers

void encode(util::ByteWriter& w, const wave::Waveform& wf) {
    const std::size_t tok = w.begin_block();
    w.vec_f64(wf.times());
    w.vec_f64(wf.values());
    w.end_block(tok);
}

wave::Waveform decode_waveform(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    std::vector<double> t = r.vec_f64();
    std::vector<double> v = r.vec_f64();
    if (t.size() != v.size())
        r.fail("waveform time/value arrays differ in length");
    if (t.empty()) return {};
    return {std::move(t), std::move(v)};
}

void encode(util::ByteWriter& w, const la::Matrixd& m) {
    const std::size_t tok = w.begin_block();
    w.i64(m.rows());
    w.i64(m.cols());
    const std::size_t n = static_cast<std::size_t>(m.rows()) *
                          static_cast<std::size_t>(m.cols());
    for (std::size_t k = 0; k < n; ++k) w.f64(m.data()[k]);
    w.end_block(tok);
}

la::Matrixd decode_matrix(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    const std::int64_t rows = r.i64();
    const std::int64_t cols = r.i64();
    if (rows < 0 || cols < 0) r.fail("negative matrix dimension");
    const std::uint64_t n =
        static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
    if (n > r.remaining() / 8)
        r.fail("matrix body shorter than rows*cols doubles");
    la::Matrixd m(static_cast<la::index_t>(rows), static_cast<la::index_t>(cols));
    for (std::uint64_t k = 0; k < n; ++k) m.data()[k] = r.f64();
    return m;
}

void encode(util::ByteWriter& w, const la::CscMatrix& m) {
    const std::size_t tok = w.begin_block();
    w.i64(m.rows());
    w.i64(m.cols());
    w.vec_int(m.col_ptr());
    w.vec_int(m.row_ind());
    w.vec_f64(m.values());
    w.end_block(tok);
}

la::CscMatrix decode_csc(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    const auto rows = static_cast<la::index_t>(r.i64());
    const auto cols = static_cast<la::index_t>(r.i64());
    std::vector<la::index_t> colp = r.vec_int<la::index_t>();
    std::vector<la::index_t> rowi = r.vec_int<la::index_t>();
    std::vector<double> val = r.vec_f64();
    // from_parts enforces the CSC invariants; its std::invalid_argument
    // classifies as invalid_scenario at the service boundary.
    return la::CscMatrix::from_parts(rows, cols, std::move(colp),
                                     std::move(rowi), std::move(val));
}

// ------------------------------------------------------------- SolveResult

void encode(util::ByteWriter& w, const api::SolveResult& res) {
    const std::size_t tok = w.begin_block();
    w.u8(static_cast<std::uint8_t>(res.method));
    encode(w, res.status);
    w.u64(res.outputs.size());
    for (const wave::Waveform& wf : res.outputs) encode(w, wf);
    encode(w, res.states);
    w.vec_f64(res.grid);
    w.vec_f64(res.steps);
    encode(w, res.diag);
    w.end_block(tok);
}

api::SolveResult decode_result(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    api::SolveResult res;
    get(r, res.method);
    res.status = decode_status(r);
    const std::size_t nout = r.count(8, "output waveforms");
    res.outputs.reserve(nout);
    for (std::size_t k = 0; k < nout; ++k)
        res.outputs.push_back(decode_waveform(r));
    res.states = decode_matrix(r);
    res.grid = r.vec_f64();
    res.steps = r.vec_f64();
    res.diag = decode_diagnostics(r);
    return res;
}

// ----------------------------------------------------------------- systems

void encode(util::ByteWriter& w, const opm::DescriptorSystem& sys) {
    const std::size_t tok = w.begin_block();
    encode(w, sys.e);
    encode(w, sys.a);
    encode(w, sys.b);
    encode(w, sys.c);
    w.end_block(tok);
}

opm::DescriptorSystem decode_descriptor(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    opm::DescriptorSystem sys;
    sys.e = decode_csc(r);
    sys.a = decode_csc(r);
    sys.b = decode_csc(r);
    sys.c = decode_csc(r);
    return sys;
}

void encode(util::ByteWriter& w, const opm::MultiTermSystem& sys) {
    const std::size_t tok = w.begin_block();
    w.u64(sys.lhs.size());
    for (const opm::LhsTerm& t : sys.lhs) {
        w.f64(t.order);
        encode(w, t.mat);
    }
    w.u64(sys.rhs.size());
    for (const opm::RhsTerm& t : sys.rhs) {
        w.f64(t.order);
        encode(w, t.mat);
    }
    encode(w, sys.c);
    w.end_block(tok);
}

opm::MultiTermSystem decode_multiterm(util::ByteReader& outer) {
    util::ByteReader r = outer.sub_reader();
    opm::MultiTermSystem sys;
    const std::size_t nlhs = r.count(16, "lhs terms");
    sys.lhs.reserve(nlhs);
    for (std::size_t k = 0; k < nlhs; ++k) {
        opm::LhsTerm t;
        t.order = r.f64();
        t.mat = decode_csc(r);
        sys.lhs.push_back(std::move(t));
    }
    const std::size_t nrhs = r.count(16, "rhs terms");
    sys.rhs.reserve(nrhs);
    for (std::size_t k = 0; k < nrhs; ++k) {
        opm::RhsTerm t;
        t.order = r.f64();
        t.mat = decode_csc(r);
        sys.rhs.push_back(std::move(t));
    }
    sys.c = decode_csc(r);
    return sys;
}

// ------------------------------------------------------------------- stats

void encode(util::ByteWriter& w, const ServiceStats& s) {
    const std::size_t tok = w.begin_block();
    put_fields(w, s);
    w.end_block(tok);
}

ServiceStats decode_service_stats(util::ByteReader& outer) {
    // A minor-0 encoder stops after the first four counters; the minor-1
    // ones it cannot know stay 0.
    constexpr std::size_t kMinor0Fields = 4;
    util::ByteReader r = outer.sub_reader();
    ServiceStats s;
    std::size_t k = 0;
    util::for_each_field<ServiceStats>([&](auto mp) {
        if (k++ < kMinor0Fields || r.remaining() >= sizeof(s.*mp))
            get(r, s.*mp);
    });
    return s;
}

} // namespace opmsim::svc
