#pragma once
/// \file solver.hpp
/// \brief OPM simulation of linear and fractional descriptor systems.
///
/// Implements the paper's core algorithm: expand states and inputs in BPFs,
/// replace d^alpha/dt^alpha with the operational matrix D^alpha, and solve
///     E X D^alpha = A X + B U            (eq. 14 / 27)
/// column by column, exploiting the upper-triangular structure of D^alpha.
/// One pencil factorization is reused across all m columns, so the cost is
/// O(n^beta) + m sparse solves + the Toeplitz history accumulation — the
/// paper's §IV quotes O(n m^2) for the latter; the fast history engine
/// (opm/fast_history.hpp) lowers it to O(n m log^2 m).
///
/// Two execution paths:
///  * `recurrence` (integer alpha = 1, differential form): the equation is
///    multiplied through by (I + Q), giving the two-term banded recurrence
///       (2/h E - A) X_j = (2/h E + A) X_{j-1} + B (U_j + U_{j-1}),
///    which is algebraically the trapezoidal rule — O(n m) total sweep.
///  * `toeplitz` (any alpha > 0): the general accumulation
///       (d_0 E - A) X_j = B U_j - E sum_{i<j} d_{j-i} X_i,
///    with the history sum evaluated by the backend selected through
///    OpmOptions::history (naive / blocked direct, or blocked FFT
///    convolution — see HistoryBackend).
/// Both produce identical results for alpha = 1 (verified by tests).
///
/// Initial conditions use the Caputo convention: x(t) = x0 + z(t) with
/// d^alpha z solved for; the fractional derivative of the constant x0
/// vanishes, so E d^a z = A z + (B u + A x0).

#include <tuple>
#include <vector>

#include "basis/basis.hpp"
#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "opm/diagnostics.hpp"
#include "opm/fast_history.hpp"
#include "wave/sources.hpp"
#include "wave/waveform.hpp"

namespace opmsim::util {
struct RunControl;
}

namespace opmsim::opm {

using la::index_t;
using la::Vectord;

/// Sparse descriptor system E x' = A x + B u, y = C x.  An empty C means
/// y = x (identity observation).
struct DescriptorSystem {
    la::CscMatrix e;  ///< n x n, may be singular (DAE)
    la::CscMatrix a;  ///< n x n
    la::CscMatrix b;  ///< n x p
    la::CscMatrix c;  ///< q x n, or empty

    [[nodiscard]] index_t num_states() const { return a.rows(); }
    [[nodiscard]] index_t num_inputs() const { return b.cols(); }
    [[nodiscard]] index_t num_outputs() const {
        return c.rows() > 0 ? c.rows() : num_states();
    }
    /// Throws std::invalid_argument on inconsistent dimensions.
    void validate() const;
};

/// Dense counterpart for small models (e.g. the 7-state transmission line).
struct DenseDescriptorSystem {
    la::Matrixd e, a, b, c;

    [[nodiscard]] DescriptorSystem to_sparse() const;
    [[nodiscard]] index_t num_states() const { return a.rows(); }
    [[nodiscard]] index_t num_inputs() const { return b.cols(); }
    [[nodiscard]] index_t num_outputs() const {
        return c.rows() > 0 ? c.rows() : num_states();
    }
};

enum class OpmForm {
    differential,  ///< E X D^alpha = A X + B U (the paper's formulation)
    integral       ///< E X = A X H^alpha + B U H^alpha (better for rough u)
};

enum class OpmPath {
    automatic,   ///< recurrence when available, else toeplitz
    recurrence,  ///< O(m) banded sweep; requires alpha == 1, differential
    toeplitz     ///< O(m^2) general sweep
};

struct OpmOptions {
    // Wire-visible: fields() below is the one list that batch grouping
    // (api::batch_compatible) and the svc wire codec fold over.  A new
    // option is appended to fields(); only Engine-injected pointers stay out.
    double alpha = 1.0;                   ///< differential order (> 0)
    OpmForm form = OpmForm::differential;
    OpmPath path = OpmPath::automatic;
    /// History-sum backend for the Toeplitz sweeps: `naive` is the O(m^2)
    /// oracle loop, `blocked` the register-tiled panel scatter, `fft` the
    /// O(m log^2 m) blocked-convolution scheme, `soe` the streaming
    /// sum-of-exponentials compression (O(K) state per row, opt-in);
    /// `automatic` picks among the exact backends by m.
    HistoryBackend history = HistoryBackend::automatic;
    /// Absolute l1 fit tolerance for the `soe` history backend's kernel
    /// compression (ignored by the exact backends).  The history-sum
    /// error per column is bounded by soe_tol * max column magnitude.
    double soe_tol = 1e-8;
    Vectord x0;                           ///< initial state; empty = zero
    int quad_points = 4;                  ///< input projection quadrature
    int quad_panels = 1;                  ///< composite panels per interval
    /// Optional cross-run cache bundle (non-owning; see opm/solve_cache.hpp).
    /// When set, pencil factorizations, FFT plans and rho series are
    /// served from / stored into it.  Results are bit-identical either
    /// way; the Engine facade threads one bundle per registered system.
    SolveCaches* caches = nullptr;
    /// Optional cooperative deadline / cancellation token (non-owning;
    /// util/status.hpp), checked at sweep-step granularity.  Injected by
    /// Engine::run_batch; left out of fields() like `caches`.
    const util::RunControl* control = nullptr;

    static constexpr auto fields() {
        return std::tuple{&OpmOptions::alpha,       &OpmOptions::form,
                          &OpmOptions::path,        &OpmOptions::history,
                          &OpmOptions::soe_tol,     &OpmOptions::x0,
                          &OpmOptions::quad_points, &OpmOptions::quad_panels};
    }
};

struct OpmResult {
    la::Matrixd coeffs;  ///< X: n x m BPF coefficient matrix
    Vectord edges;       ///< m+1 interval edges
    std::vector<wave::Waveform> outputs;  ///< per channel, midpoint samples

    /// Uniform timing / cache diagnostics (opm/diagnostics.hpp).
    Diagnostics diag;
};

/// Simulate on [0, t_end) with m uniform steps.
OpmResult simulate_opm(const DescriptorSystem& sys,
                       const std::vector<wave::Source>& inputs, double t_end,
                       index_t m, const OpmOptions& opt = {});

/// Dense-pencil convenience overload.
OpmResult simulate_opm(const DenseDescriptorSystem& sys,
                       const std::vector<wave::Source>& inputs, double t_end,
                       index_t m, const OpmOptions& opt = {});

/// Batched variant: S source sets against one system, identical grid and
/// options.  The pencil is factored once and every column step performs
/// ONE multi-RHS triangular solve across all S scenarios (the history
/// engines run on the stacked n*S row block), so the per-step factor and
/// history machinery is amortized S ways.  Results are per scenario and
/// match simulate_opm run S times up to floating-point reassociation in
/// the fft history backend (bit-identical on the recurrence path and the
/// naive/blocked backends); the shared work is accounted to the first
/// result's Diagnostics, the per-scenario rhs_solved to each.
std::vector<OpmResult> simulate_opm_batch(
    const DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    index_t m, const OpmOptions& opt = {});

/// Windowed (restarted) OPM for long horizons: the m columns are solved in
/// windows of `window` columns each, chaining the end-of-window state as
/// the next window's initial condition.  For alpha = 1 the chaining is
/// exact (the trapezoidal endpoint state is recovered from the averages),
/// so the result matches the monolithic solve to roundoff while the
/// working set stays O(n * window).  Fractional orders are rejected —
/// their memory kernel does not truncate at window boundaries.
OpmResult simulate_opm_windowed(const DescriptorSystem& sys,
                                const std::vector<wave::Source>& inputs,
                                double t_end, index_t m, index_t window,
                                const OpmOptions& opt = {});

/// OPM over an arbitrary orthogonal basis (integral form, dense Kronecker
/// solve):  E X = (A X + B U) P + E x0 k1^T.  This is the "switch the basis
/// functions" capability of §I; O((n m)^3), intended for small studies —
/// the BPF solvers above are the production path.
OpmResult simulate_generic_basis(const DenseDescriptorSystem& sys,
                                 const std::vector<wave::Source>& inputs,
                                 const basis::Basis& bas,
                                 const Vectord& x0 = {});

/// Output waveforms y_j = C (x_j + x0) at times[j], one per state column
/// x_j (C empty = identity, x0 empty = zero): the output assembly shared
/// by every solver path, one C product per column.
std::vector<wave::Waveform> outputs_at(const la::CscMatrix& c,
                                       const la::Matrixd& x,
                                       const Vectord& times,
                                       const Vectord& x0 = {});

/// Extract output waveforms y = C X sampled at interval midpoints.
std::vector<wave::Waveform> outputs_from_coeffs(const la::CscMatrix& c,
                                                const la::Matrixd& x,
                                                const Vectord& edges,
                                                const Vectord& x0 = {});

/// Extract output waveforms at the interval *edges* (including t = 0) by
/// unwinding the average: x(t_{j+1}) = 2 X_j - x(t_j).  For alpha = 1 this
/// recovers exactly the trapezoidal-rule endpoint states, which is the
/// natural grid for comparing OPM against classic steppers (Table II).
std::vector<wave::Waveform> endpoint_outputs_from_coeffs(const la::CscMatrix& c,
                                                         const la::Matrixd& x,
                                                         const Vectord& edges,
                                                         const Vectord& x0 = {});

} // namespace opmsim::opm
