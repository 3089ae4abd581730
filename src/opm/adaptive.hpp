#pragma once
/// \file adaptive.hpp
/// \brief Adaptive-time-step OPM (paper §III-B and eq. 25).
///
/// The adaptive BPFs (eq. 16) give column-dependent operational matrices
/// D~ (eq. 17); the column sweep still works because D~^alpha stays upper
/// triangular, and entry (i,j) depends only on steps h_i..h_j — so columns
/// can be *grown incrementally* as the controller accepts steps.
///
/// Per-column machinery:
///  * alpha = 1: column j of D~ is closed-form ((2/h_j) diagonal,
///    alternating +-4/h_j above); repeated steps are fine.
///  * fractional alpha: column j of D~^alpha is computed with the Parlett
///    recurrence on the triangular D~, which requires pairwise-distinct
///    steps — exactly the condition the paper attaches to eq. (25).  The
///    driver nudges colliding steps apart by a relative 1e-4 (the
///    controller is free to choose steps, so this costs nothing but makes
///    the decomposition well separated).
///
/// The error controller is classic step doubling: each proposed step is
/// also taken as two half steps; the end-of-interval states (recovered from
/// BPF averages via x_end ~= 2 X_j - x_start) are compared, and the step is
/// halved/doubled to hold the relative difference near `tol`.

#include "opm/solver.hpp"

namespace opmsim::opm {

struct AdaptiveOptions {
    // Wire-visible: fields() below is the one list that batch grouping
    // (api::batch_compatible) and the svc wire codec fold over.  A new
    // option is appended to fields(); only Engine-injected pointers stay out.
    double alpha = 1.0;  ///< differential order (> 0)
    double tol = 1e-4;   ///< relative local error target
    double atol = 0.0;   ///< absolute error floor (solution units);
                         ///< accept when diff <= atol + tol * |x|
    double h_init = 0.0; ///< 0 => t_end / 64
    double h_min = 0.0;  ///< 0 => t_end * 1e-9
    double h_max = 0.0;  ///< 0 => t_end / 4
    Vectord x0;          ///< initial state (Caputo shift); empty = 0
    /// History representation for the fractional column sweep.  The dense
    /// default evaluates every exact Riemann–Liouville entry H~_ij — O(j)
    /// kernel evaluations per column, O(m^2) per run.  `soe` fits the RL
    /// kernel u^{alpha-1}/Gamma(alpha) by a sum of K exponentials once
    /// (see opm/soe.hpp) and keeps the far history as 2K streaming mode
    /// states whose recurrence is EXACT for any step sequence — O(K) per
    /// column, with only the adjacent column and the diagonal still
    /// computed exactly.  Requires alpha in (0, 1); outside that range
    /// (and for the alpha = 1 running-sum fast path) the engine silently
    /// uses the exact dense path and reports history_backend = naive.
    /// Backends other than `soe` all mean "exact dense" here.
    HistoryBackend history = HistoryBackend::automatic;
    /// Relative fit tolerance for the `soe` kernel compression.
    double soe_tol = 1e-8;
    int quad_points = 4;
    index_t max_steps = 200000;
    /// Force-accept after this many consecutive rejections.  Fractional
    /// responses start as t^alpha, so the *relative* step-doubling error at
    /// the origin is scale-invariant (~1 - 2^{-alpha}) and no step size can
    /// satisfy a pure relative tolerance there; bounding the rejection run
    /// produces the graded startup mesh fractional solvers need while the
    /// absolute error stays O(h_final^alpha) — locally tiny and, thanks to
    /// the decaying memory kernel, globally harmless.
    index_t max_consecutive_rejects = 15;
    /// Optional cross-run cache bundle (same semantics as
    /// OpmOptions::caches).  Adaptive runs benefit twice: the pencil
    /// pattern analysis is shared across every step size, and repeated
    /// runs re-encountering the same step sizes reuse whole numeric
    /// factors.
    SolveCaches* caches = nullptr;
    /// Optional cooperative deadline / cancellation token (non-owning;
    /// util/status.hpp), checked once per controller trial.  Injected by
    /// Engine::run_batch; left out of fields() like `caches`.
    const util::RunControl* control = nullptr;

    static constexpr auto fields() {
        return std::tuple{&AdaptiveOptions::alpha,
                          &AdaptiveOptions::tol,
                          &AdaptiveOptions::atol,
                          &AdaptiveOptions::h_init,
                          &AdaptiveOptions::h_min,
                          &AdaptiveOptions::h_max,
                          &AdaptiveOptions::history,
                          &AdaptiveOptions::soe_tol,
                          &AdaptiveOptions::x0,
                          &AdaptiveOptions::quad_points,
                          &AdaptiveOptions::max_steps,
                          &AdaptiveOptions::max_consecutive_rejects};
    }
};

struct AdaptiveResult {
    la::Matrixd coeffs;  ///< n x m, m = number of accepted steps
    Vectord steps;       ///< accepted step lengths
    Vectord edges;       ///< m+1 interval edges
    std::vector<wave::Waveform> outputs;

    /// Uniform timing / cache diagnostics (opm/diagnostics.hpp).  Unlike
    /// the legacy `factorizations` counter below, diag.factorizations
    /// counts only factors *computed* here — pencils served from
    /// AdaptiveOptions::caches do not inflate it.
    Diagnostics diag;

    index_t accepted = 0;
    index_t rejected = 0;
};

/// Simulate E d^alpha x = A x + B u on [0, t_end) with adaptive steps.
AdaptiveResult simulate_opm_adaptive(const DescriptorSystem& sys,
                                     const std::vector<wave::Source>& inputs,
                                     double t_end,
                                     const AdaptiveOptions& opt = {});

/// Dense-pencil convenience overload.
AdaptiveResult simulate_opm_adaptive(const DenseDescriptorSystem& sys,
                                     const std::vector<wave::Source>& inputs,
                                     double t_end,
                                     const AdaptiveOptions& opt = {});

/// Simulate on a PRESCRIBED nonuniform grid: one column per entry of
/// `steps` (every step > 0), no error control — the controller fields of
/// `opt` (tol, h_*, max_*) are ignored; alpha, x0, history, soe_tol,
/// quad_points, caches and control apply.  This is the integral-form
/// adaptive engine driven without trial steps, so it is the oracle
/// surface for clustered / equal / strongly graded step sequences and
/// the direct way to use the `soe` streaming history on a user grid.
AdaptiveResult simulate_opm_nonuniform(const DescriptorSystem& sys,
                                       const std::vector<wave::Source>& inputs,
                                       const Vectord& steps,
                                       const AdaptiveOptions& opt = {});

} // namespace opmsim::opm
