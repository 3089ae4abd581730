#pragma once
/// \file grunwald.hpp
/// \brief Grünwald–Letnikov fractional time stepper (extra baseline).
///
/// Not in the paper, but the standard time-domain discretization of
/// fractional derivatives:
///     d^alpha x(t_k) ~= h^{-alpha} sum_{j=0..k} w_j x_{k-j},
///     w_j = (-1)^j C(alpha, j),
/// giving the implicit marching scheme
///     (w_0 h^{-alpha} E - A) x_k = B u_k - h^{-alpha} E sum_{j>=1} w_j x_{k-j}.
/// Like OPM's fractional path its history convolutions cost O(n m^2)
/// directly, or O(n m log^2 m) through the fast history engine — a useful
/// independent cross-check for every fractional experiment (Fig. E
/// compares OPM / GL / FFT against the Mittag-Leffler oracle).

#include "opm/solver.hpp"

namespace opmsim::transient {

struct GrunwaldOptions {
    // Wire-visible: fields() below is the one list that batch grouping
    // (api::batch_compatible) and the svc wire codec fold over.  A new
    // option is appended to fields(); only Engine-injected pointers stay out.
    double alpha = 0.5;  ///< fractional order, > 0
    /// History-sum backend (same semantics as OpmOptions::history).
    opm::HistoryBackend history = opm::HistoryBackend::automatic;
    /// Absolute l1 fit tolerance for the `soe` history backend (same
    /// semantics as OpmOptions::soe_tol; ignored by the exact backends).
    double soe_tol = 1e-8;
    /// Initial state, Caputo convention — the same shift as
    /// OpmOptions::x0 / AdaptiveOptions::x0: x(t) = x0 + z(t) with
    /// E d^alpha z = A z + (B u + A x0) and z(0) = 0 (the fractional
    /// derivative of the constant x0 vanishes).  Empty = zero.  This is
    /// what makes IC-bearing cross-solver oracles against the OPM paths
    /// possible.
    la::Vectord x0;
    /// Optional cross-run cache bundle (same semantics as
    /// OpmOptions::caches).
    opm::SolveCaches* caches = nullptr;
    /// Optional cooperative deadline / cancellation token (non-owning;
    /// util/status.hpp), checked at step granularity.  Injected by
    /// Engine::run_batch; left out of fields() like `caches`.
    const util::RunControl* control = nullptr;

    static constexpr auto fields() {
        return std::tuple{&GrunwaldOptions::alpha, &GrunwaldOptions::history,
                          &GrunwaldOptions::soe_tol, &GrunwaldOptions::x0};
    }
};

struct GrunwaldResult {
    la::Matrixd states;  ///< n x (m+1) including x(0) = x0 (zero if empty)
    la::Vectord times;
    std::vector<wave::Waveform> outputs;

    /// Uniform timing / cache diagnostics (opm/diagnostics.hpp).
    Diagnostics diag;
};

/// March m uniform GL steps over [0, t_end].
GrunwaldResult simulate_grunwald(const opm::DescriptorSystem& sys,
                                 const std::vector<wave::Source>& inputs,
                                 double t_end, la::index_t steps,
                                 const GrunwaldOptions& opt = {});

/// Batched variant: S source sets, one factorization, one shared
/// Grünwald–Letnikov history engine over the stacked n*S state rows and
/// one multi-RHS triangular solve per step.  Matches S separate runs up
/// to floating-point reassociation in the fft history backend
/// (bit-identical on naive/blocked).  Shared factor work is accounted to
/// the first result's Diagnostics; each result reports its own rhs_solved.
std::vector<GrunwaldResult> simulate_grunwald_batch(
    const opm::DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    la::index_t steps, const GrunwaldOptions& opt = {});

} // namespace opmsim::transient
