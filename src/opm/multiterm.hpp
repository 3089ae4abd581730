#pragma once
/// \file multiterm.hpp
/// \brief OPM for multi-term (high-order / mixed fractional) systems.
///
/// Section IV of the paper treats high-order differential systems as
/// special cases of fractional ones.  Real circuit models are *multi-term*:
/// the second-order nodal-analysis model of an RLC power grid reads
///     A2 x'' + A1 x' + A0 x = B0 u + B1 u',
/// and a fractional multi-term generalization is
///     sum_k A_k X D^{alpha_k} = sum_l B_l U D^{beta_l}.
/// Because every D^{alpha} shares the same upper-triangular Toeplitz
/// structure, the column-by-column solve carries over unchanged: the pencil
/// (sum_k d0^(k) A_k) is factored once and each column costs one solve plus
/// the K Toeplitz history sums, which are delegated to the batched
/// MultiTermHistoryEngine (opm/fast_history.hpp) — the same
/// naive | blocked | fft | automatic backends as the single-term solver,
/// selected by MultiTermOptions::history, with the forward FFT of each
/// solved-column block shared across all K terms.  Derivatives of the
/// *input* are handled in the operational-matrix domain (U D^{beta},
/// evaluated by diff_toeplitz_apply) — no numeric differentiation of u(t)
/// is ever performed.

#include "opm/solver.hpp"

namespace opmsim::opm {

/// One left-hand term A_k d^{alpha_k} x.
struct LhsTerm {
    double order;      ///< alpha_k >= 0
    la::CscMatrix mat; ///< A_k, n x n
};

/// One right-hand term B_l d^{beta_l} u.
struct RhsTerm {
    double order;      ///< beta_l >= 0
    la::CscMatrix mat; ///< B_l, n x p
};

/// sum_k A_k d^{alpha_k} x = sum_l B_l d^{beta_l} u,  y = C x.
struct MultiTermSystem {
    std::vector<LhsTerm> lhs;
    std::vector<RhsTerm> rhs;
    la::CscMatrix c;  ///< q x n, or empty for y = x

    [[nodiscard]] index_t num_states() const;
    [[nodiscard]] index_t num_inputs() const;
    [[nodiscard]] index_t num_outputs() const;
    void validate() const;
};

enum class MultiTermPath {
    automatic,   ///< recurrence when every order is an integer
    recurrence,  ///< banded O(K) history per column; integer orders only.
                 ///< The equation is multiplied through by (I+Q)^K, turning
                 ///< every D^{a} into the banded (1-q)^a (1+q)^{K-a} —
                 ///< the multi-term generalization of the trapezoidal rule.
    toeplitz     ///< dense O(j) history per column; any orders
};

struct MultiTermOptions {
    // Wire-visible: fields() below is the one list that batch grouping
    // (api::batch_compatible) and the svc wire codec fold over.  A new
    // option is appended to fields(); only Engine-injected pointers stay out.
    MultiTermPath path = MultiTermPath::automatic;
    /// History-sum backend for the Toeplitz path (same semantics as
    /// OpmOptions::history): `naive` is the O(K n m^2) oracle loop,
    /// `blocked` the register-tiled panel scatter, `fft` the batched
    /// O(n m log^2 m) blocked-convolution scheme; `automatic` picks by m.
    HistoryBackend history = HistoryBackend::automatic;
    /// Absolute l1 fit tolerance for the `soe` history backend (same
    /// semantics as OpmOptions::soe_tol; ignored by the exact backends).
    double soe_tol = 1e-8;
    int quad_points = 4;  ///< input projection quadrature order
    int quad_panels = 1;  ///< composite panels per interval
    /// Optional cross-run cache bundle (same semantics as
    /// OpmOptions::caches): pencil factors, FFT plans and rho series are
    /// reused across calls without changing results.
    SolveCaches* caches = nullptr;
    /// Optional cooperative deadline / cancellation token (non-owning;
    /// util/status.hpp), checked at sweep-step granularity.  Injected by
    /// Engine::run_batch; left out of fields() like `caches`.
    const util::RunControl* control = nullptr;
    /// Zero initial state is assumed (as in the paper); nonzero ICs for
    /// multi-term systems require per-order initial data and are out of
    /// scope for this reproduction.

    static constexpr auto fields() {
        return std::tuple{&MultiTermOptions::path, &MultiTermOptions::history,
                          &MultiTermOptions::soe_tol,
                          &MultiTermOptions::quad_points,
                          &MultiTermOptions::quad_panels};
    }
};

/// Simulate on [0, t_end) with m uniform steps.
OpmResult simulate_multiterm(const MultiTermSystem& sys,
                             const std::vector<wave::Source>& inputs,
                             double t_end, index_t m,
                             const MultiTermOptions& opt = {});

} // namespace opmsim::opm
