#pragma once
/// \file diagnostics.hpp
/// \brief Uniform solver diagnostics shared by every result struct.
///
/// Before PR 4 the five solver paths reported timing through incompatible
/// fields (GrunwaldResult::solve_seconds vs TransientResult's
/// factor/sweep split vs OpmResult), which forced every cross-method
/// harness to special-case each result type.  Diagnostics is the one
/// shape they all fill now: timing split the same way, the resolved
/// history backend and pencil ordering, and the cache-interaction
/// counters the Engine facade's reuse guarantees are asserted against
/// (a warm run on a cached system must report zero `orderings`).
///
/// Diagnostics is also a wire-level type: the scenario service
/// (svc/wire.cpp) serializes the fields in the order of fields() at the
/// end of the struct.  A new field goes at the END of the struct and is
/// appended to fields() and to ci/diagnostics_fields.txt (old decoders
/// skip unknown trailing fields).

#include <string>
#include <tuple>
#include <vector>

#include "la/sparse_lu.hpp"
#include "opm/fast_history.hpp"

namespace opmsim {

struct Diagnostics {
    /// Pencil factorization time (construction + LU), seconds.  Near zero
    /// when every factor came from a cache — the pencil assembly and the
    /// cache lookup itself are still inside the timed region.
    double factor_seconds = 0.0;
    /// Column / time-step sweep time (including input projections), seconds.
    double sweep_seconds = 0.0;
    /// Triangular-solve time inside the sweep (forward/backward
    /// substitution through the factored pencil), seconds.  A subset of
    /// sweep_seconds; the remainder is history evaluation, stamping and
    /// projections.
    double solve_seconds = 0.0;
    /// Right-hand-side columns solved FOR THIS RESULT through the pencil
    /// factor(s): one per time step / basis column.  In a batched
    /// multi-RHS sweep every scenario reports its own columns, so the
    /// sweep's total is the sum across the group's results.
    long rhs_solved = 0;

    /// The concrete history backend used by the sweep (`automatic` is
    /// resolved before the sweep starts).  Paths that never evaluate a
    /// Toeplitz history (the alpha = 1 recurrence, the classic steppers,
    /// the adaptive integral sweep) report `naive`.
    opm::HistoryBackend history_backend = opm::HistoryBackend::naive;

    /// Total sum-of-exponentials modes K carried by the history engine
    /// (summed over terms for the multi-term engine; the adaptive soe
    /// path reports Z-modes + G-modes).  0 when the sweep did not use the
    /// soe backend.
    int soe_modes = 0;
    /// Worst fit error of the SoE tables used: l1 tail error for the
    /// discrete row fits, max relative error for the adaptive kernel fit.
    /// -1 when the soe backend was not used.
    double soe_fit_error = -1.0;
    /// History-kernel coefficient evaluations performed by the adaptive
    /// sweep (h_entry calls on the dense path, per-mode coefficient pairs
    /// on the soe path).  The dense path is Theta(steps^2), the soe path
    /// Theta(K * steps) — tests gate sub-quadratic cost on this counter.
    /// 0 for the non-adaptive solvers.
    long kernel_evals = 0;

    /// Ordering chosen for the main pencil's symbolic analysis (the
    /// `automatic` policy is resolved; `natural` when nothing was factored).
    la::SparseLuOptions::Ordering ordering = la::SparseLuOptions::Ordering::natural;

    /// Fill-reducing orderings (symbolic analyses) computed by this call.
    /// Zero means every pattern analysis came from a shared cache or a
    /// caller-provided symbolic.
    int orderings = 0;
    /// Full numeric factorizations performed by this call.
    int factorizations = 0;
    /// Numeric-only refactorizations (frozen pattern/pivots) performed.
    int refactor_count = 0;
    /// Numeric factors served from a FactorCache instead of being computed.
    int factor_cache_hits = 0;

    // --- numerical health (PR 6) -------------------------------------
    /// Hager/Higham 1-norm reciprocal-condition estimate of the main
    /// pencil factor: rcond ~ 1 / (||A||_1 ||A^-1||_1).  Values near
    /// machine epsilon mean the solve digits are suspect.  -1 when no
    /// estimate was computed (nothing factored on this path).
    double rcond_estimate = -1.0;
    /// Pivot-growth factor max|U| / max|A| of the main pencil factor.
    /// Large growth (>> 1e8) flags an unstable elimination even when the
    /// pivots themselves were accepted.  0 when nothing was factored.
    double pivot_growth = 0.0;
    /// Iterative-refinement corrections applied across the sweep's
    /// solves.  0 on a healthy run — refinement only triggers when the
    /// residual check fails, so the bit-exact fast path is untouched.
    long refinement_iters = 0;
    /// Degradation-ladder actions taken to complete this solve, in order
    /// (e.g. "supernodal_fallback", "pivot_tol_refactor", or
    /// "cache_invalidated").  Empty on a healthy run.
    std::vector<std::string> degradations;

    // --- cache freshness (PR 8) --------------------------------------
    /// Sum-of-exponentials tables fitted FRESH by this call (row fits for
    /// the discrete soe history backend, kernel fits for the adaptive
    /// path).  Zero means every table came from the SolveCaches bundle —
    /// the warm-restart guarantee the snapshot loader is gated on.  0 when
    /// the soe backend was not used.
    int soe_fits = 0;

    static constexpr auto fields() {
        return std::tuple{&Diagnostics::factor_seconds,
                          &Diagnostics::sweep_seconds,
                          &Diagnostics::solve_seconds,
                          &Diagnostics::rhs_solved,
                          &Diagnostics::history_backend,
                          &Diagnostics::soe_modes,
                          &Diagnostics::soe_fit_error,
                          &Diagnostics::kernel_evals,
                          &Diagnostics::ordering,
                          &Diagnostics::orderings,
                          &Diagnostics::factorizations,
                          &Diagnostics::refactor_count,
                          &Diagnostics::factor_cache_hits,
                          &Diagnostics::rcond_estimate,
                          &Diagnostics::pivot_growth,
                          &Diagnostics::refinement_iters,
                          &Diagnostics::degradations,
                          &Diagnostics::soe_fits};
    }
};

} // namespace opmsim
