#pragma once
/// \file fast_history.hpp
/// \brief Fast evaluation of causal Toeplitz history sums.
///
/// Every fractional sweep in opmsim — the OPM differential / integral
/// Toeplitz paths, the multi-term solver, and the Grünwald–Letnikov
/// stepper — advances a column at a time and needs, before solving column
/// j, the history sum
///     H_j = sum_{i<j} c_{j-i} X_i                       (n-vector)
/// against a fixed coefficient row c.  Evaluated directly this is the
/// O(m^2 n) term that dominates all fractional simulations.
///
/// HistoryEngine computes the same sums with three interchangeable
/// backends:
///  * `naive`   — the textbook per-column loop; O(m^2 n).  Kept as the
///                test oracle and for very small m.
///  * `blocked` — identical arithmetic restructured into panel scatters:
///                when a 64-column panel of X completes, its contribution
///                to every future column is accumulated in one
///                register-tiled pass (4 output columns per sweep of the
///                hot panel).  Still O(m^2 n) FLOPs but with ~panel-width
///                fewer passes over X, so it runs close to machine
///                bandwidth.
///  * `fft`     — the fast-convolution-quadrature decomposition by lag:
///                lags below the base width B are summed directly (a
///                sliding window, so the largest Toeplitz coefficients
///                stay in exact arithmetic), while each dyadic level
///                L = B·2^l owns the lag window [L, 2L): whenever a
///                column block [a-L, a) completes, it is FFT-convolved
///                against c[L..2L) and scattered into columns [a, a+2L).
///                Each block is one batched FFT convolution with a
///                per-level cached kernel spectrum (fftx::RealConvPlan),
///                giving O(m log^2 m · n) total.
///  * `soe`     — sum-of-exponentials kernel compression (opm/soe.hpp):
///                the tail lags d >= B of each row are fitted by K modes
///                c_d ~= sum_k w_k r_k^{d-B}, each realized as the scalar
///                recurrence S_k <- r_k S_k + X_enter.  History state is
///                O((K + B) n) — independent of m — and each step costs
///                O((K + B) n), so million-step transients run in O(m)
///                time and O(1) memory.  Approximate at the fit tolerance
///                (reported per engine); OPT-IN ONLY — `automatic` never
///                resolves to it.  Streaming contract: history(j) may only
///                be queried at the frontier j = #pushed (all sweeps
///                comply).
///  * `automatic` — fft above a measured crossover in m, blocked in the
///                midrange, naive below one panel width (where the
///                blocked scatter degenerates to the naive loop plus
///                bookkeeping).
///
/// The engine is *batched*: one instance evaluates the histories of K
/// coefficient rows against the SAME pushed column stream (the multi-term
/// solver's workload — every LHS term sees the solved columns X).  All
/// backends share the committed column storage, and the fft backend
/// computes the forward transform of each completed block once and
/// multiplies it against all K cached kernel spectra
/// (RealConvPlan::forward / accumulate_spectrum), so K terms cost one
/// forward + K inverse transforms per block instead of K of each.
///
/// Columns must be pushed in order; history(j, term) may be queried any
/// time after columns 0..j-1 were pushed.  naive and blocked agree to
/// roundoff (7e-15 relative on the 16-section fractional t-line at
/// m = 16384).  The fft backend's error grows with m: on that t-line at
/// alpha = 0.5 it is 1.1e-10 relative to blocked at m = 1024, 6.5e-10 at
/// m = 4096 and 2-3e-9 at m = 16384 (perfbench reports it as
/// checks.tline_fft_vs_blocked_rel).  tests/test_fast_history.cpp pins
/// every backend to the naive oracle at 1e-10 for m <= 256.

#include <complex>
#include <memory>
#include <vector>

#include "la/dense.hpp"
#include "opm/operational.hpp"
#include "opm/soe.hpp"

namespace opmsim::fftx {
class RealConvPlan;
}

namespace opmsim::opm {

struct SolveCaches;  // opm/solve_cache.hpp: optional cross-run cache bundle

enum class HistoryBackend {
    naive,     ///< direct per-column accumulation (oracle)
    blocked,   ///< register-tiled panel scatter
    fft,       ///< dyadic blocked FFT convolution
    automatic, ///< fft above a crossover m, blocked/naive below
    soe        ///< streaming sum-of-exponentials compression (opt-in)
};

class HistoryEngine {
public:
    /// Single-row engine.
    /// \param coeffs  Toeplitz first row; coeffs[d] multiplies X_{j-d}.
    ///                Lags beyond the row are treated as zero.
    /// \param n       channel (state) count
    /// \param m       total column count
    /// \param caches  optional cross-run cache bundle (non-owning); the fft
    ///                backend reuses matching convolution plans from it and
    ///                the soe backend reuses fitted mode tables
    /// \param soe_tol absolute-l1 fit tolerance for the soe backend's
    ///                kernel compression (ignored by the exact backends)
    HistoryEngine(Vectord coeffs, index_t n, index_t m,
                  HistoryBackend backend = HistoryBackend::automatic,
                  SolveCaches* caches = nullptr, double soe_tol = 1e-8);

    /// Batched engine: K coefficient rows evaluated against one shared
    /// column stream.  Rows may have different lengths (short rows are
    /// zero-extended).
    HistoryEngine(std::vector<Vectord> rows, index_t n, index_t m,
                  HistoryBackend backend = HistoryBackend::automatic,
                  SolveCaches* caches = nullptr, double soe_tol = 1e-8);
    ~HistoryEngine();

    HistoryEngine(const HistoryEngine&) = delete;
    HistoryEngine& operator=(const HistoryEngine&) = delete;

    /// out = sum_{i<j} rows[0][j-i] X_i.  Resizes out to n.
    void history(index_t j, Vectord& out) { history(j, 0, out); }

    /// out = sum_{i<j} rows[term][j-i] X_i.  Resizes out to n.
    void history(index_t j, std::size_t term, Vectord& out);

    /// Commit solved column j (columns must arrive in order 0, 1, ...).
    void push(index_t j, const double* xj);

    /// The concrete backend in use (automatic is resolved at construction).
    [[nodiscard]] HistoryBackend backend() const { return backend_; }

    /// Number of coefficient rows served by this engine.
    [[nodiscard]] std::size_t num_terms() const { return rows_.size(); }

    /// Resolve `automatic` to a concrete backend for m columns.  Never
    /// returns `soe`: the approximate backend is strictly opt-in.
    static HistoryBackend resolve(HistoryBackend b, index_t m);

    /// Total SoE mode count across all terms (0 for exact backends).
    [[nodiscard]] index_t soe_modes() const;
    /// Worst per-term SoE l1 fit error (0 for exact backends / zero tails).
    [[nodiscard]] double soe_fit_error() const;
    /// Row fits computed FRESH at construction (not served by the caches
    /// bundle); 0 for exact backends.  Feeds Diagnostics::soe_fits.
    [[nodiscard]] index_t soe_fresh_fits() const { return soe_fresh_fits_; }
    /// Bytes of resident per-step history state: the soe backend's ring
    /// window + mode states + retained window taps; the exact backends
    /// report their full O(m) column/accumulator storage.
    [[nodiscard]] std::size_t resident_state_bytes() const;

private:
    [[nodiscard]] double coef(std::size_t t, index_t d) const {
        const Vectord& c = rows_[t];
        return d < static_cast<index_t>(c.size()) ? c[static_cast<std::size_t>(d)] : 0.0;
    }
    void scatter_panel(std::size_t t, index_t a);  ///< blocked: [a-P, a) -> [a, m)
    void scatter_block(index_t a, index_t len);    ///< fft: [a-len, a) -> [a, a+len), all terms
    fftx::RealConvPlan* level_plan(std::size_t level, std::size_t t,
                                   index_t len);

    std::vector<Vectord> rows_;
    SolveCaches* caches_ = nullptr;  ///< optional, non-owning
    index_t n_ = 0;
    index_t m_ = 0;
    HistoryBackend backend_ = HistoryBackend::naive;
    index_t base_ = 0;     ///< panel / base block width
    index_t next_col_ = 0; ///< number of columns pushed so far

    la::Matrixd x_;                  ///< committed columns (n x m, shared)
    std::vector<la::Matrixd> acc_;   ///< per-term scattered contributions

    // fft backend state: per-(level, term) convolution plans (null where a
    // term's lag window is entirely zero; shared_ptr so a SolveCaches can
    // co-own them across engines), shared forward spectrum, and row
    // scratch.
    std::vector<std::vector<std::shared_ptr<fftx::RealConvPlan>>> plans_;
    std::vector<std::complex<double>> spec_;
    Vectord rowa_, rowb_, outa_, outb_;
    std::vector<long double> hacc_;  ///< naive oracle accumulators

    // soe backend state: per-term fitted mode tables, the sliding ring of
    // the last base_ columns (slot j % base_), and per-term mode states
    // S_k (K x n, mode-major) in extended precision — the marginal
    // |r| = 1 modes (the exact alternating rho_1 tail) would otherwise
    // accumulate double roundoff linearly in m.  This is the ONLY pushed-
    // column storage the backend keeps: O((K + base) n), independent of m.
    std::vector<SoeFit> fits_;
    la::Matrixd ring_;
    std::vector<std::vector<long double>> sstate_;
    index_t soe_fresh_fits_ = 0;
};

/// Batched engine for differential operators D^{alpha_k}: one instance
/// evaluates the scaled strict histories of K operators (mixed integer /
/// fractional orders) against the same pushed column stream.
///
/// For alpha > 1 the series rho_alpha has coefficients *growing* like
/// d^{alpha-1}, so its history sums cancel massively (terms ~150x larger
/// than the result for alpha = 1.7 at m = 256) and FFT roundoff — relative
/// to the term magnitude, not the result — gets amplified through the
/// implicit column recursion.  The standard stabilization from fast
/// convolution quadrature is to factor the operator,
///     rho_alpha = rho_{alpha-k} * rho_1^k,   k = ceil(alpha) - 1,
/// whose factors all have O(1)-bounded kernels (rho_1 = 1 - 2q + 2q^2 - …,
/// rho_beta with beta <= 1 decays like d^{-beta-1}).  The cascade streams
/// the intermediate series V^{(t+1)} = T_{f_t} V^{(t)} and uses
///     strict(T_{f_0 … f_k}) X = sum_t strict(T_{f_t}) V^{(t)},
/// valid because every factor has unit leading coefficient.  Each rho_1
/// factor is applied as the exact two-term recurrence
///     r_j = -r_{j-1} - 2 V_{j-1}     (strict history of rho_1),
/// so only the decaying fractional factor ever touches an FFT — the
/// cascade stays within ~1e-14 (unscaled) of exact arithmetic.  The
/// (2/h)^a scale is applied once to each term's summed history.
///
/// Terms are grouped by cascade depth d = ceil(alpha) - 1 (0 for
/// alpha <= 1): the streams V^{(t)} and histories r^{(t)} depend only on
/// the pushed columns — not on any term's fractional part — so they are
/// computed ONCE and shared by every term, and all terms of equal depth
/// share one batched HistoryEngine over V^{(d)} (one forward FFT per
/// block for the whole group).  alpha = 0 terms are the identity; their
/// strict history is exactly zero and they cost nothing.
///
/// The cascade is engaged for alpha > 1 on both fast backends (fft and
/// blocked), so they evaluate the same factored operator; the naive
/// oracle keeps the full operator rows with extended-precision
/// accumulation instead.
class MultiTermHistoryEngine {
public:
    MultiTermHistoryEngine(const std::vector<double>& alphas, double h,
                           index_t n, index_t m,
                           HistoryBackend backend = HistoryBackend::automatic,
                           SolveCaches* caches = nullptr,
                           double soe_tol = 1e-8);

    /// out = sum_{i<j} D^{alpha_term}_row[j-i] X_i (scaled).
    void history(index_t j, std::size_t term, Vectord& out);

    /// Commit solved column j (columns must arrive in order 0, 1, ...).
    void push(index_t j, const double* xj);

    /// True when history(j, term) is identically zero (alpha_term = 0).
    [[nodiscard]] bool term_is_identity(std::size_t term) const {
        return terms_[term].identity;
    }

    [[nodiscard]] HistoryBackend backend() const { return backend_; }

    /// Aggregate SoE diagnostics over the depth-group engines.
    [[nodiscard]] index_t soe_modes() const;
    [[nodiscard]] double soe_fit_error() const;
    [[nodiscard]] index_t soe_fresh_fits() const;
    [[nodiscard]] std::size_t resident_state_bytes() const;

private:
    struct Term {
        double scale = 1.0;    ///< (2/h)^alpha
        index_t depth = 0;     ///< rho_1 cascade stages below this term
        std::size_t slot = 0;  ///< row index within the depth group
        bool identity = false; ///< alpha == 0: strict history is zero
    };

    std::vector<Term> terms_;
    /// groups_[d]: batched engine over stream V^{(d)} (null when no term
    /// has depth d).
    std::vector<std::unique_ptr<HistoryEngine>> groups_;
    /// Per rho_1 stage: strict history r^{(t)}_j.  Extended precision —
    /// the recurrence is marginally stable (|eigenvalue| = 1), so double
    /// roundoff would grow linearly in m and the column recursion of the
    /// sweep amplifies any per-column error by orders of magnitude.
    std::vector<std::vector<long double>> r_;
    index_t n_ = 0;
    HistoryBackend backend_ = HistoryBackend::naive;
    Vectord vcol_;
};

/// Single-operator D^alpha engine — the single-term solver's interface.
/// Exactly MultiTermHistoryEngine with one term (one shared cascade
/// implementation; see above for the alpha > 1 stabilization).
class DiffHistoryEngine {
public:
    DiffHistoryEngine(double alpha, double h, index_t n, index_t m,
                      HistoryBackend backend = HistoryBackend::automatic,
                      SolveCaches* caches = nullptr, double soe_tol = 1e-8);

    /// out = sum_{i<j} D^alpha_row[j-i] X_i (scaled, like the raw operator).
    void history(index_t j, Vectord& out) { eng_.history(j, 0, out); }

    /// Commit solved column j (columns must arrive in order 0, 1, ...).
    void push(index_t j, const double* xj) { eng_.push(j, xj); }

    [[nodiscard]] HistoryBackend backend() const { return eng_.backend(); }
    [[nodiscard]] index_t soe_modes() const { return eng_.soe_modes(); }
    [[nodiscard]] double soe_fit_error() const { return eng_.soe_fit_error(); }
    [[nodiscard]] index_t soe_fresh_fits() const {
        return eng_.soe_fresh_fits();
    }
    [[nodiscard]] std::size_t resident_state_bytes() const {
        return eng_.resident_state_bytes();
    }

private:
    MultiTermHistoryEngine eng_;
};

/// Y(:,j) = sum_{i<=j} op.coeffs[j-i] X(:,i) — the full (diagonal-included)
/// upper-triangular-Toeplitz apply, used for the integral-form forcing
/// precompute W = G H^alpha.  The fft backend evaluates it as one batched
/// full-length FFT convolution per channel pair (all columns are known up
/// front), O(n m log m); other backends stream through a HistoryEngine.
la::Matrixd toeplitz_apply(const UpperToeplitz& op, const la::Matrixd& x,
                           HistoryBackend backend = HistoryBackend::automatic,
                           SolveCaches* caches = nullptr,
                           double soe_tol = 1e-8);

/// Y = X D^alpha in coefficient space: the full (diagonal-included) apply
/// of the differential operator to a matrix whose columns are all known up
/// front — the multi-term solver's input-derivative precompute
/// W_l = U D^{beta_l}.  For alpha > 1 on the fast backends the operator is
/// applied in cascade form (exact rho_1 recurrences + one decaying
/// fractional Toeplitz factor), so the growing rho_alpha coefficients
/// never enter an FFT; the naive backend applies the full row with
/// extended-precision accumulation (oracle semantics).  alpha = 0 returns
/// X unchanged.
la::Matrixd diff_toeplitz_apply(double alpha, double h, const la::Matrixd& x,
                                HistoryBackend backend = HistoryBackend::automatic,
                                SolveCaches* caches = nullptr,
                                double soe_tol = 1e-8);

} // namespace opmsim::opm
