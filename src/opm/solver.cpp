#include "opm/solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/dense_lu.hpp"
#include "la/kron.hpp"
#include "la/sparse_lu.hpp"
#include "opm/operational.hpp"
#include "opm/solve_cache.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace opmsim::opm {

void DescriptorSystem::validate() const {
    const index_t n = a.rows();
    OPMSIM_REQUIRE(a.cols() == n, "DescriptorSystem: A must be square");
    OPMSIM_REQUIRE(e.rows() == n && e.cols() == n,
                   "DescriptorSystem: E must match A's shape");
    OPMSIM_REQUIRE(b.rows() == n, "DescriptorSystem: B row count must equal n");
    if (c.rows() > 0)
        OPMSIM_REQUIRE(c.cols() == n, "DescriptorSystem: C column count must equal n");
}

DescriptorSystem DenseDescriptorSystem::to_sparse() const {
    DescriptorSystem s;
    s.e = la::CscMatrix::from_dense(e);
    s.a = la::CscMatrix::from_dense(a);
    s.b = la::CscMatrix::from_dense(b);
    if (c.rows() > 0) s.c = la::CscMatrix::from_dense(c);
    return s;
}

std::vector<wave::Waveform> outputs_at(const la::CscMatrix& c,
                                       const la::Matrixd& x,
                                       const Vectord& times, const Vectord& x0) {
    const index_t n = x.rows();
    const index_t m = x.cols();
    const index_t q = c.rows() > 0 ? c.rows() : n;
    OPMSIM_REQUIRE(static_cast<index_t>(times.size()) == m,
                   "outputs_at: one time per state column required");

    la::Matrixd y(q, m);
    Vectord shifted(x0.empty() ? 0 : static_cast<std::size_t>(n));
    for (index_t j = 0; j < m; ++j) {
        const double* xj = x.col(j);
        if (!x0.empty()) {
            for (index_t i = 0; i < n; ++i)
                shifted[static_cast<std::size_t>(i)] =
                    xj[i] + x0[static_cast<std::size_t>(i)];
            xj = shifted.data();
        }
        if (c.rows() > 0)
            c.gaxpy(1.0, xj, y.col(j));
        else
            std::copy(xj, xj + n, y.col(j));
    }

    std::vector<wave::Waveform> out;
    out.reserve(static_cast<std::size_t>(q));
    for (index_t i = 0; i < q; ++i) {
        Vectord v(static_cast<std::size_t>(m));
        for (index_t j = 0; j < m; ++j) v[static_cast<std::size_t>(j)] = y(i, j);
        out.emplace_back(times, std::move(v));
    }
    return out;
}

std::vector<wave::Waveform> outputs_from_coeffs(const la::CscMatrix& c,
                                                const la::Matrixd& x,
                                                const Vectord& edges,
                                                const Vectord& x0) {
    return outputs_at(c, x, basis::interval_midpoints(edges), x0);
}

std::vector<wave::Waveform> endpoint_outputs_from_coeffs(const la::CscMatrix& c,
                                                         const la::Matrixd& x,
                                                         const Vectord& edges,
                                                         const Vectord& x0) {
    const index_t n = x.rows();
    const index_t m = x.cols();
    OPMSIM_REQUIRE(static_cast<index_t>(edges.size()) == m + 1,
                   "endpoint_outputs_from_coeffs: edge count mismatch");

    // Unwind interval averages into endpoint states.
    la::Matrixd xe(n, m + 1);
    for (index_t i = 0; i < n; ++i)
        xe(i, 0) = x0.empty() ? 0.0 : x0[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < m; ++j)
        for (index_t i = 0; i < n; ++i) {
            const double avg =
                x(i, j) + (x0.empty() ? 0.0 : x0[static_cast<std::size_t>(i)]);
            xe(i, j + 1) = 2.0 * avg - xe(i, j);
        }
    return outputs_at(c, xe, edges);
}

namespace {

/// Effective per-column forcing G_j = B U_j + A x0 (the x0 term implements
/// the Caputo shift described in the header), stacked scenario-major: the
/// S scenarios' state blocks occupy rows [s*n, (s+1)*n), which makes every
/// stacked column simultaneously the contiguous n x S multi-RHS block the
/// blocked solves consume.
la::Matrixd build_forcing(const DescriptorSystem& sys,
                          const std::vector<std::vector<wave::Source>>& inputs,
                          const Vectord& edges, const OpmOptions& opt) {
    const index_t n = sys.num_states();
    const index_t p = sys.num_inputs();
    const index_t nscen = static_cast<index_t>(inputs.size());
    const index_t m = static_cast<index_t>(edges.size()) - 1;

    Vectord ax0;
    if (!opt.x0.empty()) {
        OPMSIM_REQUIRE(static_cast<index_t>(opt.x0.size()) == n,
                       "simulate_opm: x0 size must equal the state count");
        ax0 = sys.a.matvec(opt.x0);
    }

    la::Matrixd g(n * nscen, m);
    la::Matrixd u(p, m);
    Vectord uj(static_cast<std::size_t>(p));
    for (index_t s = 0; s < nscen; ++s) {
        const std::vector<wave::Source>& src = inputs[static_cast<std::size_t>(s)];
        OPMSIM_REQUIRE(static_cast<index_t>(src.size()) == p,
                       "simulate_opm: input count must match B's column count");
        for (index_t i = 0; i < p; ++i) {
            const Vectord ui = wave::project_average(src[static_cast<std::size_t>(i)],
                                                     edges, opt.quad_points,
                                                     opt.quad_panels);
            for (index_t j = 0; j < m; ++j) u(i, j) = ui[static_cast<std::size_t>(j)];
        }
        for (index_t j = 0; j < m; ++j) {
            for (index_t i = 0; i < p; ++i) uj[static_cast<std::size_t>(i)] = u(i, j);
            Vectord gj(static_cast<std::size_t>(n), 0.0);
            sys.b.gaxpy(1.0, uj, gj);
            if (!ax0.empty()) la::axpy(1.0, ax0, gj);
            for (index_t i = 0; i < n; ++i) g(s * n + i, j) = gj[static_cast<std::size_t>(i)];
        }
    }
    // Per-scenario NaN/Inf guard on the projected forcing: a poisoned
    // source fails with its scenario index, so run_batch's containment
    // can retry the siblings individually.
    for (index_t s = 0; s < nscen; ++s)
        for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < n; ++i)
                if (!std::isfinite(g(s * n + i, j)))
                    throw solver_error(
                        ErrorCode::nonfinite_input,
                        "scenario " + std::to_string(s) +
                            ": source projection is non-finite at state " +
                            std::to_string(i) + ", interval " + std::to_string(j));
    return g;
}

/// Per-scenario stamp y += alpha * A x applied to every scenario block of
/// a stacked column (A is n x n, the column is n*S long).
void gaxpy_blocks(const la::CscMatrix& a, double alpha, const double* x,
                  double* y, index_t n, index_t nscen) {
    for (index_t s = 0; s < nscen; ++s) a.gaxpy(alpha, x + s * n, y + s * n);
}

/// O(m) path: (2/h E - A) X_j = (2/h E + A) X_{j-1} + G_j + G_{j-1}.
void sweep_recurrence(const DescriptorSystem& sys, const la::Matrixd& g,
                      index_t nscen, double h, SolveCaches* caches,
                      const util::RunControl* control, la::Matrixd& x,
                      Diagnostics& diag) {
    const index_t n = sys.num_states();
    const index_t nr = n * nscen;
    const index_t m = g.cols();
    const double s = 2.0 / h;

    WallTimer t;
    const la::CscMatrix pencil = la::CscMatrix::add(s, sys.e, -1.0, sys.a);
    PencilSolve ps(caches, pencil, diag, control);
    diag.factor_seconds = t.elapsed_s();

    t.reset();
    Vectord rhs(static_cast<std::size_t>(nr));
    Vectord prev(static_cast<std::size_t>(nr), 0.0);
    for (index_t j = 0; j < m; ++j) {
        for (index_t i = 0; i < nr; ++i) {
            rhs[static_cast<std::size_t>(i)] = g(i, j);
            if (j > 0) rhs[static_cast<std::size_t>(i)] += g(i, j - 1);
        }
        if (j > 0) {
            gaxpy_blocks(sys.e, s, prev.data(), rhs.data(), n, nscen);
            gaxpy_blocks(sys.a, 1.0, prev.data(), rhs.data(), n, nscen);
        }
        ps.solve(rhs.data(), nscen, n);
        for (index_t i = 0; i < nr; ++i) x(i, j) = rhs[static_cast<std::size_t>(i)];
        std::swap(prev, rhs);
    }
    diag.sweep_seconds = t.elapsed_s();
}

/// Differential form:
///   (d0 E - A) X_j = G_j - E sum_{i<j} d_{j-i} X_i.
/// The history sum is delegated to a DiffHistoryEngine backend: O(m^2 n)
/// for naive/blocked, O(m log^2 m n) for fft (with the cascade
/// stabilization for alpha > 1).  Batched scenarios stack as extra
/// history rows — one shared coefficient stream drives all of them.
void sweep_toeplitz_diff(const DescriptorSystem& sys, const la::Matrixd& g,
                         index_t nscen, double alpha, double h,
                         HistoryBackend backend, double soe_tol,
                         SolveCaches* caches, const util::RunControl* control,
                         la::Matrixd& x, Diagnostics& diag) {
    const index_t n = sys.num_states();
    const index_t nr = n * nscen;
    const index_t m = g.cols();
    const double d0 = std::pow(2.0 / h, alpha);
    diag.history_backend = HistoryEngine::resolve(backend, m);

    WallTimer t;
    const la::CscMatrix pencil = la::CscMatrix::add(d0, sys.e, -1.0, sys.a);
    PencilSolve ps(caches, pencil, diag, control);
    diag.factor_seconds = t.elapsed_s();

    t.reset();
    DiffHistoryEngine eng(alpha, h, nr, m, backend, caches, soe_tol);
    if (eng.backend() == HistoryBackend::soe) {
        diag.soe_modes = static_cast<int>(eng.soe_modes());
        diag.soe_fit_error = eng.soe_fit_error();
        diag.soe_fits = static_cast<int>(eng.soe_fresh_fits());
    }
    Vectord acc(static_cast<std::size_t>(nr));
    Vectord rhs(static_cast<std::size_t>(nr));
    for (index_t j = 0; j < m; ++j) {
        eng.history(j, acc);
        for (index_t i = 0; i < nr; ++i) rhs[static_cast<std::size_t>(i)] = g(i, j);
        gaxpy_blocks(sys.e, -1.0, acc.data(), rhs.data(), n, nscen);
        ps.solve(rhs.data(), nscen, n);
        for (index_t i = 0; i < nr; ++i) x(i, j) = rhs[static_cast<std::size_t>(i)];
        if (fault::enabled() && fault::fire(fault::Site::history_nan))
            rhs[0] = std::numeric_limits<double>::quiet_NaN();
        eng.push(j, rhs.data());
    }
    diag.sweep_seconds = t.elapsed_s();
}

/// Integral form:
///   (E - g0 A) X_j = A sum_{i<j} g_{j-i} X_i + (G H^alpha)_j.
/// Both the forcing precompute W = G H^alpha and the history sum go
/// through the fast-convolution machinery.
void sweep_toeplitz_int(const DescriptorSystem& sys, const la::Matrixd& g,
                        index_t nscen, const UpperToeplitz& hop,
                        HistoryBackend backend, double soe_tol,
                        SolveCaches* caches, const util::RunControl* control,
                        la::Matrixd& x, Diagnostics& diag) {
    const index_t n = sys.num_states();
    const index_t nr = n * nscen;
    const index_t m = g.cols();
    const double g0 = hop.coeffs[0];
    diag.history_backend = HistoryEngine::resolve(backend, m);

    WallTimer t;
    const la::CscMatrix pencil = la::CscMatrix::add(1.0, sys.e, -g0, sys.a);
    PencilSolve ps(caches, pencil, diag, control);
    diag.factor_seconds = t.elapsed_s();

    t.reset();
    const la::Matrixd w = toeplitz_apply(hop, g, backend, caches, soe_tol);

    HistoryEngine eng(hop.coeffs, nr, m, backend, caches, soe_tol);
    if (eng.backend() == HistoryBackend::soe) {
        diag.soe_modes = static_cast<int>(eng.soe_modes());
        diag.soe_fit_error = eng.soe_fit_error();
        diag.soe_fits = static_cast<int>(eng.soe_fresh_fits());
    }
    Vectord acc(static_cast<std::size_t>(nr));
    Vectord rhs(static_cast<std::size_t>(nr));
    for (index_t j = 0; j < m; ++j) {
        eng.history(j, acc);
        for (index_t i = 0; i < nr; ++i) rhs[static_cast<std::size_t>(i)] = w(i, j);
        gaxpy_blocks(sys.a, 1.0, acc.data(), rhs.data(), n, nscen);
        ps.solve(rhs.data(), nscen, n);
        for (index_t i = 0; i < nr; ++i) x(i, j) = rhs[static_cast<std::size_t>(i)];
        if (fault::enabled() && fault::fire(fault::Site::history_nan))
            rhs[0] = std::numeric_limits<double>::quiet_NaN();
        eng.push(j, rhs.data());
    }
    diag.sweep_seconds = t.elapsed_s();
}

} // namespace

std::vector<OpmResult> simulate_opm_batch(
    const DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    index_t m, const OpmOptions& opt) {
    sys.validate();
    OPMSIM_REQUIRE(!inputs.empty(), "simulate_opm_batch: empty scenario list");
    OPMSIM_REQUIRE(t_end > 0.0, "simulate_opm: t_end must be positive");
    OPMSIM_REQUIRE(m >= 1, "simulate_opm: m >= 1 required");
    OPMSIM_REQUIRE(opt.alpha > 0.0, "simulate_opm: alpha must be positive");

    OpmPath path = opt.path;
    const bool recurrence_ok =
        opt.alpha == 1.0 && opt.form == OpmForm::differential;
    if (path == OpmPath::automatic)
        path = recurrence_ok ? OpmPath::recurrence : OpmPath::toeplitz;
    OPMSIM_REQUIRE(path != OpmPath::recurrence || recurrence_ok,
                   "simulate_opm: recurrence path requires alpha == 1 and the "
                   "differential form");

    const index_t n = sys.num_states();
    const index_t nscen = static_cast<index_t>(inputs.size());
    const double h = t_end / static_cast<double>(m);
    const Vectord edges = wave::uniform_edges(t_end, m);

    const la::Matrixd g = build_forcing(sys, inputs, edges, opt);
    la::Matrixd x(n * nscen, m);
    Diagnostics diag;

    if (path == OpmPath::recurrence) {
        sweep_recurrence(sys, g, nscen, h, opt.caches, opt.control, x, diag);
    } else if (opt.form == OpmForm::differential) {
        sweep_toeplitz_diff(sys, g, nscen, opt.alpha, h, opt.history,
                            opt.soe_tol, opt.caches, opt.control, x, diag);
    } else {
        const UpperToeplitz hop = frac_integral_toeplitz(opt.alpha, h, m);
        sweep_toeplitz_int(sys, g, nscen, hop, opt.history, opt.soe_tol,
                           opt.caches, opt.control, x, diag);
    }

    // Per-scenario results.  The shared factor/sweep work is accounted to
    // scenario 0 (summing across results stays truthful); every scenario
    // reports its own m solved RHS columns.
    std::vector<OpmResult> out(static_cast<std::size_t>(nscen));
    for (index_t s = 0; s < nscen; ++s) {
        OpmResult& res = out[static_cast<std::size_t>(s)];
        res.edges = edges;
        if (nscen == 1) {
            res.coeffs = std::move(x);  // single scenario: no extraction copy
        } else {
            res.coeffs = la::Matrixd(n, m);
            for (index_t j = 0; j < m; ++j)
                for (index_t i = 0; i < n; ++i) res.coeffs(i, j) = x(s * n + i, j);
        }
        if (s == 0) {
            res.diag = diag;
        } else {
            res.diag.history_backend = diag.history_backend;
            res.diag.soe_modes = diag.soe_modes;
            res.diag.soe_fit_error = diag.soe_fit_error;
            res.diag.ordering = diag.ordering;
            // Report the shared batch factor as a cache hit only when a
            // cache bundle actually served it.
            if (opt.caches != nullptr) res.diag.factor_cache_hits = 1;
        }
        res.diag.rhs_solved = m;
        res.outputs = outputs_from_coeffs(sys.c, res.coeffs, res.edges, opt.x0);
    }
    return out;
}

OpmResult simulate_opm(const DescriptorSystem& sys,
                       const std::vector<wave::Source>& inputs, double t_end,
                       index_t m, const OpmOptions& opt) {
    std::vector<OpmResult> res =
        simulate_opm_batch(sys, {inputs}, t_end, m, opt);
    return std::move(res.front());
}

OpmResult simulate_opm(const DenseDescriptorSystem& sys,
                       const std::vector<wave::Source>& inputs, double t_end,
                       index_t m, const OpmOptions& opt) {
    return simulate_opm(sys.to_sparse(), inputs, t_end, m, opt);
}

OpmResult simulate_opm_windowed(const DescriptorSystem& sys,
                                const std::vector<wave::Source>& inputs,
                                double t_end, index_t m, index_t window,
                                const OpmOptions& opt) {
    sys.validate();
    OPMSIM_REQUIRE(opt.alpha == 1.0,
                   "simulate_opm_windowed: fractional orders carry memory "
                   "across windows; use simulate_opm");
    OPMSIM_REQUIRE(t_end > 0.0 && m >= 1 && window >= 1,
                   "simulate_opm_windowed: bad time grid");

    const index_t n = sys.num_states();
    const double h = t_end / static_cast<double>(m);

    OpmResult res;
    res.edges = wave::uniform_edges(t_end, m);
    res.coeffs = la::Matrixd(n, m);

    Vectord x0 = opt.x0.empty() ? Vectord(static_cast<std::size_t>(n), 0.0)
                                : opt.x0;
    for (index_t start = 0; start < m; start += window) {
        const index_t cols = std::min(window, m - start);
        const double t0 = h * static_cast<double>(start);

        // Time-shift the inputs into the window's local frame.
        std::vector<wave::Source> shifted;
        shifted.reserve(inputs.size());
        for (const auto& u : inputs)
            shifted.push_back([u, t0](double t) { return u(t + t0); });

        OpmOptions wopt = opt;
        wopt.x0 = x0;
        const OpmResult w = simulate_opm(
            sys, shifted, h * static_cast<double>(cols), cols, wopt);
        res.diag.factor_seconds += w.diag.factor_seconds;
        res.diag.sweep_seconds += w.diag.sweep_seconds;
        res.diag.solve_seconds += w.diag.solve_seconds;
        res.diag.rhs_solved += w.diag.rhs_solved;
        res.diag.orderings += w.diag.orderings;
        res.diag.factorizations += w.diag.factorizations;
        res.diag.refactor_count += w.diag.refactor_count;
        res.diag.factor_cache_hits += w.diag.factor_cache_hits;
        res.diag.history_backend = w.diag.history_backend;
        res.diag.ordering = w.diag.ordering;
        res.diag.refinement_iters += w.diag.refinement_iters;
        res.diag.rcond_estimate = w.diag.rcond_estimate;
        res.diag.pivot_growth = w.diag.pivot_growth;
        res.diag.degradations.insert(res.diag.degradations.end(),
                                     w.diag.degradations.begin(),
                                     w.diag.degradations.end());

        // Copy window coefficients (absolute values: add the Caputo shift
        // back so res.coeffs matches the monolithic zero-IC convention of
        // "coefficients of x(t)" when opt.x0 is empty).
        for (index_t j = 0; j < cols; ++j)
            for (index_t i = 0; i < n; ++i)
                res.coeffs(i, start + j) =
                    w.coeffs(i, j) + x0[static_cast<std::size_t>(i)];

        // End-of-window state by unwinding the averages: x_{k+1} = 2X_k - x_k.
        Vectord xe = x0;
        for (index_t j = 0; j < cols; ++j)
            for (index_t i = 0; i < n; ++i)
                xe[static_cast<std::size_t>(i)] =
                    2.0 * (w.coeffs(i, j) + x0[static_cast<std::size_t>(i)]) -
                    xe[static_cast<std::size_t>(i)];
        x0 = std::move(xe);
    }

    // Match simulate_opm's convention: res.coeffs holds the shifted
    // variable z = x - x0 and outputs add the initial state back.
    if (!opt.x0.empty())
        for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < n; ++i)
                res.coeffs(i, j) -= opt.x0[static_cast<std::size_t>(i)];
    res.outputs = outputs_from_coeffs(sys.c, res.coeffs, res.edges, opt.x0);
    return res;
}

OpmResult simulate_generic_basis(const DenseDescriptorSystem& sys,
                                 const std::vector<wave::Source>& inputs,
                                 const basis::Basis& bas, const Vectord& x0) {
    const index_t n = sys.num_states();
    const index_t p = sys.num_inputs();
    const index_t m = bas.size();
    OPMSIM_REQUIRE(static_cast<index_t>(inputs.size()) == p,
                   "simulate_generic_basis: input count mismatch");
    OPMSIM_REQUIRE(x0.empty() || static_cast<index_t>(x0.size()) == n,
                   "simulate_generic_basis: x0 size mismatch");

    // Project the inputs; U is p x m.
    la::Matrixd u(p, m);
    for (index_t i = 0; i < p; ++i) {
        const Vectord ci = bas.project(inputs[static_cast<std::size_t>(i)]);
        for (index_t j = 0; j < m; ++j) u(i, j) = ci[static_cast<std::size_t>(j)];
    }

    WallTimer t;
    const la::Matrixd pmat = bas.integration_matrix();
    // (I (x) E - P^T (x) A) vec(X) = vec(B U P + E x0 k1^T)
    const la::Matrixd lhs =
        la::kron(la::Matrixd::identity(m), sys.e) -
        la::kron(pmat.transposed(), sys.a);
    la::Matrixd rhs_m = sys.b * u * pmat;
    if (!x0.empty()) {
        const Vectord k1 = bas.constant_coeffs();
        const Vectord ex0 = la::matvec(sys.e, x0);
        for (index_t j = 0; j < m; ++j)
            for (index_t i = 0; i < n; ++i)
                rhs_m(i, j) += ex0[static_cast<std::size_t>(i)] * k1[static_cast<std::size_t>(j)];
    }
    const la::DenseLu<double> lu(lhs);
    const Vectord xv = lu.solve(la::vec(rhs_m));

    OpmResult res;
    res.coeffs = la::unvec(xv, n, m);
    res.diag.factor_seconds = t.elapsed_s();
    res.diag.factorizations = 1;
    res.diag.rcond_estimate = lu.rcond_estimate();
    res.diag.pivot_growth = lu.pivot_growth();
    res.edges = wave::uniform_edges(bas.t_end(), m);

    // Outputs: synthesize y = C x channel by channel on a fine grid.
    const index_t q = sys.num_outputs();
    const la::Matrixd y =
        sys.c.rows() > 0 ? sys.c * res.coeffs : res.coeffs;
    for (index_t i = 0; i < q; ++i) {
        Vectord ci(static_cast<std::size_t>(m));
        for (index_t j = 0; j < m; ++j) ci[static_cast<std::size_t>(j)] = y(i, j);
        res.outputs.push_back(bas.to_waveform(ci));
    }
    return res;
}

} // namespace opmsim::opm
