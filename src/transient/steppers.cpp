#include "transient/steppers.hpp"

#include <optional>

#include "la/sparse_lu.hpp"
#include "opm/solve_cache.hpp"
#include "util/check.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"

namespace opmsim::transient {

const char* method_name(Method m) {
    switch (m) {
    case Method::backward_euler: return "b-Euler";
    case Method::trapezoidal: return "Trapezoidal";
    case Method::gear2: return "Gear";
    }
    return "?";
}

std::vector<TransientResult> simulate_transient_batch(
    const opm::DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    index_t steps, const TransientOptions& opt) {
    sys.validate();
    OPMSIM_REQUIRE(!inputs.empty(), "simulate_transient_batch: empty scenario list");
    OPMSIM_REQUIRE(t_end > 0.0 && steps >= 1, "simulate_transient: bad time grid");
    const index_t n = sys.num_states();
    const index_t p = sys.num_inputs();
    const index_t nscen = static_cast<index_t>(inputs.size());
    const index_t nr = n * nscen;
    for (const auto& src : inputs)
        OPMSIM_REQUIRE(static_cast<index_t>(src.size()) == p,
                       "simulate_transient: input count mismatch");
    OPMSIM_REQUIRE(opt.x0.empty() || static_cast<index_t>(opt.x0.size()) == n,
                   "simulate_transient: x0 size mismatch");

    const double h = t_end / static_cast<double>(steps);
    const index_t m = steps;

    Vectord times(static_cast<std::size_t>(m) + 1);
    for (index_t k = 0; k <= m; ++k)
        times[static_cast<std::size_t>(k)] = h * static_cast<double>(k);

    // Pencils.  Gear's first step is backward Euler, so it needs a second
    // pencil (E/h - A) — same pattern, different lead coefficient: a copy
    // of the BDF2 factor refactorized numerically, no second analysis or
    // symbolic pass.
    Diagnostics diag;
    WallTimer t;
    const double lead = (opt.method == Method::backward_euler) ? 1.0 / h
                        : (opt.method == Method::trapezoidal)  ? 2.0 / h
                                                               : 1.5 / h;
    const la::CscMatrix pencil = la::CscMatrix::add(lead, sys.e, -1.0, sys.a);
    if (opt.symbolic)
        OPMSIM_REQUIRE(opt.symbolic->size() == n,
                       "simulate_transient: shared symbolic size mismatch");
    // Factor acquisition, most-shared first: a caller-provided symbolic
    // wins (legacy bench_table2 threading), then the cross-run cache
    // bundle, then a fresh analysis.
    std::shared_ptr<const la::SparseLu> lu_ptr;
    std::optional<opm::PencilSolve> ps;
    if (opt.symbolic) {
        lu_ptr = std::make_shared<const la::SparseLu>(pencil, opt.symbolic);
        ++diag.factorizations;
        diag.ordering = opt.symbolic->chosen_ordering();
    } else {
        ps.emplace(opt.caches, pencil, diag, opt.control);
        lu_ptr = ps->factor();
    }
    const la::SparseLu& lu = *lu_ptr;
    const std::shared_ptr<const la::SparseLuSymbolic> symbolic = lu.symbolic();
    std::unique_ptr<la::SparseLu> lu_start;
    if (opt.method == Method::gear2) {
        const la::CscMatrix start = la::CscMatrix::add(1.0 / h, sys.e, -1.0, sys.a);
        lu_start = std::make_unique<la::SparseLu>(lu);
        try {
            lu_start->refactor(start);
            ++diag.refactor_count;
        } catch (const numerical_error&) {
            // The frozen BDF2 pivot sequence can cancel exactly on the
            // backward-Euler pencil; re-pivot with a fresh numeric
            // factorization (same shared analysis).
            lu_start = std::make_unique<la::SparseLu>(start, symbolic);
            ++diag.factorizations;
        }
    }
    diag.factor_seconds = t.elapsed_s();

    // March the S scenarios side by side: states stacked scenario-major
    // (rows [s*n, (s+1)*n)), one multi-RHS solve per step.
    t.reset();
    WallTimer st;
    la::Matrixd states(nr, m + 1);
    if (!opt.x0.empty())
        for (index_t s = 0; s < nscen; ++s)
            for (index_t i = 0; i < n; ++i)
                states(s * n + i, 0) = opt.x0[static_cast<std::size_t>(i)];

    Vectord ut(static_cast<std::size_t>(p));
    Vectord bu_prev(static_cast<std::size_t>(nr), 0.0);
    for (index_t s = 0; s < nscen; ++s) {
        // B u at t = 0 (needed by the trapezoidal combination).
        const auto& src = inputs[static_cast<std::size_t>(s)];
        for (index_t i = 0; i < p; ++i)
            ut[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)](0.0);
        sys.b.gaxpy(1.0, ut.data(), bu_prev.data() + s * n);
    }

    Vectord xm1(static_cast<std::size_t>(nr), 0.0), xm2(static_cast<std::size_t>(nr), 0.0);
    if (!opt.x0.empty())
        for (index_t s = 0; s < nscen; ++s)
            for (index_t i = 0; i < n; ++i)
                xm1[static_cast<std::size_t>(s * n + i)] = opt.x0[static_cast<std::size_t>(i)];

    Vectord rhs(static_cast<std::size_t>(nr));
    Vectord bu(static_cast<std::size_t>(nr));
    for (index_t k = 1; k <= m; ++k) {
        const double tk = times[static_cast<std::size_t>(k)];
        std::fill(bu.begin(), bu.end(), 0.0);
        for (index_t s = 0; s < nscen; ++s) {
            const auto& src = inputs[static_cast<std::size_t>(s)];
            for (index_t i = 0; i < p; ++i)
                ut[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)](tk);
            sys.b.gaxpy(1.0, ut.data(), bu.data() + s * n);
        }

        std::fill(rhs.begin(), rhs.end(), 0.0);
        const la::SparseLu* step_lu = &lu;
        switch (opt.method) {
        case Method::backward_euler:
            // (E/h - A) x_k = (E/h) x_{k-1} + B u_k
            for (index_t s = 0; s < nscen; ++s)
                sys.e.gaxpy(1.0 / h, xm1.data() + s * n, rhs.data() + s * n);
            la::axpy(1.0, bu, rhs);
            break;
        case Method::trapezoidal:
            // (2E/h - A) x_k = (2E/h + A) x_{k-1} + B(u_k + u_{k-1})
            for (index_t s = 0; s < nscen; ++s) {
                sys.e.gaxpy(2.0 / h, xm1.data() + s * n, rhs.data() + s * n);
                sys.a.gaxpy(1.0, xm1.data() + s * n, rhs.data() + s * n);
            }
            la::axpy(1.0, bu, rhs);
            la::axpy(1.0, bu_prev, rhs);
            break;
        case Method::gear2:
            if (k == 1) {
                for (index_t s = 0; s < nscen; ++s)
                    sys.e.gaxpy(1.0 / h, xm1.data() + s * n, rhs.data() + s * n);
                la::axpy(1.0, bu, rhs);
                step_lu = lu_start.get();
            } else {
                // (1.5E/h - A) x_k = (E/h)(2 x_{k-1} - 0.5 x_{k-2}) + B u_k
                for (index_t s = 0; s < nscen; ++s) {
                    sys.e.gaxpy(2.0 / h, xm1.data() + s * n, rhs.data() + s * n);
                    sys.e.gaxpy(-0.5 / h, xm2.data() + s * n, rhs.data() + s * n);
                }
                la::axpy(1.0, bu, rhs);
            }
            break;
        }
        if (step_lu == &lu && ps) {
            ps->solve(rhs.data(), nscen, n);
        } else {
            // Gear's backward-Euler start pencil / caller-provided symbolic
            // path: direct solve, same bookkeeping PencilSolve would do.
            util::check_run_control(opt.control);
            st.reset();
            step_lu->solve_in_place(rhs.data(), nscen, n);
            diag.solve_seconds += st.elapsed_s();
            diag.rhs_solved += nscen;
        }
        for (index_t i = 0; i < nr; ++i) states(i, k) = rhs[static_cast<std::size_t>(i)];
        std::swap(xm2, xm1);
        std::swap(xm1, rhs);
        std::swap(bu_prev, bu);
    }
    diag.sweep_seconds = t.elapsed_s();

    // Per-scenario results + outputs y = C x at the step times.
    std::vector<TransientResult> out(static_cast<std::size_t>(nscen));
    for (index_t s = 0; s < nscen; ++s) {
        TransientResult& res = out[static_cast<std::size_t>(s)];
        res.times = times;
        if (nscen == 1) {
            res.states = std::move(states);  // single scenario: no copy
        } else {
            res.states = la::Matrixd(n, m + 1);
            for (index_t k = 0; k <= m; ++k)
                for (index_t i = 0; i < n; ++i)
                    res.states(i, k) = states(s * n + i, k);
        }
        if (s == 0) {
            res.diag = diag;
        } else {
            res.diag.ordering = diag.ordering;
            // Report the shared batch factor as a cache hit only when a
            // cache bundle actually served it.
            if (opt.caches != nullptr) res.diag.factor_cache_hits = 1;
        }
        res.diag.rhs_solved = m;
        res.symbolic = symbolic;
        res.outputs = opm::outputs_at(sys.c, res.states, res.times);
    }
    return out;
}

TransientResult simulate_transient(const opm::DescriptorSystem& sys,
                                   const std::vector<wave::Source>& inputs,
                                   double t_end, index_t steps,
                                   const TransientOptions& opt) {
    std::vector<TransientResult> res =
        simulate_transient_batch(sys, {inputs}, t_end, steps, opt);
    return std::move(res.front());
}

} // namespace opmsim::transient
