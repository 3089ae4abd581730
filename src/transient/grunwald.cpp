#include "transient/grunwald.hpp"

#include <cmath>
#include <limits>

#include "la/sparse_lu.hpp"
#include "opm/fractional_series.hpp"
#include "opm/solve_cache.hpp"
#include "util/check.hpp"
#include "util/fault_inject.hpp"
#include "util/timer.hpp"

namespace opmsim::transient {

std::vector<GrunwaldResult> simulate_grunwald_batch(
    const opm::DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    la::index_t steps, const GrunwaldOptions& opt) {
    sys.validate();
    OPMSIM_REQUIRE(!inputs.empty(), "simulate_grunwald_batch: empty scenario list");
    OPMSIM_REQUIRE(t_end > 0.0 && steps >= 1, "simulate_grunwald: bad time grid");
    OPMSIM_REQUIRE(opt.alpha > 0.0, "simulate_grunwald: alpha must be positive");
    const la::index_t n = sys.num_states();
    const la::index_t p = sys.num_inputs();
    const la::index_t nscen = static_cast<la::index_t>(inputs.size());
    const la::index_t nr = n * nscen;
    for (const auto& src : inputs)
        OPMSIM_REQUIRE(static_cast<la::index_t>(src.size()) == p,
                       "simulate_grunwald: input count mismatch");
    OPMSIM_REQUIRE(opt.x0.empty() || static_cast<la::index_t>(opt.x0.size()) == n,
                   "simulate_grunwald: x0 size must equal the state count");

    const la::index_t m = steps;
    const double h = t_end / static_cast<double>(m);
    const double ha = std::pow(h, -opt.alpha);
    const la::Vectord w = opt.caches != nullptr
                              ? opt.caches->grunwald_weights(opt.alpha, m + 1)
                              : opm::grunwald_weights(opt.alpha, m + 1);

    Diagnostics diag;
    diag.history_backend = opm::HistoryEngine::resolve(opt.history, m + 1);
    la::Vectord times(static_cast<std::size_t>(m) + 1);
    for (la::index_t k = 0; k <= m; ++k)
        times[static_cast<std::size_t>(k)] = h * static_cast<double>(k);

    WallTimer timer;
    const la::CscMatrix pencil =
        la::CscMatrix::add(w[0] * ha, sys.e, -1.0, sys.a);
    opm::PencilSolve ps(opt.caches, pencil, diag, opt.control);
    diag.factor_seconds = timer.elapsed_s();

    // Caputo shift: march z = x - x0 (z_0 = 0) with the constant forcing
    // term A x0 folded into every step's RHS; x0 is added back below.
    la::Vectord ax0;
    if (!opt.x0.empty()) ax0 = sys.a.matvec(opt.x0);

    // The history sum sum_{j>=1} w_j z_{k-j} is exactly the engine's
    // Toeplitz form sum_{i<k} w_{k-i} z_i over columns 0..m (z_0 = 0);
    // batched scenarios stack as extra rows of the shared engine.
    timer.reset();
    la::Matrixd states(nr, m + 1);
    if (!opt.x0.empty())
        for (la::index_t s = 0; s < nscen; ++s)
            for (la::index_t i = 0; i < n; ++i)
                states(s * n + i, 0) = opt.x0[static_cast<std::size_t>(i)];
    opm::HistoryEngine eng(w, nr, m + 1, opt.history, opt.caches, opt.soe_tol);
    if (eng.backend() == opm::HistoryBackend::soe) {
        diag.soe_modes = static_cast<int>(eng.soe_modes());
        diag.soe_fit_error = eng.soe_fit_error();
        diag.soe_fits = static_cast<int>(eng.soe_fresh_fits());
    }
    la::Vectord z0(static_cast<std::size_t>(nr), 0.0);
    eng.push(0, z0.data());

    la::Vectord ut(static_cast<std::size_t>(p));
    la::Vectord rhs(static_cast<std::size_t>(nr));
    la::Vectord hist(static_cast<std::size_t>(nr));
    for (la::index_t k = 1; k <= m; ++k) {
        const double tk = times[static_cast<std::size_t>(k)];
        std::fill(rhs.begin(), rhs.end(), 0.0);
        for (la::index_t s = 0; s < nscen; ++s) {
            const auto& src = inputs[static_cast<std::size_t>(s)];
            for (la::index_t i = 0; i < p; ++i)
                ut[static_cast<std::size_t>(i)] = src[static_cast<std::size_t>(i)](tk);
            sys.b.gaxpy(1.0, ut.data(), rhs.data() + s * n);
            if (!ax0.empty())
                for (la::index_t i = 0; i < n; ++i)
                    rhs[static_cast<std::size_t>(s * n + i)] += ax0[static_cast<std::size_t>(i)];
        }

        eng.history(k, hist);
        for (la::index_t s = 0; s < nscen; ++s)
            sys.e.gaxpy(-ha, hist.data() + s * n, rhs.data() + s * n);
        ps.solve(rhs.data(), nscen, n);
        for (la::index_t i = 0; i < nr; ++i) {
            states(i, k) = rhs[static_cast<std::size_t>(i)];
            if (!opt.x0.empty())
                states(i, k) += opt.x0[static_cast<std::size_t>(i % n)];
        }
        if (fault::enabled() && fault::fire(fault::Site::history_nan))
            rhs[0] = std::numeric_limits<double>::quiet_NaN();
        eng.push(k, rhs.data());
    }
    diag.sweep_seconds = timer.elapsed_s();

    // Per-scenario results + outputs y = C x at the step times.
    std::vector<GrunwaldResult> out(static_cast<std::size_t>(nscen));
    for (la::index_t s = 0; s < nscen; ++s) {
        GrunwaldResult& res = out[static_cast<std::size_t>(s)];
        res.times = times;
        if (nscen == 1) {
            res.states = std::move(states);  // single scenario: no copy
        } else {
            res.states = la::Matrixd(n, m + 1);
            for (la::index_t k = 0; k <= m; ++k)
                for (la::index_t i = 0; i < n; ++i)
                    res.states(i, k) = states(s * n + i, k);
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
        res.outputs = opm::outputs_at(sys.c, res.states, res.times);
    }
    return out;
}

GrunwaldResult simulate_grunwald(const opm::DescriptorSystem& sys,
                                 const std::vector<wave::Source>& inputs,
                                 double t_end, la::index_t steps,
                                 const GrunwaldOptions& opt) {
    std::vector<GrunwaldResult> res =
        simulate_grunwald_batch(sys, {inputs}, t_end, steps, opt);
    return std::move(res.front());
}

} // namespace opmsim::transient
