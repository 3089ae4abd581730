#pragma once
/// \file steppers.hpp
/// \brief Classic implicit time-stepping baselines (Table II comparison).
///
/// Backward Euler, trapezoidal and Gear's 2nd-order BDF on the descriptor
/// system E x' = A x + B u — the "advanced transient analysis methods" the
/// paper measures OPM against.  All three factor one constant pencil and
/// reuse it for every step, so their cost profile matches OPM's
/// (one factorization + m solves).

#include <memory>

#include "la/sparse_lu.hpp"
#include "opm/solver.hpp"

namespace opmsim::transient {

using la::index_t;
using la::Vectord;

enum class Method {
    backward_euler,  ///< O(h) LTE; the paper's "b-Euler" rows
    trapezoidal,     ///< O(h^2); A-stable
    gear2            ///< BDF2, O(h^2); L-stable (the paper's "Gear")
};

struct TransientOptions {
    // Wire-visible: fields() below is the one list that batch grouping
    // (api::batch_compatible) and the svc wire codec fold over.  A new
    // option is appended to fields(); only Engine-injected pointers and
    // `symbolic` stay out.
    Method method = Method::trapezoidal;
    Vectord x0;  ///< initial state; empty = zero
    /// Optional shared pattern analysis for the implicit pencil
    /// (lead*E - A).  Its pattern is the same for every method and step
    /// size, so a caller running several baselines on one system (e.g.
    /// bench_table2_power_grid) can analyze once and reuse; when empty,
    /// the analysis is computed here and returned in
    /// TransientResult::symbolic.  Takes precedence over `caches`.
    std::shared_ptr<const la::SparseLuSymbolic> symbolic;
    /// Optional cross-run cache bundle (same semantics as
    /// OpmOptions::caches); consulted when `symbolic` is empty.
    opm::SolveCaches* caches = nullptr;
    /// Optional cooperative deadline / cancellation token (non-owning;
    /// util/status.hpp), checked at step granularity.  Injected by
    /// Engine::run_batch; left out of fields() like `caches`.
    const util::RunControl* control = nullptr;

    /// `symbolic` is not here: it never travels (the daemon's per-system
    /// caches supply the analysis), and batch_compatible compares it
    /// explicitly.
    static constexpr auto fields() {
        return std::tuple{&TransientOptions::method, &TransientOptions::x0};
    }
};

struct TransientResult {
    la::Matrixd states;  ///< n x (m+1), including the initial state
    Vectord times;       ///< m+1 time points
    std::vector<wave::Waveform> outputs;

    /// Uniform timing / cache diagnostics (opm/diagnostics.hpp).
    Diagnostics diag;

    /// The pencil's pattern analysis (feed back into TransientOptions to
    /// skip the ordering on the next same-system run).
    std::shared_ptr<const la::SparseLuSymbolic> symbolic;
};

/// March m uniform steps over [0, t_end].
TransientResult simulate_transient(const opm::DescriptorSystem& sys,
                                   const std::vector<wave::Source>& inputs,
                                   double t_end, index_t steps,
                                   const TransientOptions& opt = {});

/// Batched variant: S source sets, one factorization, one multi-RHS
/// triangular solve per step across all S scenarios (bit-identical per
/// scenario to S separate runs).  Shared factor work is accounted to the
/// first result's Diagnostics; each result reports its own rhs_solved.
std::vector<TransientResult> simulate_transient_batch(
    const opm::DescriptorSystem& sys,
    const std::vector<std::vector<wave::Source>>& inputs, double t_end,
    index_t steps, const TransientOptions& opt = {});

/// Name for table output ("b-Euler", "Trapezoidal", "Gear").
const char* method_name(Method m);

} // namespace opmsim::transient
