#include "api/registry.hpp"

#include "util/check.hpp"
#include "util/fields.hpp"

namespace opmsim::api {

Method method_of(const MethodConfig& config) {
    return static_cast<Method>(config.index());
}

const char* method_name(Method m) {
    switch (m) {
    case Method::opm: return "opm";
    case Method::multiterm: return "multiterm";
    case Method::adaptive: return "adaptive";
    case Method::transient: return "transient";
    case Method::grunwald: return "grunwald";
    }
    return "?";
}

namespace {

// ---- legacy result -> SolveResult, one overload per legacy result type ---

SolveResult to_solve_result(opm::OpmResult&& r, Method m) {
    SolveResult out;
    out.method = m;
    out.outputs = std::move(r.outputs);
    out.states = std::move(r.coeffs);
    out.grid = std::move(r.edges);
    out.diag = std::move(r.diag);
    return out;
}

SolveResult to_solve_result(opm::AdaptiveResult&& r, Method m) {
    SolveResult out;
    out.method = m;
    out.outputs = std::move(r.outputs);
    out.states = std::move(r.coeffs);
    out.grid = std::move(r.edges);
    out.steps = std::move(r.steps);
    out.diag = std::move(r.diag);
    return out;
}

SolveResult to_solve_result(transient::TransientResult&& r, Method m) {
    SolveResult out;
    out.method = m;
    out.outputs = std::move(r.outputs);
    out.states = std::move(r.states);
    out.grid = std::move(r.times);
    out.diag = std::move(r.diag);
    return out;
}

SolveResult to_solve_result(transient::GrunwaldResult&& r, Method m) {
    SolveResult out;
    out.method = m;
    out.outputs = std::move(r.outputs);
    out.states = std::move(r.states);
    out.grid = std::move(r.times);
    out.diag = std::move(r.diag);
    return out;
}

template <class LegacyResult>
std::vector<SolveResult> to_solve_results(std::vector<LegacyResult>&& rs,
                                          Method m) {
    std::vector<SolveResult> out;
    out.reserve(rs.size());
    for (LegacyResult& r : rs) out.push_back(to_solve_result(std::move(r), m));
    return out;
}

/// The scenario's per-method options with the handle's cache bundle and
/// the batch's RunControl injected.
template <class Options>
Options options_for(const SystemView& sys, const Scenario& sc) {
    Options opt = std::get<Options>(sc.config);
    opt.caches = sys.caches;
    opt.control = sys.control;
    return opt;
}

// ---- batched group runners (source-only scenario groups) -----------------

std::vector<std::vector<wave::Source>> group_sources(
    std::span<const Scenario> group) {
    std::vector<std::vector<wave::Source>> srcs;
    srcs.reserve(group.size());
    for (const Scenario& sc : group) srcs.push_back(sc.sources);
    return srcs;
}

std::vector<SolveResult> run_opm_group(const SystemView& sys,
                                       std::span<const Scenario> group) {
    const Scenario& sc = group.front();
    return to_solve_results(
        opm::simulate_opm_batch(*sys.descriptor, group_sources(group), sc.t_end,
                                sc.steps, options_for<opm::OpmOptions>(sys, sc)),
        Method::opm);
}

std::vector<SolveResult> run_transient_group(const SystemView& sys,
                                             std::span<const Scenario> group) {
    const Scenario& sc = group.front();
    return to_solve_results(
        transient::simulate_transient_batch(
            *sys.descriptor, group_sources(group), sc.t_end, sc.steps,
            options_for<transient::TransientOptions>(sys, sc)),
        Method::transient);
}

std::vector<SolveResult> run_grunwald_group(const SystemView& sys,
                                            std::span<const Scenario> group) {
    const Scenario& sc = group.front();
    return to_solve_results(
        transient::simulate_grunwald_batch(
            *sys.descriptor, group_sources(group), sc.t_end, sc.steps,
            options_for<transient::GrunwaldOptions>(sys, sc)),
        Method::grunwald);
}

// ---- single-scenario runners ---------------------------------------------

/// A batch of one through a group runner: simulate_opm / _transient /
/// _grunwald are exactly that, so results are bitwise the same.
template <auto RunGroup>
SolveResult run_one(const SystemView& sys, const Scenario& sc) {
    return std::move(RunGroup(sys, std::span<const Scenario>(&sc, 1)).front());
}

SolveResult run_multiterm(const SystemView& sys, const Scenario& sc) {
    return to_solve_result(
        opm::simulate_multiterm(*sys.multiterm, sc.sources, sc.t_end, sc.steps,
                                options_for<opm::MultiTermOptions>(sys, sc)),
        Method::multiterm);
}

SolveResult run_adaptive(const SystemView& sys, const Scenario& sc) {
    return to_solve_result(
        opm::simulate_opm_adaptive(*sys.descriptor, sc.sources, sc.t_end,
                                   options_for<opm::AdaptiveOptions>(sys, sc)),
        Method::adaptive);
}

constexpr SolverAdapter kRegistry[] = {
    {Method::opm, "opm", false, &run_one<run_opm_group>, &run_opm_group},
    {Method::multiterm, "multiterm", true, &run_multiterm, nullptr},
    {Method::adaptive, "adaptive", false, &run_adaptive, nullptr},
    {Method::transient, "transient", false, &run_one<run_transient_group>,
     &run_transient_group},
    {Method::grunwald, "grunwald", false, &run_one<run_grunwald_group>,
     &run_grunwald_group},
};

// ---- per-method options equality: the fields() tables (util/fields.hpp);
// sources are excluded by construction and the Engine-injected
// caches/control pointers are not in the tables -----------------------------

template <class Options>
bool options_equal(const Options& a, const Options& b) {
    return util::fields_equal(a, b);
}

/// TransientOptions::symbolic never travels, so it is not in fields(); in
/// process, a caller-pinned analysis still keeps two configs apart.
bool options_equal(const transient::TransientOptions& a,
                   const transient::TransientOptions& b) {
    return util::fields_equal(a, b) && a.symbolic == b.symbolic;
}

} // namespace

const SolverAdapter& adapter_for(Method m) {
    for (const SolverAdapter& a : kRegistry)
        if (a.method == m) return a;
    OPMSIM_ENSURE(false, "adapter_for: unknown method");
}

bool batch_compatible(const Scenario& a, const Scenario& b) {
    if (a.t_end != b.t_end || a.steps != b.steps ||
        a.config.index() != b.config.index())
        return false;
    return std::visit(
        [&b](const auto& oa) {
            return options_equal(
                oa, std::get<std::decay_t<decltype(oa)>>(b.config));
        },
        a.config);
}

} // namespace opmsim::api
