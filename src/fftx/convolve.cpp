#include "fftx/convolve.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace opmsim::fftx {

std::vector<double> convolve_real(const std::vector<double>& a,
                                  const std::vector<double>& b) {
    if (a.empty() || b.empty()) return {};
    const std::size_t ny = a.size() + b.size() - 1;

    // Direct path: FFT overhead dominates for tiny operands.
    if (std::min(a.size(), b.size()) < 16 || ny < 64) {
        std::vector<double> y(ny, 0.0);
        for (std::size_t i = 0; i < a.size(); ++i)
            for (std::size_t j = 0; j < b.size(); ++j) y[i + j] += a[i] * b[j];
        return y;
    }

    RealConvPlan plan(b.data(), b.size(), a.size());
    std::vector<double> y(ny, 0.0);
    plan.accumulate(a.data(), a.size(), y.data(), 0, ny);
    return y;
}

RealConvPlan::RealConvPlan(const double* kernel, std::size_t nk,
                           std::size_t max_nx)
    : nk_(nk), max_nx_(max_nx) {
    OPMSIM_REQUIRE(nk >= 1 && max_nx >= 1, "RealConvPlan: empty operands");
    n_ = next_pow2(nk + max_nx - 1);
    kspec_.assign(n_, cplx(0.0, 0.0));
    for (std::size_t i = 0; i < nk; ++i) kspec_[i] = cplx(kernel[i], 0.0);
    fft(kspec_);
    // Fold the inverse-transform normalization into the cached spectrum so
    // each convolution can use the unnormalized inverse FFT.
    const double inv_n = 1.0 / static_cast<double>(n_);
    for (auto& v : kspec_) v *= inv_n;
    buf_.resize(n_);
}

/// buf_ = ifft_unnormalized(spec .* kspec_).  The one place the kernel
/// spectrum is applied — both the fused accumulate paths and the
/// split-phase accumulate_spectrum go through it, so they stay
/// numerically identical.  `spec` may alias buf_ (element-wise).
void RealConvPlan::multiply_and_invert(const cplx* spec) {
    for (std::size_t k = 0; k < n_; ++k) {
        // Explicit complex product: keeps the hot loop free of __mulsc3.
        const double ar = spec[k].real(), ai = spec[k].imag();
        const double br = kspec_[k].real(), bi = kspec_[k].imag();
        buf_[k] = cplx(ar * br - ai * bi, ar * bi + ai * br);
    }
    ifft_unnormalized(buf_);
}

void RealConvPlan::transform_and_extract(std::size_t nx) {
    std::fill(buf_.begin() + static_cast<std::ptrdiff_t>(nx), buf_.end(),
              cplx(0.0, 0.0));
    fft(buf_);
    multiply_and_invert(buf_.data());
}

void RealConvPlan::accumulate(const double* x, std::size_t nx, double* y,
                              std::size_t t0, std::size_t nt) {
    OPMSIM_ENSURE(nx <= max_nx_, "RealConvPlan: input exceeds planned length");
    OPMSIM_ENSURE(t0 + nt <= n_, "RealConvPlan: output range exceeds FFT size");
    const util::MutexLock lock(mutex_);
    for (std::size_t u = 0; u < nx; ++u) buf_[u] = cplx(x[u], 0.0);
    transform_and_extract(nx);
    for (std::size_t t = 0; t < nt; ++t) y[t] += buf_[t0 + t].real();
}

void RealConvPlan::forward(const double* xa, const double* xb, std::size_t nx,
                           std::vector<cplx>& spec) const {
    OPMSIM_ENSURE(nx <= max_nx_, "RealConvPlan: input exceeds planned length");
    spec.assign(n_, cplx(0.0, 0.0));
    for (std::size_t u = 0; u < nx; ++u)
        spec[u] = cplx(xa[u], xb != nullptr ? xb[u] : 0.0);
    fft(spec);
}

void RealConvPlan::accumulate_spectrum(const std::vector<cplx>& spec,
                                       double* ya, double* yb, std::size_t t0,
                                       std::size_t nt) {
    OPMSIM_ENSURE(spec.size() == n_, "RealConvPlan: spectrum size mismatch");
    OPMSIM_ENSURE(t0 + nt <= n_, "RealConvPlan: output range exceeds FFT size");
    const util::MutexLock lock(mutex_);
    multiply_and_invert(spec.data());
    for (std::size_t t = 0; t < nt; ++t) {
        ya[t] += buf_[t0 + t].real();
        if (yb != nullptr) yb[t] += buf_[t0 + t].imag();
    }
}

std::shared_ptr<RealConvPlan> ConvPlanCache::find_locked(
    std::uint64_t h, const double* kernel, std::size_t nk,
    std::size_t max_nx) const {
    for (const Entry& e : entries_) {
        if (e.hash != h || e.max_nx != max_nx || e.kernel.size() != nk) continue;
        if (!std::equal(kernel, kernel + nk, e.kernel.begin())) continue;
        return e.plan;
    }
    return nullptr;
}

std::shared_ptr<RealConvPlan> ConvPlanCache::get(const double* kernel,
                                                 std::size_t nk,
                                                 std::size_t max_nx) {
    // FNV-1a over (nk, max_nx, kernel bytes), verified exactly below.
    std::uint64_t h = fnv1a(&nk, sizeof nk);
    h = fnv1a(&max_nx, sizeof max_nx, h);
    h = fnv1a(kernel, nk * sizeof(double), h);

    {
        const util::MutexLock lock(mutex_);
        if (std::shared_ptr<RealConvPlan> hit = find_locked(h, kernel, nk, max_nx)) {
            ++hits_;
            return hit;
        }
        ++misses_;
    }

    // Build OUTSIDE the lock — the kernel-spectrum FFT is the expensive
    // step, and holding the mutex here would serialize run_batch workers
    // whose groups plan different kernels (same pattern as
    // la::FactorCache::factor).  Two threads missing on the same key may
    // both build (the plans are identical), but only one copy is cached —
    // the recheck below returns the resident plan to the loser, so racing
    // inserts never hold duplicate entries or burn eviction capacity.
    Entry e;
    e.hash = h;
    e.kernel.assign(kernel, kernel + nk);
    e.max_nx = max_nx;
    e.plan = std::make_shared<RealConvPlan>(kernel, nk, max_nx);

    const util::MutexLock lock(mutex_);
    if (std::shared_ptr<RealConvPlan> raced = find_locked(h, kernel, nk, max_nx))
        return raced;
    // Replace-newest eviction, same policy (and rationale) as
    // la::FactorCache: a warm run replaying more plans than the cap keeps
    // hitting the resident entries instead of treadmilling to zero.
    if (entries_.size() >= max_plans_ && !entries_.empty()) entries_.pop_back();
    entries_.push_back(std::move(e));
    return entries_.back().plan;
}

void RealConvPlan::accumulate2(const double* xa, const double* xb,
                               std::size_t nx, double* ya, double* yb,
                               std::size_t t0, std::size_t nt) {
    OPMSIM_ENSURE(nx <= max_nx_, "RealConvPlan: input exceeds planned length");
    OPMSIM_ENSURE(t0 + nt <= n_, "RealConvPlan: output range exceeds FFT size");
    const util::MutexLock lock(mutex_);
    for (std::size_t u = 0; u < nx; ++u) buf_[u] = cplx(xa[u], xb[u]);
    transform_and_extract(nx);
    for (std::size_t t = 0; t < nt; ++t) {
        ya[t] += buf_[t0 + t].real();
        yb[t] += buf_[t0 + t].imag();
    }
}

} // namespace opmsim::fftx
