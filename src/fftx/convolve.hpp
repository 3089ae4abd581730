#pragma once
/// \file convolve.hpp
/// \brief Batched real-input FFT convolution with cached kernel spectra.
///
/// The fractional OPM sweeps and the Grünwald–Letnikov stepper reduce to
/// causal convolutions of the solved state columns against a fixed Toeplitz
/// coefficient row.  This module provides the FFT substrate for evaluating
/// those convolutions fast: a RealConvPlan caches the zero-padded kernel
/// spectrum once and then convolves any number of input channels against
/// it.  Channels are processed two at a time, packed into the real and
/// imaginary lanes of a single complex transform — exact by linearity,
/// because the kernel spectrum multiplies both lanes identically — which
/// halves the FFT count for the multi-channel state convolutions.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fftx/fft.hpp"
#include "util/annotations.hpp"

namespace opmsim::fftx {

/// Full linear convolution y[t] = sum_u a[u] b[t-u], length na + nb - 1.
/// Uses FFT above a small size threshold, direct multiplication below it.
std::vector<double> convolve_real(const std::vector<double>& a,
                                  const std::vector<double>& b);

/// Reusable plan for linear convolution of real signals against one fixed
/// real kernel.  The FFT size is the smallest power of two holding the
/// full linear convolution (kernel length + max input length - 1), so no
/// circular aliasing occurs anywhere in the output.
class RealConvPlan {
public:
    /// \param kernel  kernel taps k[0..nk-1]
    /// \param nk      kernel length (>= 1)
    /// \param max_nx  largest input length this plan will be asked to
    ///                convolve (>= 1)
    RealConvPlan(const double* kernel, std::size_t nk, std::size_t max_nx);

    /// y[t] += (x * k)[t0 + t] for t in [0, nt).  Requires nx <= max_nx
    /// and t0 + nt <= fft_size().
    void accumulate(const double* x, std::size_t nx, double* y,
                    std::size_t t0, std::size_t nt);

    /// Two-channel packed variant: ya[t] += (xa * k)[t0 + t] and
    /// yb[t] += (xb * k)[t0 + t] with a single complex FFT pair.
    void accumulate2(const double* xa, const double* xb, std::size_t nx,
                     double* ya, double* yb, std::size_t t0, std::size_t nt);

    /// Split-phase API for batched multi-kernel convolution: forward()
    /// transforms a packed channel pair once into `spec`, and
    /// accumulate_spectrum() convolves that spectrum against THIS plan's
    /// kernel.  A spectrum computed by any plan is valid for every plan of
    /// the same fft_size(), so K same-size plans cost one forward + K
    /// inverse transforms per input block instead of K of each — the
    /// multi-term history engine's batching primitive.  `xb`/`yb` may be
    /// null for a single channel.
    void forward(const double* xa, const double* xb, std::size_t nx,
                 std::vector<cplx>& spec) const;
    void accumulate_spectrum(const std::vector<cplx>& spec, double* ya,
                             double* yb, std::size_t t0, std::size_t nt);

    [[nodiscard]] std::size_t fft_size() const { return n_; }
    [[nodiscard]] std::size_t kernel_size() const { return nk_; }

private:
    void transform_and_extract(std::size_t nx) REQUIRES(mutex_);
    void multiply_and_invert(const cplx* spec) REQUIRES(mutex_);

    std::size_t nk_ = 0;      ///< kernel length
    std::size_t max_nx_ = 0;  ///< largest admissible input length
    std::size_t n_ = 0;       ///< FFT size (power of two)
    std::vector<cplx> kspec_; ///< cached kernel spectrum, length n_ (immutable after ctor)
    util::Mutex mutex_;       ///< serializes buf_ (plans are shared via the cache)
    /// scratch transform buffer, length n_.  The constructor sizes it
    /// before the plan is published, so only the locked accumulate paths
    /// ever touch it afterwards.
    std::vector<cplx> buf_ GUARDED_BY(mutex_);
};

/// Cross-run cache of RealConvPlans, keyed by (kernel taps, max_nx).
///
/// Plan construction is the O(len log len) kernel-spectrum transform; the
/// history engines build one plan per dyadic level per coefficient row, so
/// re-running the same simulation (cross-method comparisons, batched
/// scenarios) rebuilds identical plans from identical kernels.  This cache
/// memoizes them: lookups hash the kernel bytes and verify tap-for-tap
/// against the stored copy, so a collision can never return a wrong plan.
/// max_nx must match exactly — it fixes the FFT size, and a larger plan
/// would round differently (the cache guarantees cached runs stay
/// bit-identical to uncached ones).
///
/// Lookups/insertions are serialized by an internal mutex, and the plans
/// themselves serialize their scratch buffer, so a shared cache (and a
/// shared plan) is safe across the Engine's run_batch worker threads.
/// Plans are built outside the lock; threads that miss on the same key
/// concurrently may each build one, but only one copy per key is cached
/// and every caller gets that resident plan back (each miss still counts
/// as a miss).  Beyond `max_plans` the most
/// recent insertion is replaced (not the oldest), so cyclic replays
/// longer than the cap keep the resident entries hitting — the same
/// eviction policy as la::FactorCache.
class ConvPlanCache {
public:
    explicit ConvPlanCache(std::size_t max_plans = 128)
        : max_plans_(max_plans) {}

    ConvPlanCache(const ConvPlanCache&) = delete;
    ConvPlanCache& operator=(const ConvPlanCache&) = delete;

    /// Fetch (or build and store) a plan for this exact kernel.
    std::shared_ptr<RealConvPlan> get(const double* kernel, std::size_t nk,
                                      std::size_t max_nx);

    [[nodiscard]] std::size_t size() const {
        const util::MutexLock lock(mutex_);
        return entries_.size();
    }
    [[nodiscard]] long hits() const {
        const util::MutexLock lock(mutex_);
        return hits_;
    }
    [[nodiscard]] long misses() const {
        const util::MutexLock lock(mutex_);
        return misses_;
    }

    void clear() {
        const util::MutexLock lock(mutex_);
        entries_.clear();
    }

private:
    struct Entry {
        std::uint64_t hash = 0;
        std::vector<double> kernel;
        std::size_t max_nx = 0;
        std::shared_ptr<RealConvPlan> plan;
    };

    /// The resident plan for this exact key (hash, then tap-for-tap), or
    /// null.
    std::shared_ptr<RealConvPlan> find_locked(std::uint64_t h,
                                              const double* kernel,
                                              std::size_t nk,
                                              std::size_t max_nx) const
        REQUIRES(mutex_);

    /// mutable: the stats getters are const but must lock (an
    /// unsynchronized size()/hits() read racing get()'s insert is UB).
    mutable util::Mutex mutex_;
    std::size_t max_plans_;
    /// insertion order; back() is replaced when full
    std::vector<Entry> entries_ GUARDED_BY(mutex_);
    long hits_ GUARDED_BY(mutex_) = 0;
    long misses_ GUARDED_BY(mutex_) = 0;
};

} // namespace opmsim::fftx
