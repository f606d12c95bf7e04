// Batch-vectorized FFT executor: runs V same-size transforms per pass in a
// split-complex (structure-of-arrays) layout so every radix butterfly
// operates on contiguous Real lanes — the "vector across transforms"
// regime the paper's local FFT stages (I_M' (x) F_P and I_P (x) F_M',
// Eq. 6) live in.
//
// Differences from the per-transform engine behind FftPlan:
//   * split-complex SoA working set: re/im of lane v, element j at
//     [j*V + v] in two separate Real arrays — unit-stride vector loads for
//     every butterfly leg, twiddles splat across lanes,
//   * explicitly vectorized kernels: one vector-extension body per radix,
//     a compile-time width template over Real lanes (W = 1 is plain Real),
//     with the width dispatched at runtime on the detected ISA
//     (scalar / SSE2 / AVX2 / AVX-512 — the convolve.cpp tile pattern);
//     the tier changes speed, never bits,
//   * a radix-8 pass shortening power-of-two schedules by a third,
//   * fused strided data movement: the batch's input/output layouts are
//     parameters, so the stride-P permutation between the SOI pipeline's
//     two FFT stages becomes the cache-blocked load/store phases of the
//     batch pass instead of a separate sweep over memory,
//   * OpenMP parallelism over batch chunks of V transforms.
//
// Non-smooth sizes run BATCHED Rader / Bluestein: the permutation, chirp
// and pointwise-kernel steps are uniform across a batch, so the inner
// smooth transforms execute through this same executor at full width.
//
// Thread-safe after construction: concurrent execute calls allocate their
// own scratch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "fft/simd.hpp"

namespace soi::fft {

/// Memory layout of a batch of transforms sharing one buffer: element j of
/// transform b lives at data[b*batch_stride + j*elem_stride].
///   contiguous batch (I_count (x) F_n): {n, 1}
///   interleaved batch (F_n (x) I_count): {1, count}
/// A store layout of {1, count} writes the transpose of a contiguous
/// input directly — this is how the SOI stride-P permutation fuses into
/// the batch pass.
struct BatchLayout {
  std::int64_t batch_stride = 0;
  std::int64_t elem_stride = 1;
};

namespace detail {
template <class Real>
class BatchEngine;
}

/// Reusable, immutable batched FFT plan for a fixed size n.
template <class Real>
class BatchFftT {
 public:
  using C = cplx_t<Real>;

  /// `batch_width` = transforms per SoA pass (the autotuner knob); 0 picks
  /// a width from the detected SIMD tier and a scratch budget.
  explicit BatchFftT(std::int64_t n, std::int64_t batch_width = 0);
  ~BatchFftT();
  BatchFftT(BatchFftT&&) noexcept;
  BatchFftT& operator=(BatchFftT&&) noexcept;
  BatchFftT(const BatchFftT&) = delete;
  BatchFftT& operator=(const BatchFftT&) = delete;

  [[nodiscard]] std::int64_t size() const { return n_; }
  /// Requested width (0 = auto); effective_width() is what a batch of
  /// `count` actually runs at after clamping to count and the scratch cap.
  [[nodiscard]] std::int64_t batch_width() const { return width_; }
  [[nodiscard]] std::int64_t effective_width(std::int64_t count) const;
  /// Dispatch tier the kernels run at on this machine.
  [[nodiscard]] SimdTier simd_tier() const;

  /// Per-thread scratch bytes one execute of a batch of `count` needs
  /// (SoA ping-pong planes for smooth sizes; staging chunks plus the
  /// recursive sub-transform's scratch for Rader/Bluestein). Smooth sizes
  /// keep this in persistent per-thread storage — allocated on a thread's
  /// first execute, reused afterwards — which is what makes steady-state
  /// pipeline execution allocation-free; the workspace planner queries
  /// this to account for it.
  [[nodiscard]] std::int64_t scratch_bytes(std::int64_t count) const;

  /// `count` transforms over contiguous length-n chunks, out-of-place.
  /// Forward uses exp(-i 2 pi jk/n); inverse includes the 1/n scaling.
  void forward(cspan_t<Real> in, mspan_t<Real> out, std::int64_t count) const;
  void inverse(cspan_t<Real> in, mspan_t<Real> out, std::int64_t count) const;

  /// Fully general layouts: gather/scatter are fused into the SoA
  /// load/store phases (cache-blocked, vector-wide when a stride is 1).
  /// `in` and `out` must not alias. Spans must cover every addressed
  /// element (max index + 1).
  void forward_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const;
  void inverse_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const;

 private:
  std::int64_t n_;
  std::int64_t width_;
  std::unique_ptr<detail::BatchEngine<Real>> engine_;
};

extern template class BatchFftT<double>;
extern template class BatchFftT<float>;

using BatchFft = BatchFftT<double>;
using BatchFftF = BatchFftT<float>;

/// Contiguous layout helper for size n.
inline BatchLayout contiguous_layout(std::int64_t n) { return {n, 1}; }
/// Interleaved (Kronecker F_n (x) I_count) layout helper.
inline BatchLayout interleaved_layout(std::int64_t count) {
  return {1, count};
}

}  // namespace soi::fft
