// Node-local structured convolution kernels (the W x product, Section 6).
//
// One rank computes chunks_per_rank chunks; chunk j_local = mu*q + r is a
// P-vector whose element p is a length-B inner product with stride-P reads:
//
//   out[j_local*P + p] = sum_{b=0}^{B-1} E[r][b*P + p] * in[q*nu*P + b*P + p]
//
// `in` holds the rank's M points followed by the (B-nu)*P halo from the
// right neighbour. For each lane p this is a small matrix product with
// Hankel structure: every group q reads the same mu x B taps, shifted by
// nu blocks of input per group.
//
// The optimised kernel reads split-complex (structure-of-arrays) input:
// re[] and im[] as two contiguous arrays. It is a GEMM-style register
// tile: the partial sums of all mu rows (in row blocks of at most five)
// of G = 2 adjacent groups, over one SIMD vector of the P lanes, stay in
// registers across the whole B-block reduction. Each table load then
// feeds 2 groups and each input load feeds the block's rows, about 2.9
// multiply-adds per load at mu = 5 (1.33 for a row pair of one group).
// Every output is still summed block by block in ascending order as
// acc += tr*xr - ti*xi, acc += tr*xi + ti*xr, so the bits do not depend
// on the tile shape, on how a group range is cut, or on P's lane width.
//
// The SOI pipeline stages its input split once (HaloConvStage writes the
// arena's `ext` buffer as re[] then im[]) and calls convolve_split_groups.
// The interleaved convolve_rank / convolve_rank_groups overloads split
// their input into a buffer they own and run the same kernel; tests,
// perfbench and bench_fft_engine use them. A reference triple loop transcribes the paper's
// pseudo code.
//
// All kernels are templated on the working precision (double and float
// instantiations are compiled).
#pragma once

#include <span>
#include <type_traits>

#include "common/types.hpp"
#include "soi/conv_table.hpp"
#include "soi/params.hpp"

namespace soi::core {

/// Reference kernel: direct transcription of the loop nest of Section 6
/// (loop_a chunks / loop_b rows / loop_c blocks / loop_d elements).
template <class Real>
void convolve_rank_reference(const SoiGeometry& g,
                             const ConvTableT<Real>& table,
                             std::type_identity_t<cspan_t<Real>> local_in,
                             std::type_identity_t<mspan_t<Real>> out);

/// Pipeline kernel: convolve row groups [q_begin, q_end) from split-complex
/// input (in_re[i] + i*in_im[i]). Group q reads in[q*nu*P, q*nu*P + B*P)
/// and writes chunks [q*mu, (q+1)*mu) of `out`. A segment is
/// groups_per_rank groups of M = groups_per_rank*nu*P points, so a rank's
/// spr consecutive segments plus one halo are the single group range
/// [0, spr * groups_per_rank): the pipeline convolves them in one call.
/// The halo-overlap path runs the groups whose input is fully local while
/// the halo is in flight, and the tail groups after it lands. Bit-identical
/// to the interleaved overloads for every range cut.
template <class Real>
void convolve_split_groups(const SoiGeometry& g, const ConvTableT<Real>& table,
                           std::type_identity_t<std::span<const Real>> in_re,
                           std::type_identity_t<std::span<const Real>> in_im,
                           std::type_identity_t<mspan_t<Real>> out,
                           std::int64_t q_begin, std::int64_t q_end);

/// Interleaved-input form of convolve_split_groups over one segment's
/// groups (q_end <= groups_per_rank): splits `local_in` (M + halo points)
/// into a buffer it owns, then runs the same kernel.
template <class Real>
void convolve_rank_groups(const SoiGeometry& g, const ConvTableT<Real>& table,
                          std::type_identity_t<cspan_t<Real>> local_in,
                          std::type_identity_t<mspan_t<Real>> out,
                          std::int64_t q_begin, std::int64_t q_end);

/// All groups of the rank: convolve_rank_groups over [0, groups_per_rank).
template <class Real>
void convolve_rank(const SoiGeometry& g, const ConvTableT<Real>& table,
                   std::type_identity_t<cspan_t<Real>> local_in,
                   std::type_identity_t<mspan_t<Real>> out);

/// Memory passes over fewer points than this run on the calling thread:
/// the serve lanes' small segments must not pay an OpenMP fork per call.
inline constexpr std::int64_t kParallelMinPoints = std::int64_t{1} << 16;

/// Deinterleave `src` into re[] and im[] in one pass, OpenMP-parallel from
/// kParallelMinPoints points.
template <class Real>
void split_complex(std::type_identity_t<cspan_t<Real>> src, Real* re,
                   Real* im);

#define SOI_CONVOLVE_EXTERN(Real)                                             \
  extern template void convolve_rank_reference<Real>(                        \
      const SoiGeometry&, const ConvTableT<Real>&, cspan_t<Real>,             \
      mspan_t<Real>);                                                         \
  extern template void convolve_split_groups<Real>(                          \
      const SoiGeometry&, const ConvTableT<Real>&, std::span<const Real>,     \
      std::span<const Real>, mspan_t<Real>, std::int64_t, std::int64_t);      \
  extern template void convolve_rank_groups<Real>(                           \
      const SoiGeometry&, const ConvTableT<Real>&, cspan_t<Real>,             \
      mspan_t<Real>, std::int64_t, std::int64_t);                             \
  extern template void convolve_rank<Real>(                                  \
      const SoiGeometry&, const ConvTableT<Real>&, cspan_t<Real>,             \
      mspan_t<Real>);                                                         \
  extern template void split_complex<Real>(cspan_t<Real>, Real*, Real*);
SOI_CONVOLVE_EXTERN(double)
SOI_CONVOLVE_EXTERN(float)
#undef SOI_CONVOLVE_EXTERN

}  // namespace soi::core
