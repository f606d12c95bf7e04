#include "fft/batch.hpp"

#include <algorithm>
#include <array>
#include <type_traits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "common/error.hpp"
#include "common/math.hpp"
#include "fft/factor.hpp"

namespace soi::fft {
namespace detail {
namespace {

template <class Real>
using rvec = std::vector<Real, AlignedAllocator<Real, 64>>;

constexpr double kSqrt3Over2B = 0.86602540378443864676;
constexpr double kCos2Pi5B = 0.30901699437494742410;
constexpr double kSin2Pi5B = 0.95105651629515357212;
constexpr double kCos4Pi5B = -0.80901699437494742410;
constexpr double kSin4Pi5B = 0.58778525229247312917;
constexpr double kInvSqrt2B = 0.70710678118654752440;

// ---------------------------------------------------------------------------
// SoA Stockham passes.
//
// The working set is a pair of split Real arrays holding V interleaved
// transforms: re/im of (element e, lane v) at flat index e*V + v. This is
// the scalar engine's interleaved form (s0 = V), so each pass maps
//
//   a[j1] = src[c + s*(j2 + m*j1)] ,  c in [0, s), s a multiple of V
//   dst[c + s*(q1 + r*j2)] = butterfly(a)[q1] * tw[j2*r + q1]
//
// and the c loop — contiguous, twiddle-invariant — is the vector axis.
// Kernels are templated on the compile-time width W (Real lanes of one
// SIMD register at the dispatched ISA tier) and written once, in GCC/Clang
// vector extensions: explicit W-lane loads/stores and splatted twiddles,
// so the strided q-leg stores need no alias analysis from the compiler.
// A vector type lowers to whatever the target ISA offers (an 8-double
// vector becomes one zmm op, two ymm ops, or four xmm ops), and W = 1 is
// plain Real, so one body per radix serves every tier and every span; the
// tier changes speed, never bits. Callers guarantee s % W == 0; there are
// no tail loops. Sign: -1 forward, +1 inverse.
// ---------------------------------------------------------------------------

template <int Sign, class Real>
inline void mul_pm_i_split(Real vr, Real vi, Real& or_, Real& oi) {
  // (or_, oi) = v * (-Sign * i): forward (-i), inverse (+i).
  if constexpr (Sign < 0) {
    or_ = vi;
    oi = -vr;
  } else {
    or_ = -vi;
    oi = vr;
  }
}

// Generic radix (7, 11, 13): O(r^2) butterfly over W = 4 accumulators,
// with a scalar tail, so any span s works. The width is fixed on every
// tier, which keeps these radices tier-independent too.
template <class Real>
void passg_soa(std::int64_t r, std::int64_t m, std::int64_t s,
               const Real* __restrict sre, const Real* __restrict sim,
               Real* __restrict dre, Real* __restrict dim,
               const Real* __restrict twr, const Real* __restrict twi,
               const Real* __restrict wrr, const Real* __restrict wri) {
  constexpr int W = 4;
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const Real* t = twr + j2 * r;
    const Real* ti = twi + j2 * r;
    for (std::int64_t q1 = 0; q1 < r; ++q1) {
      Real* __restrict dr = dre + s * (q1 + r * j2);
      Real* __restrict di = dim + s * (q1 + r * j2);
      const Real tr = t[q1], tqi = ti[q1];
      std::int64_t c = 0;
      for (; c + W <= s; c += W) {
        Real accr[W], acci[W];
        const Real* __restrict s0r = sre + s * j2;
        const Real* __restrict s0i = sim + s * j2;
        for (int k = 0; k < W; ++k) {
          accr[k] = s0r[c + k];
          acci[k] = s0i[c + k];
        }
        for (std::int64_t j1 = 1; j1 < r; ++j1) {
          const Real wr = wrr[j1 * r + q1], wi = wri[j1 * r + q1];
          const Real* __restrict ar = sre + s * (j2 + m * j1);
          const Real* __restrict ai = sim + s * (j2 + m * j1);
          for (int k = 0; k < W; ++k) {
            accr[k] += ar[c + k] * wr - ai[c + k] * wi;
            acci[k] += ar[c + k] * wi + ai[c + k] * wr;
          }
        }
        for (int k = 0; k < W; ++k) {
          dr[c + k] = accr[k] * tr - acci[k] * tqi;
          di[c + k] = accr[k] * tqi + acci[k] * tr;
        }
      }
      for (; c < s; ++c) {
        Real accr = sre[c + s * j2], acci = sim[c + s * j2];
        for (std::int64_t j1 = 1; j1 < r; ++j1) {
          const Real wr = wrr[j1 * r + q1], wi = wri[j1 * r + q1];
          const Real ar = sre[c + s * (j2 + m * j1)];
          const Real ai = sim[c + s * (j2 + m * j1)];
          accr += ar * wr - ai * wi;
          acci += ar * wi + ai * wr;
        }
        dr[c] = accr * tr - acci * tqi;
        di[c] = accr * tqi + acci * tr;
      }
    }
  }
}

// Compute vector types keep their natural alignment: every SoA scratch
// access is a whole-vector offset from a 64B-aligned plane base, and
// naturally-aligned types keep stack temporaries and reference binding
// well-formed under UBSan. AoS batch rows (caller-controlled stride) go
// through the relaxed-alignment twins below instead.
template <class Real, int W>
struct VecOf {
  typedef Real type __attribute__((vector_size(W * sizeof(Real))));
};
// One lane is Real itself: a one-element vector type compiles to slower
// code than the scalar it wraps.
template <class Real>
struct VecOf<Real, 1> {
  using type = Real;
};
template <class Real, int W>
using vec_t = typename VecOf<Real, W>::type;

template <class Real, int W>
struct VecUOf {
  typedef Real type
      __attribute__((vector_size(W * sizeof(Real)), aligned(alignof(Real))));
};
template <class Real, int W>
using uvec_t = typename VecUOf<Real, W>::type;

// v * w8^1 and v * w8^3 for the radix-8 butterfly (w8 = exp(Sign*i*pi/4)).
// mul_pm_i_split is constant-free and instantiates directly on vector
// types; these take k as a scalar operand, so V may also be Real.
template <int Sign, class V, class Real>
inline void vmul_w8_1(V vr, V vi, Real k, V& or_, V& oi) {
  if constexpr (Sign < 0) {
    or_ = (vr + vi) * k;
    oi = (vi - vr) * k;
  } else {
    or_ = (vr - vi) * k;
    oi = (vr + vi) * k;
  }
}

template <int Sign, class V, class Real>
inline void vmul_w8_3(V vr, V vi, Real k, V& or_, V& oi) {
  if constexpr (Sign < 0) {
    or_ = (vi - vr) * k;
    oi = -(vr + vi) * k;
  } else {
    or_ = -(vr + vi) * k;
    oi = (vr - vi) * k;
  }
}

template <int W, int Sign, class Real>
void pass2_vec(std::int64_t m, std::int64_t s, const Real* __restrict sre,
               const Real* __restrict sim, Real* __restrict dre,
               Real* __restrict dim, const Real* __restrict twr,
               const Real* __restrict twi) {
  using V = vec_t<Real, W>;
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const V t1r = V{} + twr[j2 * 2 + 1];
    const V t1i = V{} + twi[j2 * 2 + 1];
    const Real* __restrict sr0 = sre + s * j2;
    const Real* __restrict si0 = sim + s * j2;
    const Real* __restrict sr1 = sre + s * (j2 + m);
    const Real* __restrict si1 = sim + s * (j2 + m);
    Real* __restrict dr = dre + s * (2 * j2);
    Real* __restrict di = dim + s * (2 * j2);
    for (std::int64_t c = 0; c < s; c += W) {
      const V a0r = *(const V*)(sr0 + c), a0i = *(const V*)(si0 + c);
      const V a1r = *(const V*)(sr1 + c), a1i = *(const V*)(si1 + c);
      *(V*)(dr + c) = a0r + a1r;
      *(V*)(di + c) = a0i + a1i;
      const V br = a0r - a1r, bi = a0i - a1i;
      *(V*)(dr + c + s) = br * t1r - bi * t1i;
      *(V*)(di + c + s) = br * t1i + bi * t1r;
    }
  }
}

template <int W, int Sign, class Real>
void pass3_vec(std::int64_t m, std::int64_t s, const Real* __restrict sre,
               const Real* __restrict sim, Real* __restrict dre,
               Real* __restrict dim, const Real* __restrict twr,
               const Real* __restrict twi) {
  using V = vec_t<Real, W>;
  const Real half(0.5), s32(kSqrt3Over2B);
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const V t1r = V{} + twr[j2 * 3 + 1], t1i = V{} + twi[j2 * 3 + 1];
    const V t2r = V{} + twr[j2 * 3 + 2], t2i = V{} + twi[j2 * 3 + 2];
    const Real* __restrict sr0 = sre + s * j2;
    const Real* __restrict si0 = sim + s * j2;
    const Real* __restrict sr1 = sre + s * (j2 + m);
    const Real* __restrict si1 = sim + s * (j2 + m);
    const Real* __restrict sr2 = sre + s * (j2 + 2 * m);
    const Real* __restrict si2 = sim + s * (j2 + 2 * m);
    Real* __restrict dr = dre + s * (3 * j2);
    Real* __restrict di = dim + s * (3 * j2);
    for (std::int64_t c = 0; c < s; c += W) {
      const V a0r = *(const V*)(sr0 + c), a0i = *(const V*)(si0 + c);
      const V a1r = *(const V*)(sr1 + c), a1i = *(const V*)(si1 + c);
      const V a2r = *(const V*)(sr2 + c), a2i = *(const V*)(si2 + c);
      const V sumr = a1r + a2r, sumi = a1i + a2i;
      V difr, difi;
      mul_pm_i_split<Sign, V>(s32 * (a1r - a2r), s32 * (a1i - a2i), difr,
                              difi);
      const V baser = a0r - half * sumr, basei = a0i - half * sumi;
      *(V*)(dr + c) = a0r + sumr;
      *(V*)(di + c) = a0i + sumi;
      const V x1r = baser + difr, x1i = basei + difi;
      *(V*)(dr + c + s) = x1r * t1r - x1i * t1i;
      *(V*)(di + c + s) = x1r * t1i + x1i * t1r;
      const V x2r = baser - difr, x2i = basei - difi;
      *(V*)(dr + c + 2 * s) = x2r * t2r - x2i * t2i;
      *(V*)(di + c + 2 * s) = x2r * t2i + x2i * t2r;
    }
  }
}

template <int W, int Sign, class Real>
void pass4_vec(std::int64_t m, std::int64_t s, const Real* __restrict sre,
               const Real* __restrict sim, Real* __restrict dre,
               Real* __restrict dim, const Real* __restrict twr,
               const Real* __restrict twi) {
  using V = vec_t<Real, W>;
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const V t1r = V{} + twr[j2 * 4 + 1], t1i = V{} + twi[j2 * 4 + 1];
    const V t2r = V{} + twr[j2 * 4 + 2], t2i = V{} + twi[j2 * 4 + 2];
    const V t3r = V{} + twr[j2 * 4 + 3], t3i = V{} + twi[j2 * 4 + 3];
    const Real* __restrict sr0 = sre + s * j2;
    const Real* __restrict si0 = sim + s * j2;
    const Real* __restrict sr1 = sre + s * (j2 + m);
    const Real* __restrict si1 = sim + s * (j2 + m);
    const Real* __restrict sr2 = sre + s * (j2 + 2 * m);
    const Real* __restrict si2 = sim + s * (j2 + 2 * m);
    const Real* __restrict sr3 = sre + s * (j2 + 3 * m);
    const Real* __restrict si3 = sim + s * (j2 + 3 * m);
    Real* __restrict dr = dre + s * (4 * j2);
    Real* __restrict di = dim + s * (4 * j2);
    for (std::int64_t c = 0; c < s; c += W) {
      const V a0r = *(const V*)(sr0 + c), a0i = *(const V*)(si0 + c);
      const V a1r = *(const V*)(sr1 + c), a1i = *(const V*)(si1 + c);
      const V a2r = *(const V*)(sr2 + c), a2i = *(const V*)(si2 + c);
      const V a3r = *(const V*)(sr3 + c), a3i = *(const V*)(si3 + c);
      const V e0r = a0r + a2r, e0i = a0i + a2i;
      const V e1r = a0r - a2r, e1i = a0i - a2i;
      const V o0r = a1r + a3r, o0i = a1i + a3i;
      V o1r, o1i;
      mul_pm_i_split<Sign, V>(a1r - a3r, a1i - a3i, o1r, o1i);
      *(V*)(dr + c) = e0r + o0r;
      *(V*)(di + c) = e0i + o0i;
      const V x1r = e1r + o1r, x1i = e1i + o1i;
      *(V*)(dr + c + s) = x1r * t1r - x1i * t1i;
      *(V*)(di + c + s) = x1r * t1i + x1i * t1r;
      const V x2r = e0r - o0r, x2i = e0i - o0i;
      *(V*)(dr + c + 2 * s) = x2r * t2r - x2i * t2i;
      *(V*)(di + c + 2 * s) = x2r * t2i + x2i * t2r;
      const V x3r = e1r - o1r, x3i = e1i - o1i;
      *(V*)(dr + c + 3 * s) = x3r * t3r - x3i * t3i;
      *(V*)(di + c + 3 * s) = x3r * t3i + x3i * t3r;
    }
  }
}

template <int W, int Sign, class Real>
void pass5_vec(std::int64_t m, std::int64_t s, const Real* __restrict sre,
               const Real* __restrict sim, Real* __restrict dre,
               Real* __restrict dim, const Real* __restrict twr,
               const Real* __restrict twi) {
  using V = vec_t<Real, W>;
  const Real c1(kCos2Pi5B), c2(kCos4Pi5B), s1(kSin2Pi5B), s2(kSin4Pi5B);
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const Real* t = twr + j2 * 5;
    const Real* ti = twi + j2 * 5;
    V tr[5], tqi[5];
    for (int q = 1; q < 5; ++q) {
      tr[q] = V{} + t[q];
      tqi[q] = V{} + ti[q];
    }
    const Real* __restrict sr0 = sre + s * j2;
    const Real* __restrict si0 = sim + s * j2;
    const Real* __restrict sr1 = sre + s * (j2 + m);
    const Real* __restrict si1 = sim + s * (j2 + m);
    const Real* __restrict sr2 = sre + s * (j2 + 2 * m);
    const Real* __restrict si2 = sim + s * (j2 + 2 * m);
    const Real* __restrict sr3 = sre + s * (j2 + 3 * m);
    const Real* __restrict si3 = sim + s * (j2 + 3 * m);
    const Real* __restrict sr4 = sre + s * (j2 + 4 * m);
    const Real* __restrict si4 = sim + s * (j2 + 4 * m);
    Real* __restrict dr = dre + s * (5 * j2);
    Real* __restrict di = dim + s * (5 * j2);
    for (std::int64_t c = 0; c < s; c += W) {
      const V a0r = *(const V*)(sr0 + c), a0i = *(const V*)(si0 + c);
      const V a1r = *(const V*)(sr1 + c), a1i = *(const V*)(si1 + c);
      const V a2r = *(const V*)(sr2 + c), a2i = *(const V*)(si2 + c);
      const V a3r = *(const V*)(sr3 + c), a3i = *(const V*)(si3 + c);
      const V a4r = *(const V*)(sr4 + c), a4i = *(const V*)(si4 + c);
      const V su1r = a1r + a4r, su1i = a1i + a4i;
      const V su2r = a2r + a3r, su2i = a2i + a3i;
      const V d1r = a1r - a4r, d1i = a1i - a4i;
      const V d2r = a2r - a3r, d2i = a2i - a3i;
      const V m1r = a0r + c1 * su1r + c2 * su2r;
      const V m1i = a0i + c1 * su1i + c2 * su2i;
      const V m2r = a0r + c2 * su1r + c1 * su2r;
      const V m2i = a0i + c2 * su1i + c1 * su2i;
      V m3r, m3i, m4r, m4i;
      mul_pm_i_split<Sign, V>(s1 * d1r + s2 * d2r, s1 * d1i + s2 * d2i, m3r,
                              m3i);
      mul_pm_i_split<Sign, V>(s2 * d1r - s1 * d2r, s2 * d1i - s1 * d2i, m4r,
                              m4i);
      *(V*)(dr + c) = a0r + su1r + su2r;
      *(V*)(di + c) = a0i + su1i + su2i;
      const V x1r = m1r + m3r, x1i = m1i + m3i;
      *(V*)(dr + c + s) = x1r * tr[1] - x1i * tqi[1];
      *(V*)(di + c + s) = x1r * tqi[1] + x1i * tr[1];
      const V x2r = m2r + m4r, x2i = m2i + m4i;
      *(V*)(dr + c + 2 * s) = x2r * tr[2] - x2i * tqi[2];
      *(V*)(di + c + 2 * s) = x2r * tqi[2] + x2i * tr[2];
      const V x3r = m2r - m4r, x3i = m2i - m4i;
      *(V*)(dr + c + 3 * s) = x3r * tr[3] - x3i * tqi[3];
      *(V*)(di + c + 3 * s) = x3r * tqi[3] + x3i * tr[3];
      const V x4r = m1r - m3r, x4i = m1i - m3i;
      *(V*)(dr + c + 4 * s) = x4r * tr[4] - x4i * tqi[4];
      *(V*)(di + c + 4 * s) = x4r * tqi[4] + x4i * tr[4];
    }
  }
}

template <int W, int Sign, class Real>
void pass8_vec(std::int64_t m, std::int64_t s, const Real* __restrict sre,
               const Real* __restrict sim, Real* __restrict dre,
               Real* __restrict dim, const Real* __restrict twr,
               const Real* __restrict twi) {
  using V = vec_t<Real, W>;
  const Real k(kInvSqrt2B);
  for (std::int64_t j2 = 0; j2 < m; ++j2) {
    const Real* sr[8];
    const Real* si[8];
    for (int l = 0; l < 8; ++l) {
      sr[l] = sre + s * (j2 + l * m);
      si[l] = sim + s * (j2 + l * m);
    }
    Real* __restrict dr = dre + s * (8 * j2);
    Real* __restrict di = dim + s * (8 * j2);
    const Real* t = twr + j2 * 8;
    const Real* ti = twi + j2 * 8;
    for (std::int64_t c = 0; c < s; c += W) {
      V xr[8], xi[8];
      for (int l = 0; l < 8; ++l) {
        xr[l] = *(const V*)(sr[l] + c);
        xi[l] = *(const V*)(si[l] + c);
      }
      V er[4], ei[4], orr[4], oi[4];
      {
        const V e0r = xr[0] + xr[4], e0i = xi[0] + xi[4];
        const V e1r = xr[0] - xr[4], e1i = xi[0] - xi[4];
        const V o0r = xr[2] + xr[6], o0i = xi[2] + xi[6];
        V o1r, o1i;
        mul_pm_i_split<Sign, V>(xr[2] - xr[6], xi[2] - xi[6], o1r, o1i);
        er[0] = e0r + o0r; ei[0] = e0i + o0i;
        er[1] = e1r + o1r; ei[1] = e1i + o1i;
        er[2] = e0r - o0r; ei[2] = e0i - o0i;
        er[3] = e1r - o1r; ei[3] = e1i - o1i;
      }
      {
        const V e0r = xr[1] + xr[5], e0i = xi[1] + xi[5];
        const V e1r = xr[1] - xr[5], e1i = xi[1] - xi[5];
        const V o0r = xr[3] + xr[7], o0i = xi[3] + xi[7];
        V o1r, o1i;
        mul_pm_i_split<Sign, V>(xr[3] - xr[7], xi[3] - xi[7], o1r, o1i);
        orr[0] = e0r + o0r; oi[0] = e0i + o0i;
        orr[1] = e1r + o1r; oi[1] = e1i + o1i;
        orr[2] = e0r - o0r; oi[2] = e0i - o0i;
        orr[3] = e1r - o1r; oi[3] = e1i - o1i;
      }
      V wr[4], wi[4];
      wr[0] = orr[0]; wi[0] = oi[0];
      vmul_w8_1<Sign, V, Real>(orr[1], oi[1], k, wr[1], wi[1]);
      mul_pm_i_split<Sign, V>(orr[2], oi[2], wr[2], wi[2]);
      vmul_w8_3<Sign, V, Real>(orr[3], oi[3], k, wr[3], wi[3]);
      *(V*)(dr + c) = er[0] + wr[0];
      *(V*)(di + c) = ei[0] + wi[0];
      for (int q = 1; q < 4; ++q) {
        const V ar = er[q] + wr[q], ai = ei[q] + wi[q];
        const V tr = V{} + t[q], tq = V{} + ti[q];
        *(V*)(dr + c + q * s) = ar * tr - ai * tq;
        *(V*)(di + c + q * s) = ar * tq + ai * tr;
      }
      for (int q = 0; q < 4; ++q) {
        const V br = er[q] - wr[q], bi = ei[q] - wi[q];
        const V tr = V{} + t[q + 4], tq = V{} + ti[q + 4];
        *(V*)(dr + c + (q + 4) * s) = br * tr - bi * tq;
        *(V*)(di + c + (q + 4) * s) = br * tq + bi * tr;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Double-precision v=4 fast path: shuffle-network transposes between the
// interleaved (AoS) batch rows and the SoA working set, a paired radix-8
// first pass, and a fused unity-twiddle radix-4 last pass that writes the
// transposed output directly. These are the fixed-shape stages where the
// generic kernels lose to data movement; everything else in the schedule
// runs through the pass*_vec kernels above.
// ---------------------------------------------------------------------------

using dv8 = vec_t<double, 8>;
using dv4 = vec_t<double, 4>;
using duv8 = uvec_t<double, 8>;
using duv4 = uvec_t<double, 4>;

// Unaligned (8B-aligned) loads/stores for the AoS batch rows.
inline dv8 loadu8(const double* p) { return (dv8)*(const duv8*)p; }
inline dv4 loadu4(const double* p) { return (dv4)*(const duv4*)p; }
inline void storeu8(double* p, dv8 v) { *(duv8*)p = (duv8)v; }

// AoS -> SoA: 4 transform rows (stride bs complex), elements contiguous.
// Tiles of 4 elements x 4 lanes: 4 vector loads + 8 shuffles + 4 stores.
inline void load_shuf4(const cplx_t<double>* in, std::int64_t bs,
                       std::int64_t n, double* __restrict re,
                       double* __restrict im) {
  const double* raw = reinterpret_cast<const double*>(in);
  for (std::int64_t e0 = 0; e0 < n; e0 += 4) {
    const dv8 L0 = loadu8(raw + 2 * (0 * bs + e0));
    const dv8 L1 = loadu8(raw + 2 * (1 * bs + e0));
    const dv8 L2 = loadu8(raw + 2 * (2 * bs + e0));
    const dv8 L3 = loadu8(raw + 2 * (3 * bs + e0));
    const dv8 R01 = __builtin_shufflevector(L0, L1, 0, 8, 2, 10, 4, 12, 6, 14);
    const dv8 I01 = __builtin_shufflevector(L0, L1, 1, 9, 3, 11, 5, 13, 7, 15);
    const dv8 R23 = __builtin_shufflevector(L2, L3, 0, 8, 2, 10, 4, 12, 6, 14);
    const dv8 I23 = __builtin_shufflevector(L2, L3, 1, 9, 3, 11, 5, 13, 7, 15);
    *(dv8*)(re + e0 * 4) =
        __builtin_shufflevector(R01, R23, 0, 1, 8, 9, 2, 3, 10, 11);
    *(dv8*)(re + e0 * 4 + 8) =
        __builtin_shufflevector(R01, R23, 4, 5, 12, 13, 6, 7, 14, 15);
    *(dv8*)(im + e0 * 4) =
        __builtin_shufflevector(I01, I23, 0, 1, 8, 9, 2, 3, 10, 11);
    *(dv8*)(im + e0 * 4 + 8) =
        __builtin_shufflevector(I01, I23, 4, 5, 12, 13, 6, 7, 14, 15);
  }
}

// SoA -> AoS, inverse shuffle network, optional output scaling.
template <bool kScaled>
inline void store_shuf4(const double* __restrict re,
                        const double* __restrict im, std::int64_t n,
                        std::int64_t bs, double scale, cplx_t<double>* out) {
  double* raw = reinterpret_cast<double*>(out);
  for (std::int64_t e0 = 0; e0 < n; e0 += 4) {
    const dv8 RE01 = *(const dv8*)(re + e0 * 4);
    const dv8 RE23 = *(const dv8*)(re + e0 * 4 + 8);
    const dv8 IM01 = *(const dv8*)(im + e0 * 4);
    const dv8 IM23 = *(const dv8*)(im + e0 * 4 + 8);
    const dv8 R01 =
        __builtin_shufflevector(RE01, RE23, 0, 1, 4, 5, 8, 9, 12, 13);
    const dv8 R23 =
        __builtin_shufflevector(RE01, RE23, 2, 3, 6, 7, 10, 11, 14, 15);
    const dv8 I01 =
        __builtin_shufflevector(IM01, IM23, 0, 1, 4, 5, 8, 9, 12, 13);
    const dv8 I23 =
        __builtin_shufflevector(IM01, IM23, 2, 3, 6, 7, 10, 11, 14, 15);
    dv8 o0 = __builtin_shufflevector(R01, I01, 0, 8, 2, 10, 4, 12, 6, 14);
    dv8 o1 = __builtin_shufflevector(R01, I01, 1, 9, 3, 11, 5, 13, 7, 15);
    dv8 o2 = __builtin_shufflevector(R23, I23, 0, 8, 2, 10, 4, 12, 6, 14);
    dv8 o3 = __builtin_shufflevector(R23, I23, 1, 9, 3, 11, 5, 13, 7, 15);
    if constexpr (kScaled) {
      o0 *= scale;
      o1 *= scale;
      o2 *= scale;
      o3 *= scale;
    }
    storeu8(raw + 2 * (0 * bs + e0), o0);
    storeu8(raw + 2 * (1 * bs + e0), o1);
    storeu8(raw + 2 * (2 * bs + e0), o2);
    storeu8(raw + 2 * (3 * bs + e0), o3);
  }
}

// Paired radix-8 first pass reading AoS input directly: each leg l needs
// elements (j2 + l*m, j2 + l*m + 1) of all 4 lanes, i.e. four 32B loads at
// lane stride, transposed in registers. Fusing the transpose here skips the
// load_shuf4 round trip through the SoA scratch planes (64KB of L1 traffic
// per chunk), which is the difference between the chunk being load-bound
// and compute-bound once the batch streams past L2.
template <int Sign>
void pass8_first_pair4_fused(const cplx_t<double>* in, std::int64_t ibs,
                             std::int64_t m, double* __restrict dre,
                             double* __restrict dim,
                             const double* __restrict twr,
                             const double* __restrict twi) {
  using V = dv8;
  using H = dv4;
  const double* raw = reinterpret_cast<const double*>(in);
  const double k = kInvSqrt2B;
  const std::int64_t s = 4;
  for (std::int64_t jp = 0; jp < m / 2; ++jp) {
    const std::int64_t j2 = 2 * jp;
    V xr[8], xi[8];
    for (int l = 0; l < 8; ++l) {
      const double* p = raw + 2 * (j2 + l * m);
      const H h0 = loadu4(p);
      const H h1 = loadu4(p + 2 * ibs);
      const H h2 = loadu4(p + 4 * ibs);
      const H h3 = loadu4(p + 6 * ibs);
      const V v01 = __builtin_shufflevector(h0, h1, 0, 1, 2, 3, 4, 5, 6, 7);
      const V v23 = __builtin_shufflevector(h2, h3, 0, 1, 2, 3, 4, 5, 6, 7);
      xr[l] = __builtin_shufflevector(v01, v23, 0, 4, 8, 12, 2, 6, 10, 14);
      xi[l] = __builtin_shufflevector(v01, v23, 1, 5, 9, 13, 3, 7, 11, 15);
    }
    V er[4], ei[4], orr[4], oi[4];
    {
      const V e0r = xr[0] + xr[4], e0i = xi[0] + xi[4];
      const V e1r = xr[0] - xr[4], e1i = xi[0] - xi[4];
      const V o0r = xr[2] + xr[6], o0i = xi[2] + xi[6];
      V o1r, o1i;
      mul_pm_i_split<Sign, V>(xr[2] - xr[6], xi[2] - xi[6], o1r, o1i);
      er[0] = e0r + o0r; ei[0] = e0i + o0i;
      er[1] = e1r + o1r; ei[1] = e1i + o1i;
      er[2] = e0r - o0r; ei[2] = e0i - o0i;
      er[3] = e1r - o1r; ei[3] = e1i - o1i;
    }
    {
      const V e0r = xr[1] + xr[5], e0i = xi[1] + xi[5];
      const V e1r = xr[1] - xr[5], e1i = xi[1] - xi[5];
      const V o0r = xr[3] + xr[7], o0i = xi[3] + xi[7];
      V o1r, o1i;
      mul_pm_i_split<Sign, V>(xr[3] - xr[7], xi[3] - xi[7], o1r, o1i);
      orr[0] = e0r + o0r; oi[0] = e0i + o0i;
      orr[1] = e1r + o1r; oi[1] = e1i + o1i;
      orr[2] = e0r - o0r; oi[2] = e0i - o0i;
      orr[3] = e1r - o1r; oi[3] = e1i - o1i;
    }
    V wr[4], wi[4];
    wr[0] = orr[0]; wi[0] = oi[0];
    vmul_w8_1<Sign, V, double>(orr[1], oi[1], k, wr[1], wi[1]);
    mul_pm_i_split<Sign, V>(orr[2], oi[2], wr[2], wi[2]);
    vmul_w8_3<Sign, V, double>(orr[3], oi[3], k, wr[3], wi[3]);
    // Outputs of legs q, q+1 for element j2 are contiguous (as are those of
    // j2+1, 32 doubles later), so adjacent legs combine into full 64B
    // stores instead of four half-width ones.
    double* __restrict dr0 = dre + s * (8 * j2);
    double* __restrict di0 = dim + s * (8 * j2);
    double* __restrict dr1 = dre + s * (8 * j2 + 8);
    double* __restrict di1 = dim + s * (8 * j2 + 8);
    const double* twp = twr + jp * 64;
    const double* twq = twi + jp * 64;
    for (int q = 0; q < 4; q += 2) {
      const V ar = er[q] + wr[q], ai = ei[q] + wi[q];
      const V t0r = *(const V*)(twp + q * 8), t0i = *(const V*)(twq + q * 8);
      const V p0r = ar * t0r - ai * t0i, p0i = ar * t0i + ai * t0r;
      const V cr = er[q + 1] + wr[q + 1], ci = ei[q + 1] + wi[q + 1];
      const V t1r = *(const V*)(twp + (q + 1) * 8),
              t1i = *(const V*)(twq + (q + 1) * 8);
      const V p1r = cr * t1r - ci * t1i, p1i = cr * t1i + ci * t1r;
      *(V*)(dr0 + q * s) =
          __builtin_shufflevector(p0r, p1r, 0, 1, 2, 3, 8, 9, 10, 11);
      *(V*)(dr1 + q * s) =
          __builtin_shufflevector(p0r, p1r, 4, 5, 6, 7, 12, 13, 14, 15);
      *(V*)(di0 + q * s) =
          __builtin_shufflevector(p0i, p1i, 0, 1, 2, 3, 8, 9, 10, 11);
      *(V*)(di1 + q * s) =
          __builtin_shufflevector(p0i, p1i, 4, 5, 6, 7, 12, 13, 14, 15);
    }
    for (int q = 4; q < 8; q += 2) {
      const V ar = er[q - 4] - wr[q - 4], ai = ei[q - 4] - wi[q - 4];
      const V t0r = *(const V*)(twp + q * 8), t0i = *(const V*)(twq + q * 8);
      const V p0r = ar * t0r - ai * t0i, p0i = ar * t0i + ai * t0r;
      const V cr = er[q - 3] - wr[q - 3], ci = ei[q - 3] - wi[q - 3];
      const V t1r = *(const V*)(twp + (q + 1) * 8),
              t1i = *(const V*)(twq + (q + 1) * 8);
      const V p1r = cr * t1r - ci * t1i, p1i = cr * t1i + ci * t1r;
      *(V*)(dr0 + q * s) =
          __builtin_shufflevector(p0r, p1r, 0, 1, 2, 3, 8, 9, 10, 11);
      *(V*)(dr1 + q * s) =
          __builtin_shufflevector(p0r, p1r, 4, 5, 6, 7, 12, 13, 14, 15);
      *(V*)(di0 + q * s) =
          __builtin_shufflevector(p0i, p1i, 0, 1, 2, 3, 8, 9, 10, 11);
      *(V*)(di1 + q * s) =
          __builtin_shufflevector(p0i, p1i, 4, 5, 6, 7, 12, 13, 14, 15);
    }
  }
}

// Fused last pass + store: radix-4 with m == 1 (all twiddles unity) feeding
// the SoA->AoS shuffle network directly, so the final pass result never
// round-trips through the scratch buffers. Requires s % 16 == 0, v == 4.
// Leg q of the butterfly lands at output elements q*(s/4) + c/4.
template <int Sign, bool kScaled>
void pass4_last_store4(std::int64_t s, const double* __restrict sre,
                       const double* __restrict sim, std::int64_t bs,
                       double scale, cplx_t<double>* out) {
  using V = dv8;
  double* raw = reinterpret_cast<double*>(out);
  const double* __restrict sr0 = sre;
  const double* __restrict si0 = sim;
  const double* __restrict sr1 = sre + s;
  const double* __restrict si1 = sim + s;
  const double* __restrict sr2 = sre + 2 * s;
  const double* __restrict si2 = sim + 2 * s;
  const double* __restrict sr3 = sre + 3 * s;
  const double* __restrict si3 = sim + 3 * s;
  for (std::int64_t c = 0; c < s; c += 16) {
    V yr[4][2], yi[4][2];
    for (int h = 0; h < 2; ++h) {
      const std::int64_t cc = c + 8 * h;
      const V a0r = *(const V*)(sr0 + cc), a0i = *(const V*)(si0 + cc);
      const V a1r = *(const V*)(sr1 + cc), a1i = *(const V*)(si1 + cc);
      const V a2r = *(const V*)(sr2 + cc), a2i = *(const V*)(si2 + cc);
      const V a3r = *(const V*)(sr3 + cc), a3i = *(const V*)(si3 + cc);
      const V e0r = a0r + a2r, e0i = a0i + a2i;
      const V e1r = a0r - a2r, e1i = a0i - a2i;
      const V o0r = a1r + a3r, o0i = a1i + a3i;
      V o1r, o1i;
      mul_pm_i_split<Sign, V>(a1r - a3r, a1i - a3i, o1r, o1i);
      yr[0][h] = e0r + o0r; yi[0][h] = e0i + o0i;
      yr[1][h] = e1r + o1r; yi[1][h] = e1i + o1i;
      yr[2][h] = e0r - o0r; yi[2][h] = e0i - o0i;
      yr[3][h] = e1r - o1r; yi[3][h] = e1i - o1i;
    }
    for (int q = 0; q < 4; ++q) {
      const V RE01 = yr[q][0], RE23 = yr[q][1];
      const V IM01 = yi[q][0], IM23 = yi[q][1];
      const V R01 =
          __builtin_shufflevector(RE01, RE23, 0, 1, 4, 5, 8, 9, 12, 13);
      const V R23 =
          __builtin_shufflevector(RE01, RE23, 2, 3, 6, 7, 10, 11, 14, 15);
      const V I01 =
          __builtin_shufflevector(IM01, IM23, 0, 1, 4, 5, 8, 9, 12, 13);
      const V I23 =
          __builtin_shufflevector(IM01, IM23, 2, 3, 6, 7, 10, 11, 14, 15);
      V o0 = __builtin_shufflevector(R01, I01, 0, 8, 2, 10, 4, 12, 6, 14);
      V o1 = __builtin_shufflevector(R01, I01, 1, 9, 3, 11, 5, 13, 7, 15);
      V o2 = __builtin_shufflevector(R23, I23, 0, 8, 2, 10, 4, 12, 6, 14);
      V o3 = __builtin_shufflevector(R23, I23, 1, 9, 3, 11, 5, 13, 7, 15);
      if constexpr (kScaled) {
        o0 *= scale;
        o1 *= scale;
        o2 *= scale;
        o3 *= scale;
      }
      const std::int64_t e0 = q * (s / 4) + c / 4;
      storeu8(raw + 2 * (0 * bs + e0), o0);
      storeu8(raw + 2 * (1 * bs + e0), o1);
      storeu8(raw + 2 * (2 * bs + e0), o2);
      storeu8(raw + 2 * (3 * bs + e0), o3);
    }
  }
}

// ---------------------------------------------------------------------------
// Stage descriptors and the per-chunk driver.
// ---------------------------------------------------------------------------

template <class Real>
struct BStage {
  std::int64_t r = 0;
  std::int64_t m = 0;
  // Split twiddles [j2*r + q1], both signs.
  const Real* twr_f = nullptr;
  const Real* twi_f = nullptr;
  const Real* twr_i = nullptr;
  const Real* twi_i = nullptr;
  // Generic-radix butterfly tables [j1*r + q1] (null for 2/3/4/5/8).
  const Real* wrr_f = nullptr;
  const Real* wri_f = nullptr;
  const Real* wrr_i = nullptr;
  const Real* wri_i = nullptr;
};

// One pass at width W; caller guarantees s % W == 0.
template <int W, int Sign, class Real>
void run_stage(const BStage<Real>& st, std::int64_t s, const Real* sre,
               const Real* sim, Real* dre, Real* dim) {
  const Real* twr = Sign < 0 ? st.twr_f : st.twr_i;
  const Real* twi = Sign < 0 ? st.twi_f : st.twi_i;
  switch (st.r) {
    case 2:
      pass2_vec<W, Sign, Real>(st.m, s, sre, sim, dre, dim, twr, twi);
      break;
    case 3:
      pass3_vec<W, Sign, Real>(st.m, s, sre, sim, dre, dim, twr, twi);
      break;
    case 4:
      pass4_vec<W, Sign, Real>(st.m, s, sre, sim, dre, dim, twr, twi);
      break;
    case 5:
      pass5_vec<W, Sign, Real>(st.m, s, sre, sim, dre, dim, twr, twi);
      break;
    case 8:
      pass8_vec<W, Sign, Real>(st.m, s, sre, sim, dre, dim, twr, twi);
      break;
    default:
      passg_soa<Real>(st.r, st.m, s, sre, sim, dre, dim, twr, twi,
                      Sign < 0 ? st.wrr_f : st.wrr_i,
                      Sign < 0 ? st.wri_f : st.wri_i);
      break;
  }
}

// One pass at the widest vector width that divides the butterfly span s
// (capped by the dispatched tier width max_w). The span starts at v and
// multiplies by each radix, so early passes may run narrower than the
// machine width while later passes always fill it. No tier is wider than
// 64 bytes, so double builds carry no 16-lane kernels.
template <int Sign, class Real>
void run_stage_any(int max_w, const BStage<Real>& st, std::int64_t s,
                   const Real* sre, const Real* sim, Real* dre, Real* dim) {
  constexpr int kMaxLanes = 64 / static_cast<int>(sizeof(Real));
  int w = std::min(max_w, kMaxLanes);
  while (w > 1 && s % w != 0) w /= 2;
  switch (w) {
    case 16:
      if constexpr (kMaxLanes >= 16) {
        run_stage<16, Sign, Real>(st, s, sre, sim, dre, dim);
        return;
      }
      [[fallthrough]];
    case 8:
      run_stage<8, Sign, Real>(st, s, sre, sim, dre, dim);
      return;
    case 4:
      run_stage<4, Sign, Real>(st, s, sre, sim, dre, dim);
      return;
    case 2:
      run_stage<2, Sign, Real>(st, s, sre, sim, dre, dim);
      return;
    default:
      run_stage<1, Sign, Real>(st, s, sre, sim, dre, dim);
      return;
  }
}

// Runs every stage over one SoA chunk of V lanes, ping-ponging between the
// A (holding the loaded input) and B buffers. Returns true when the final
// result sits in B.
template <int Sign, class Real>
bool run_stages(const std::vector<BStage<Real>>& stages, int max_w,
                std::int64_t v, Real* are, Real* aim, Real* bre, Real* bim) {
  const Real* sre = are;
  const Real* sim = aim;
  std::int64_t s = v;
  bool into_b = true;
  for (const BStage<Real>& st : stages) {
    Real* dre = into_b ? bre : are;
    Real* dim = into_b ? bim : aim;
    run_stage_any<Sign, Real>(max_w, st, s, sre, sim, dre, dim);
    sre = dre;
    sim = dim;
    into_b = !into_b;
    s *= st.r;
  }
  return !into_b;  // flipped after the last pass
}

// ---------------------------------------------------------------------------
// Fused load/store phases: AoS (std::complex) <-> SoA lanes, with the
// batch's memory layout folded in. Three cases, fastest first:
//   elem_stride == 1  — per-lane contiguous reads, cache-blocked over
//                       elements so the stride-V SoA writes stay resident,
//   batch_stride == 1 — lane-contiguous rows: one deinterleave per row,
//   generic           — strided gather/scatter.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMoveBlock = 32;  // elements per cache block

template <class Real>
void load_soa(const cplx_t<Real>* in, BatchLayout l, std::int64_t n,
              std::int64_t b0, std::int64_t lanes, std::int64_t v, Real* re,
              Real* im) {
  const auto* raw = reinterpret_cast<const Real*>(in);
  if (l.elem_stride == 1) {
    for (std::int64_t e0 = 0; e0 < n; e0 += kMoveBlock) {
      const std::int64_t e1 = std::min(e0 + kMoveBlock, n);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const Real* src = raw + 2 * ((b0 + lv) * l.batch_stride + e0);
        for (std::int64_t e = e0; e < e1; ++e) {
          re[e * v + lv] = src[0];
          im[e * v + lv] = src[1];
          src += 2;
        }
      }
    }
  } else if (l.batch_stride == 1) {
    for (std::int64_t e = 0; e < n; ++e) {
      const Real* src = raw + 2 * (b0 + e * l.elem_stride);
      Real* rr = re + e * v;
      Real* ri = im + e * v;
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        rr[lv] = src[2 * lv];
        ri[lv] = src[2 * lv + 1];
      }
    }
  } else {
    for (std::int64_t e = 0; e < n; ++e) {
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const Real* src =
            raw + 2 * ((b0 + lv) * l.batch_stride + e * l.elem_stride);
        re[e * v + lv] = src[0];
        im[e * v + lv] = src[1];
      }
    }
  }
  if (lanes < v) {
    for (std::int64_t e = 0; e < n; ++e) {
      for (std::int64_t lv = lanes; lv < v; ++lv) {
        re[e * v + lv] = Real(0);
        im[e * v + lv] = Real(0);
      }
    }
  }
}

template <class Real>
void store_soa(const Real* re, const Real* im, std::int64_t n, std::int64_t b0,
               std::int64_t lanes, std::int64_t v, Real scale,
               cplx_t<Real>* out, BatchLayout l) {
  auto* raw = reinterpret_cast<Real*>(out);
  if (l.elem_stride == 1) {
    for (std::int64_t e0 = 0; e0 < n; e0 += kMoveBlock) {
      const std::int64_t e1 = std::min(e0 + kMoveBlock, n);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        Real* dst = raw + 2 * ((b0 + lv) * l.batch_stride + e0);
        for (std::int64_t e = e0; e < e1; ++e) {
          dst[0] = re[e * v + lv] * scale;
          dst[1] = im[e * v + lv] * scale;
          dst += 2;
        }
      }
    }
  } else if (l.batch_stride == 1) {
    for (std::int64_t e = 0; e < n; ++e) {
      Real* dst = raw + 2 * (b0 + e * l.elem_stride);
      const Real* rr = re + e * v;
      const Real* ri = im + e * v;
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        dst[2 * lv] = rr[lv] * scale;
        dst[2 * lv + 1] = ri[lv] * scale;
      }
    }
  } else {
    for (std::int64_t e = 0; e < n; ++e) {
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        Real* dst = raw + 2 * ((b0 + lv) * l.batch_stride + e * l.elem_stride);
        dst[0] = re[e * v + lv] * scale;
        dst[1] = im[e * v + lv] * scale;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// BatchEngine: one of four strategies behind BatchFftT.
// ---------------------------------------------------------------------------

template <class Real>
class BatchEngine {
 public:
  using C = cplx_t<Real>;

  BatchEngine(std::int64_t n, std::int64_t width)
      : n_(n), width_(width), tier_(detect_simd_tier()) {
    if (n == 1) {
      kind_ = Kind::kIdentity;
    } else if (is_smooth(n)) {
      kind_ = Kind::kSmooth;
      build_smooth();
    } else if (is_prime(static_cast<std::uint64_t>(n))) {
      kind_ = Kind::kRader;
      build_rader();
    } else {
      kind_ = Kind::kBluestein;
      build_bluestein();
    }
  }

  [[nodiscard]] SimdTier tier() const { return tier_; }

  [[nodiscard]] std::int64_t effective_width(std::int64_t count) const {
    // Auto width: the kernels vectorise along the butterfly span s, which
    // starts at v and multiplies by each radix, so v only needs to cover
    // the first pass and the transpose tiles — and a narrow chunk keeps
    // the whole ping-pong working set (4 planes of n*v Reals) inside L1
    // for the sizes the SOI pipeline batches. Capped so one chunk's SoA
    // scratch stays memory friendly for huge n.
    constexpr std::int64_t kScratchBudget = std::int64_t{32} << 20;
    const std::int64_t cap = std::max<std::int64_t>(
        1, kScratchBudget / (4 * n_ * static_cast<std::int64_t>(sizeof(Real))));
    std::int64_t v = width_;
    if (v <= 0) {
      v = std::is_same_v<Real, double> ? 4 : 8;
    }
    return std::clamp<std::int64_t>(std::min(v, count), 1, cap);
  }

  [[nodiscard]] std::int64_t scratch_bytes(std::int64_t count) const {
    switch (kind_) {
      case Kind::kIdentity:
        return 0;
      case Kind::kSmooth: {
        // Mirror execute_smooth: 4 SoA planes of n*v Reals, 64B-rounded
        // plus the 128B anti-conflict stagger.
        const std::int64_t v = effective_width(count);
        const std::int64_t plane = ((n_ * v + 15) & ~std::int64_t{15}) + 16;
        return 4 * plane * static_cast<std::int64_t>(sizeof(Real));
      }
      case Kind::kRader: {
        const std::int64_t chunk = std::min<std::int64_t>(count, 64);
        const std::int64_t q = n_ - 1;
        const std::int64_t elems = 2 * chunk * n_ + 2 * chunk * q + chunk;
        return elems * static_cast<std::int64_t>(sizeof(C)) +
               sub_->scratch_bytes(chunk);
      }
      case Kind::kBluestein: {
        const std::int64_t chunk = std::min<std::int64_t>(count, 64);
        return 2 * chunk * blen_ * static_cast<std::int64_t>(sizeof(C)) +
               bsub_->scratch_bytes(chunk);
      }
    }
    return 0;
  }

  void execute(const C* in, BatchLayout lin, C* out, BatchLayout lout,
               std::int64_t count, bool inverse) const {
    switch (kind_) {
      case Kind::kIdentity: {
        for (std::int64_t b = 0; b < count; ++b) {
          out[b * lout.batch_stride] = in[b * lin.batch_stride];
        }
        return;
      }
      case Kind::kSmooth:
        execute_smooth(in, lin, out, lout, count, inverse);
        return;
      case Kind::kRader:
        execute_rader(in, lin, out, lout, count, inverse);
        return;
      case Kind::kBluestein:
        execute_bluestein(in, lin, out, lout, count, inverse);
        return;
    }
  }

 private:
  enum class Kind { kIdentity, kSmooth, kRader, kBluestein };

  // --- smooth: native SoA Stockham -----------------------------------------

  void build_smooth() {
    const auto radices = radix_schedule_batch(n_);
    std::int64_t nt = n_;
    std::size_t tw_total = 0;
    for (std::int64_t r : radices) {
      tw_total += static_cast<std::size_t>(nt);
      nt /= r;
    }
    twr_f_.resize(tw_total);
    twi_f_.resize(tw_total);
    twr_i_.resize(tw_total);
    twi_i_.resize(tw_total);
    std::size_t off = 0;
    nt = n_;
    for (std::int64_t r : radices) {
      const std::int64_t m = nt / r;
      BStage<Real> st;
      st.r = r;
      st.m = m;
      st.twr_f = twr_f_.data() + off;
      st.twi_f = twi_f_.data() + off;
      st.twr_i = twr_i_.data() + off;
      st.twi_i = twi_i_.data() + off;
      for (std::int64_t j2 = 0; j2 < m; ++j2) {
        for (std::int64_t q1 = 0; q1 < r; ++q1) {
          const cplx w = omega(j2 * q1, nt);
          const auto idx = off + static_cast<std::size_t>(j2 * r + q1);
          twr_f_[idx] = static_cast<Real>(w.real());
          twi_f_[idx] = static_cast<Real>(w.imag());
          twr_i_[idx] = static_cast<Real>(w.real());
          twi_i_[idx] = static_cast<Real>(-w.imag());
        }
      }
      off += static_cast<std::size_t>(nt);
      if (r != 2 && r != 3 && r != 4 && r != 5 && r != 8) {
        auto& wf = wr_split_[static_cast<std::size_t>(r)];
        if (wf.rr_f.empty()) {
          wf.rr_f.resize(static_cast<std::size_t>(r * r));
          wf.ri_f.resize(static_cast<std::size_t>(r * r));
          wf.rr_i.resize(static_cast<std::size_t>(r * r));
          wf.ri_i.resize(static_cast<std::size_t>(r * r));
          for (std::int64_t j = 0; j < r; ++j) {
            for (std::int64_t q = 0; q < r; ++q) {
              const cplx w = omega(j * q, r);
              const auto idx = static_cast<std::size_t>(j * r + q);
              wf.rr_f[idx] = static_cast<Real>(w.real());
              wf.ri_f[idx] = static_cast<Real>(w.imag());
              wf.rr_i[idx] = static_cast<Real>(w.real());
              wf.ri_i[idx] = static_cast<Real>(-w.imag());
            }
          }
        }
        st.wrr_f = wf.rr_f.data();
        st.wri_f = wf.ri_f.data();
        st.wrr_i = wf.rr_i.data();
        st.wri_i = wf.ri_i.data();
      }
      stages_.push_back(st);
      nt = m;
    }
    // Double/v=4 fast-path eligibility, decided once per plan. The shuffle
    // transposes need 4-element tiles (n % 4); the paired first pass needs
    // a radix-8 head with an even butterfly count; the fused last pass
    // needs a radix-4 tail and 16-column groups (s = n at the last stage).
    if constexpr (std::is_same_v<Real, double>) {
      fast_ok_ =
          tier_ >= SimdTier::kAvx2 && n_ % 4 == 0 && !stages_.empty();
      pair_ok_ =
          fast_ok_ && stages_.front().r == 8 && stages_.front().m % 2 == 0;
      fused_ok_ = fast_ok_ && stages_.back().r == 4 && n_ % 16 == 0;
      if (pair_ok_) {
        // tw[(jp*8+q)*8 + l] = twiddle(j2 = 2*jp + l/4, q) — each vector
        // holds one twiddle replicated across the 4 lanes of two adjacent
        // butterflies, so the paired kernel loads it in one op.
        const std::int64_t m = stages_.front().m;
        const auto sz = static_cast<std::size_t>((m / 2) * 64);
        tw8p_r_f_.resize(sz);
        tw8p_i_f_.resize(sz);
        tw8p_r_i_.resize(sz);
        tw8p_i_i_.resize(sz);
        for (std::int64_t jp = 0; jp < m / 2; ++jp) {
          for (std::int64_t q = 0; q < 8; ++q) {
            for (int l = 0; l < 8; ++l) {
              const std::int64_t j2 = 2 * jp + l / 4;
              const cplx w = omega(j2 * q, n_);
              const auto idx = static_cast<std::size_t>((jp * 8 + q) * 8 + l);
              tw8p_r_f_[idx] = static_cast<Real>(w.real());
              tw8p_i_f_[idx] = static_cast<Real>(w.imag());
              tw8p_r_i_[idx] = static_cast<Real>(w.real());
              tw8p_i_i_[idx] = static_cast<Real>(-w.imag());
            }
          }
        }
      }
    }
  }

  template <int Sign>
  void run_chunk_dispatch(std::int64_t v, Real* are, Real* aim, Real* bre,
                          Real* bim, bool* in_b) const {
    *in_b = run_stages<Sign, Real>(stages_, simd_width<Real>(tier_), v, are,
                                   aim, bre, bim);
  }

  // Double/v=4 fast chunk: shuffle-network load, paired radix-8 first pass
  // (when the schedule starts with radix 8 and m is even), vector middle
  // passes, and either the fused radix-4 last pass + store or the shuffle
  // store. Caller guarantees fast_ok_, full lanes and unit element strides.
  template <int Sign>
  void run_chunk_fast(const C* inb, std::int64_t ibs, C* outb,
                      std::int64_t obs, Real scale, Real* are, Real* aim,
                      Real* bre, Real* bim) const {
    if constexpr (std::is_same_v<Real, double>) {
      const Real* sre = are;
      const Real* sim = aim;
      std::int64_t s = 4;
      bool into_b = true;
      std::size_t si = 0;
      if (pair_ok_) {
        pass8_first_pair4_fused<Sign>(
            inb, ibs, stages_[0].m, bre, bim,
            Sign < 0 ? tw8p_r_f_.data() : tw8p_r_i_.data(),
            Sign < 0 ? tw8p_i_f_.data() : tw8p_i_i_.data());
        sre = bre;
        sim = bim;
        into_b = false;
        s *= 8;
        si = 1;
      } else {
        load_shuf4(inb, ibs, n_, are, aim);
      }
      const int max_w = simd_width<Real>(tier_);
      for (; si < stages_.size(); ++si) {
        if (si + 1 == stages_.size() && fused_ok_) {
          if (scale != Real(1)) {
            pass4_last_store4<Sign, true>(s, sre, sim, obs, scale, outb);
          } else {
            pass4_last_store4<Sign, false>(s, sre, sim, obs, scale, outb);
          }
          return;
        }
        Real* dre = into_b ? bre : are;
        Real* dim = into_b ? bim : aim;
        run_stage_any<Sign, Real>(max_w, stages_[si], s, sre, sim, dre, dim);
        sre = dre;
        sim = dim;
        into_b = !into_b;
        s *= stages_[si].r;
      }
      if (scale != Real(1)) {
        store_shuf4<true>(sre, sim, n_, obs, scale, outb);
      } else {
        store_shuf4<false>(sre, sim, n_, obs, scale, outb);
      }
    }
  }

  void execute_smooth(const C* in, BatchLayout lin, C* out, BatchLayout lout,
                      std::int64_t count, bool inverse) const {
    const std::int64_t v = effective_width(count);
    const std::int64_t chunks = (count + v - 1) / v;
    const Real scale =
        inverse ? Real(1) / static_cast<Real>(n_) : Real(1);
    // Four SoA planes per thread, rounded so each plane stays 64B-aligned,
    // plus a 128B stagger so same-index lines of the ping-pong planes do
    // not all land in the same L1 set.
    const std::size_t plane =
        ((static_cast<std::size_t>(n_ * v) + 15) & ~std::size_t{15}) + 16;
    const bool fast =
        fast_ok_ && v == 4 && lin.elem_stride == 1 && lout.elem_stride == 1;
    auto chunk_body = [&](std::int64_t ch, Real* are, Real* aim, Real* bre,
                          Real* bim) {
      const std::int64_t b0 = ch * v;
      const std::int64_t lanes = std::min(v, count - b0);
      if (fast && lanes == v) {
        const C* inb = in + b0 * lin.batch_stride;
        C* outb = out + b0 * lout.batch_stride;
        if (inverse) {
          run_chunk_fast<+1>(inb, lin.batch_stride, outb, lout.batch_stride,
                             scale, are, aim, bre, bim);
        } else {
          run_chunk_fast<-1>(inb, lin.batch_stride, outb, lout.batch_stride,
                             scale, are, aim, bre, bim);
        }
        return;
      }
      load_soa<Real>(in, lin, n_, b0, lanes, v, are, aim);
      bool in_b = false;
      if (inverse) {
        run_chunk_dispatch<+1>(v, are, aim, bre, bim, &in_b);
      } else {
        run_chunk_dispatch<-1>(v, are, aim, bre, bim, &in_b);
      }
      const Real* fre = in_b ? bre : are;
      const Real* fim = in_b ? bim : aim;
      store_soa<Real>(fre, fim, n_, b0, lanes, v, scale, out, lout);
    };
    // Persistent per-thread scratch: repeated batched calls (the SOI
    // pipeline's segment loops) reuse the same planes instead of paying an
    // allocation per execute.
    auto scratch = [plane]() -> Real* {
      static thread_local rvec<Real> buf;
      if (buf.size() < 4 * plane) buf.resize(4 * plane);
      return buf.data();
    };
#ifdef _OPENMP
#pragma omp parallel if (chunks > 1)
    {
      Real* p = scratch();
#pragma omp for schedule(static)
      for (std::int64_t ch = 0; ch < chunks; ++ch) {
        chunk_body(ch, p, p + plane, p + 2 * plane, p + 3 * plane);
      }
    }
#else
    Real* p = scratch();
    for (std::int64_t ch = 0; ch < chunks; ++ch) {
      chunk_body(ch, p, p + plane, p + 2 * plane, p + 3 * plane);
    }
#endif
  }

  // --- batched Rader --------------------------------------------------------
  //
  // The g^m permutation, the pointwise kernel multiply and the x[0]
  // correction are uniform across a batch, so a batch of prime-size
  // transforms becomes two batched smooth transforms of length p-1 through
  // a recursive BatchFftT (p-1 is even, so the recursion terminates at
  // smooth or Bluestein, never Rader again).

  void build_rader() {
    const auto g = primitive_root(static_cast<std::uint64_t>(n_));
    const std::int64_t q = n_ - 1;
    perm_.resize(static_cast<std::size_t>(q));
    inv_perm_.resize(static_cast<std::size_t>(q));
    std::uint64_t gm = 1;
    for (std::int64_t m = 0; m < q; ++m) {
      perm_[static_cast<std::size_t>(m)] = static_cast<std::int64_t>(gm);
      inv_perm_[static_cast<std::size_t>((q - m) % q)] =
          static_cast<std::int64_t>(gm);
      gm = mulmod(gm, g, static_cast<std::uint64_t>(n_));
    }
    sub_ = std::make_unique<BatchFftT<Real>>(q, width_);
    cvec_t<Real> b(static_cast<std::size_t>(q));
    for (std::int64_t m = 0; m < q; ++m) {
      b[static_cast<std::size_t>(m)] = static_cast<C>(
          omega(inv_perm_[static_cast<std::size_t>(m)], n_));
    }
    kernel_fft_.resize(static_cast<std::size_t>(q));
    sub_->forward(b, kernel_fft_, 1);
  }

  void execute_rader(const C* in, BatchLayout lin, C* out, BatchLayout lout,
                     std::int64_t count, bool inverse) const {
    const std::int64_t p = n_;
    const std::int64_t q = p - 1;
    const std::int64_t chunk = std::min<std::int64_t>(count, 64);
    cvec_t<Real> in_c(static_cast<std::size_t>(chunk * p));
    cvec_t<Real> out_c(static_cast<std::size_t>(chunk * p));
    cvec_t<Real> a(static_cast<std::size_t>(chunk * q));
    cvec_t<Real> b(static_cast<std::size_t>(chunk * q));
    std::vector<C> tot(static_cast<std::size_t>(chunk));
    for (std::int64_t b0 = 0; b0 < count; b0 += chunk) {
      const std::int64_t lanes = std::min(chunk, count - b0);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* src = in + (b0 + lv) * lin.batch_stride;
        C* dst = in_c.data() + lv * p;
        if (inverse) {
          for (std::int64_t j = 0; j < p; ++j) {
            dst[j] = std::conj(src[j * lin.elem_stride]);
          }
        } else {
          for (std::int64_t j = 0; j < p; ++j) dst[j] = src[j * lin.elem_stride];
        }
      }
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* x = in_c.data() + lv * p;
        C* al = a.data() + lv * q;
        C total = x[0];
        for (std::int64_t m = 0; m < q; ++m) {
          al[m] = x[perm_[static_cast<std::size_t>(m)]];
          total += al[m];
        }
        tot[static_cast<std::size_t>(lv)] = total;
      }
      sub_->forward(cspan_t<Real>{a.data(), static_cast<std::size_t>(lanes * q)},
                    mspan_t<Real>{b.data(), static_cast<std::size_t>(lanes * q)},
                    lanes);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        C* bl = b.data() + lv * q;
        for (std::int64_t m = 0; m < q; ++m) {
          bl[m] *= kernel_fft_[static_cast<std::size_t>(m)];
        }
      }
      sub_->inverse(cspan_t<Real>{b.data(), static_cast<std::size_t>(lanes * q)},
                    mspan_t<Real>{a.data(), static_cast<std::size_t>(lanes * q)},
                    lanes);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* x = in_c.data() + lv * p;
        const C* al = a.data() + lv * q;
        C* y = out_c.data() + lv * p;
        y[0] = tot[static_cast<std::size_t>(lv)];
        for (std::int64_t m = 0; m < q; ++m) {
          y[inv_perm_[static_cast<std::size_t>(m)]] = x[0] + al[m];
        }
      }
      const Real scale = Real(1) / static_cast<Real>(p);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* y = out_c.data() + lv * p;
        C* dst = out + (b0 + lv) * lout.batch_stride;
        if (inverse) {
          for (std::int64_t j = 0; j < p; ++j) {
            dst[j * lout.elem_stride] = std::conj(y[j]) * scale;
          }
        } else {
          for (std::int64_t j = 0; j < p; ++j) dst[j * lout.elem_stride] = y[j];
        }
      }
    }
  }

  // --- batched Bluestein ----------------------------------------------------

  void build_bluestein() {
    blen_ = next_pow2(2 * n_ - 1);
    bsub_ = std::make_unique<BatchFftT<Real>>(blen_, width_);
    chirp_f_.resize(static_cast<std::size_t>(n_));
    chirp_i_.resize(static_cast<std::size_t>(n_));
    for (std::int64_t j = 0; j < n_; ++j) {
      const std::int64_t jj = (j * j) % (2 * n_);
      const double ang = -kPi * static_cast<double>(jj) /
                         static_cast<double>(n_);
      chirp_f_[static_cast<std::size_t>(j)] =
          static_cast<C>(cplx{std::cos(ang), std::sin(ang)});
      chirp_i_[static_cast<std::size_t>(j)] =
          std::conj(chirp_f_[static_cast<std::size_t>(j)]);
    }
    kfft_f_ = build_bluestein_kernel(chirp_f_);
    kfft_i_ = build_bluestein_kernel(chirp_i_);
  }

  cvec_t<Real> build_bluestein_kernel(const cvec_t<Real>& chirp) const {
    cvec_t<Real> k(static_cast<std::size_t>(blen_), C{0, 0});
    for (std::int64_t j = 0; j < n_; ++j) {
      const C v = std::conj(chirp[static_cast<std::size_t>(j)]);
      k[static_cast<std::size_t>(j)] = v;
      if (j != 0) k[static_cast<std::size_t>(blen_ - j)] = v;
    }
    cvec_t<Real> kf(static_cast<std::size_t>(blen_));
    bsub_->forward(k, kf, 1);
    return kf;
  }

  void execute_bluestein(const C* in, BatchLayout lin, C* out,
                         BatchLayout lout, std::int64_t count,
                         bool inverse) const {
    const cvec_t<Real>& chirp = inverse ? chirp_i_ : chirp_f_;
    const cvec_t<Real>& kfft = inverse ? kfft_i_ : kfft_f_;
    const Real scale =
        inverse ? Real(1) / static_cast<Real>(n_) : Real(1);
    const std::int64_t chunk = std::min<std::int64_t>(count, 64);
    cvec_t<Real> a(static_cast<std::size_t>(chunk * blen_));
    cvec_t<Real> b(static_cast<std::size_t>(chunk * blen_));
    for (std::int64_t b0 = 0; b0 < count; b0 += chunk) {
      const std::int64_t lanes = std::min(chunk, count - b0);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* src = in + (b0 + lv) * lin.batch_stride;
        C* al = a.data() + lv * blen_;
        for (std::int64_t j = 0; j < n_; ++j) {
          al[j] = src[j * lin.elem_stride] * chirp[static_cast<std::size_t>(j)];
        }
        for (std::int64_t j = n_; j < blen_; ++j) al[j] = C{0, 0};
      }
      bsub_->forward(
          cspan_t<Real>{a.data(), static_cast<std::size_t>(lanes * blen_)},
          mspan_t<Real>{b.data(), static_cast<std::size_t>(lanes * blen_)},
          lanes);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        C* bl = b.data() + lv * blen_;
        for (std::int64_t j = 0; j < blen_; ++j) {
          bl[j] *= kfft[static_cast<std::size_t>(j)];
        }
      }
      bsub_->inverse(
          cspan_t<Real>{b.data(), static_cast<std::size_t>(lanes * blen_)},
          mspan_t<Real>{a.data(), static_cast<std::size_t>(lanes * blen_)},
          lanes);
      for (std::int64_t lv = 0; lv < lanes; ++lv) {
        const C* al = a.data() + lv * blen_;
        C* dst = out + (b0 + lv) * lout.batch_stride;
        for (std::int64_t k = 0; k < n_; ++k) {
          dst[k * lout.elem_stride] =
              al[k] * chirp[static_cast<std::size_t>(k)] * scale;
        }
      }
    }
  }

  std::int64_t n_;
  std::int64_t width_;
  SimdTier tier_;
  Kind kind_ = Kind::kIdentity;

  // Smooth state.
  std::vector<BStage<Real>> stages_;
  rvec<Real> twr_f_, twi_f_, twr_i_, twi_i_;
  // Double/v=4 fast path (see build_smooth): flags and the pair-expanded
  // first-stage twiddles.
  bool fast_ok_ = false;
  bool pair_ok_ = false;
  bool fused_ok_ = false;
  rvec<Real> tw8p_r_f_, tw8p_i_f_, tw8p_r_i_, tw8p_i_i_;
  struct WrSplit {
    rvec<Real> rr_f, ri_f, rr_i, ri_i;
  };
  std::array<WrSplit, kMaxDirectRadix + 1> wr_split_{};

  // Rader state.
  std::vector<std::int64_t> perm_, inv_perm_;
  std::unique_ptr<BatchFftT<Real>> sub_;
  cvec_t<Real> kernel_fft_;

  // Bluestein state.
  std::int64_t blen_ = 0;
  std::unique_ptr<BatchFftT<Real>> bsub_;
  cvec_t<Real> chirp_f_, chirp_i_, kfft_f_, kfft_i_;
};

}  // namespace detail

template <class Real>
BatchFftT<Real>::BatchFftT(std::int64_t n, std::int64_t batch_width)
    : n_(n), width_(batch_width) {
  SOI_CHECK(n >= 1, "BatchFft: size must be positive, got " << n);
  SOI_CHECK(batch_width >= 0,
            "BatchFft: batch_width must be >= 0, got " << batch_width);
  engine_ = std::make_unique<detail::BatchEngine<Real>>(n, batch_width);
}

template <class Real>
BatchFftT<Real>::~BatchFftT() = default;
template <class Real>
BatchFftT<Real>::BatchFftT(BatchFftT&&) noexcept = default;
template <class Real>
BatchFftT<Real>& BatchFftT<Real>::operator=(BatchFftT&&) noexcept = default;

template <class Real>
std::int64_t BatchFftT<Real>::effective_width(std::int64_t count) const {
  return engine_->effective_width(std::max<std::int64_t>(count, 1));
}

template <class Real>
SimdTier BatchFftT<Real>::simd_tier() const {
  return engine_->tier();
}

template <class Real>
std::int64_t BatchFftT<Real>::scratch_bytes(std::int64_t count) const {
  return engine_->scratch_bytes(std::max<std::int64_t>(count, 1));
}

namespace {
void check_span(std::size_t have, std::int64_t n, BatchLayout l,
                std::int64_t count, const char* what) {
  const std::int64_t max_index =
      (count - 1) * l.batch_stride + (n - 1) * l.elem_stride;
  SOI_CHECK(l.batch_stride >= 0 && l.elem_stride >= 0,
            what << ": negative strides are not supported");
  SOI_CHECK(have > static_cast<std::size_t>(max_index),
            what << ": buffer of " << have << " elements too small for batch "
                 << "(needs " << (max_index + 1) << ")");
}
}  // namespace

template <class Real>
void BatchFftT<Real>::forward_strided(cspan_t<Real> in, BatchLayout lin,
                                      mspan_t<Real> out, BatchLayout lout,
                                      std::int64_t count) const {
  SOI_CHECK(count >= 1, "BatchFft::forward: count must be >= 1");
  check_span(in.size(), n_, lin, count, "BatchFft::forward(in)");
  check_span(out.size(), n_, lout, count, "BatchFft::forward(out)");
  engine_->execute(in.data(), lin, out.data(), lout, count, /*inverse=*/false);
}

template <class Real>
void BatchFftT<Real>::inverse_strided(cspan_t<Real> in, BatchLayout lin,
                                      mspan_t<Real> out, BatchLayout lout,
                                      std::int64_t count) const {
  SOI_CHECK(count >= 1, "BatchFft::inverse: count must be >= 1");
  check_span(in.size(), n_, lin, count, "BatchFft::inverse(in)");
  check_span(out.size(), n_, lout, count, "BatchFft::inverse(out)");
  engine_->execute(in.data(), lin, out.data(), lout, count, /*inverse=*/true);
}

template <class Real>
void BatchFftT<Real>::forward(cspan_t<Real> in, mspan_t<Real> out,
                              std::int64_t count) const {
  forward_strided(in, contiguous_layout(n_), out, contiguous_layout(n_),
                  count);
}

template <class Real>
void BatchFftT<Real>::inverse(cspan_t<Real> in, mspan_t<Real> out,
                              std::int64_t count) const {
  inverse_strided(in, contiguous_layout(n_), out, contiguous_layout(n_),
                  count);
}

template class BatchFftT<double>;
template class BatchFftT<float>;

}  // namespace soi::fft
