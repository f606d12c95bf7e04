#include "soi/convolve.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace soi::core {

namespace {

// SIMD width and register budget of the build target. A tile keeps
// 2 * kGroups * rows accumulators plus 2 * kGroups input and 2 table
// vectors live: 26 of 32 zmm registers at 5 rows; 14 of 16 at 2 rows.
#if defined(__AVX512F__)
constexpr int kVecBytes = 64;
constexpr int kMaxRows = 5;
#elif defined(__AVX__)
constexpr int kVecBytes = 32;
constexpr int kMaxRows = 2;
#else
constexpr int kVecBytes = 16;
constexpr int kMaxRows = 2;
#endif
constexpr int kGroups = 2;

/// Groups [q_begin, q_end) read in[q_begin*nu*P, (q_end-1)*nu*P + B*P)
/// and write out[q_begin*mu*P, q_end*mu*P).
void check_range(const SoiGeometry& g, std::size_t in_size,
                 std::size_t out_size, std::int64_t q_begin,
                 std::int64_t q_end) {
  SOI_CHECK(0 <= q_begin && q_begin <= q_end,
            "convolve: bad group range [" << q_begin << ", " << q_end << ")");
  if (q_begin == q_end) return;
  const std::int64_t in_need = (q_end - 1) * g.nu() * g.p() + g.taps() * g.p();
  SOI_CHECK(in_size >= static_cast<std::size_t>(in_need),
            "convolve: groups [" << q_begin << ", " << q_end << ") need "
                                 << in_need << " input elements, got "
                                 << in_size);
  SOI_CHECK(out_size >= static_cast<std::size_t>(q_end * g.mu() * g.p()),
            "convolve: groups [" << q_begin << ", " << q_end << ") need "
                                 << q_end * g.mu() * g.p()
                                 << " output elements, got " << out_size);
}

// W lanes of Real: a GCC/Clang vector-extension type (as in fft/batch.cpp)
// that lowers to one zmm/ymm/xmm op, with relaxed alignment (the lane
// offsets are arbitrary multiples of W); Real itself at W = 1.
template <class Real, int W>
struct LanesOf {
  typedef Real type
      __attribute__((vector_size(W * sizeof(Real)), aligned(alignof(Real))));
};
template <class Real>
struct LanesOf<Real, 1> {
  using type = Real;
};
template <class Real, int W>
using lanes_t = typename LanesOf<Real, W>::type;

template <class V, class Real>
inline V load_lanes(const Real* src) {
  V v;
  std::memcpy(&v, src, sizeof(V));
  return v;
}

/// acc += t * x for one complex tap: re += tr*xr - ti*xi, im += tr*xi +
/// ti*xr. -ffp-contract fuses the first product of each part, so every
/// vector lane computes re + fma(tr, xr, -(ti*xi)), im + fma(tr, xi, ti*xr).
/// The one-lane tile spells those FMAs out: left to contraction, the SLP
/// vectoriser may pack a scalar tile's groups into one vector and fuse the
/// other product, and a 1-group tile would then differ from a 2-group one.
template <class V>
inline void cmac(V& acc_re, V& acc_im, V tr, V ti, V xr, V xi) {
#ifdef __FMA__
  if constexpr (std::is_floating_point_v<V>) {
    acc_re += std::fma(tr, xr, -(ti * xi));
    acc_im += std::fma(tr, xi, ti * xr);
    return;
  }
#endif
  acc_re += tr * xr - ti * xi;
  acc_im += tr * xi + ti * xr;
}

/// One kernel call's operands: split input at the rank's first group,
/// output at chunk 0, and the geometry's strides.
template <class Real>
struct TileArgs {
  const Real* in_re;
  const Real* in_im;
  const ConvTableT<Real>* table;
  cplx_t<Real>* out;
  std::int64_t p, b, mu, nu_p;
};

/// Register tile: rows [r0, r0 + R) of groups [q, q + G), lanes
/// [off, off + W). All 2*G*R partial sums stay in registers across the
/// B-block reduction; per block the tile loads G input vectors (re/im)
/// and R table vectors (re/im). Each output is summed in ascending block
/// order with the same expression as every other tile shape.
template <class Real, int W, int G, int R>
void conv_tile(const TileArgs<Real>& a, std::int64_t q, std::int64_t r0,
               std::int64_t off) {
  using V = lanes_t<Real, W>;
  const std::int64_t p = a.p;
  const Real* __restrict xr_base = a.in_re + q * a.nu_p + off;
  const Real* __restrict xi_base = a.in_im + q * a.nu_p + off;
  const Real* __restrict tr_row[R];
  const Real* __restrict ti_row[R];
  for (int r = 0; r < R; ++r) {
    tr_row[r] = a.table->row_re(r0 + r) + off;
    ti_row[r] = a.table->row_im(r0 + r) + off;
  }
  V acc_re[G][R] = {};
  V acc_im[G][R] = {};
  for (std::int64_t blk = 0; blk < a.b; ++blk) {
    const std::int64_t o = blk * p;
    V xr[G], xi[G];
    for (int g = 0; g < G; ++g) {
      xr[g] = load_lanes<V>(xr_base + g * a.nu_p + o);
      xi[g] = load_lanes<V>(xi_base + g * a.nu_p + o);
    }
    for (int r = 0; r < R; ++r) {
      const V tr = load_lanes<V>(tr_row[r] + o);
      const V ti = load_lanes<V>(ti_row[r] + o);
      for (int g = 0; g < G; ++g) {
        cmac(acc_re[g][r], acc_im[g][r], tr, ti, xr[g], xi[g]);
      }
    }
  }
  for (int g = 0; g < G; ++g) {
    for (int r = 0; r < R; ++r) {
      Real re[W], im[W];
      std::memcpy(re, &acc_re[g][r], sizeof(V));
      std::memcpy(im, &acc_im[g][r], sizeof(V));
      cplx_t<Real>* dst = a.out + ((q + g) * a.mu + r0 + r) * p + off;
      for (int pp = 0; pp < W; ++pp) dst[pp] = {re[pp], im[pp]};
    }
  }
}

template <class Real>
using TileFn = void (*)(const TileArgs<Real>&, std::int64_t, std::int64_t,
                        std::int64_t);

// Tile kernels for G groups, indexed by row count - 1.
template <class Real, int W, int G, int... Rm1>
constexpr std::array<TileFn<Real>, sizeof...(Rm1)> tile_table(
    std::integer_sequence<int, Rm1...>) {
  return {&conv_tile<Real, W, G, Rm1 + 1>...};
}

/// Groups [q_begin, q_end) at lane width W (W divides P): tiles of kGroups
/// groups (the last one may hold fewer), rows cut into balanced blocks of
/// at most kMaxRows.
template <class Real, int W>
void conv_groups(const TileArgs<Real>& a, std::int64_t q_begin,
                 std::int64_t q_end) {
  constexpr auto rows = std::make_integer_sequence<int, kMaxRows>{};
  static constexpr auto full = tile_table<Real, W, kGroups>(rows);
  static constexpr auto last = tile_table<Real, W, 1>(rows);
  static_assert(kGroups == 2, "the remainder tile holds one group");
  const std::int64_t row_blocks = (a.mu + kMaxRows - 1) / kMaxRows;
  const std::int64_t tiles = (q_end - q_begin + kGroups - 1) / kGroups;
  // One OpenMP region per call: the pipeline passes a rank's whole range
  // of groups (split in two at q_safe on the dist path).
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t t = 0; t < tiles; ++t) {
    const std::int64_t q = q_begin + t * kGroups;
    const auto& fns = (q_end - q >= kGroups) ? full : last;
    std::int64_t r0 = 0;
    for (std::int64_t rb = 0; rb < row_blocks; ++rb) {
      const std::int64_t nrows =
          a.mu / row_blocks + (rb < a.mu % row_blocks ? 1 : 0);
      const TileFn<Real> fn = fns[static_cast<std::size_t>(nrows - 1)];
      for (std::int64_t off = 0; off < a.p; off += W) fn(a, q, r0, off);
      r0 += nrows;
    }
  }
}

/// Widest lane count that divides P, starting from one SIMD register.
template <class Real, int W>
void conv_dispatch(const TileArgs<Real>& a, std::int64_t q_begin,
                   std::int64_t q_end) {
  if constexpr (W > 1) {
    if (a.p % W != 0) {
      conv_dispatch<Real, W / 2>(a, q_begin, q_end);
      return;
    }
  }
  conv_groups<Real, W>(a, q_begin, q_end);
}

}  // namespace

template <class Real>
void convolve_rank_reference(const SoiGeometry& g,
                             const ConvTableT<Real>& table,
                             std::type_identity_t<cspan_t<Real>> local_in,
                             std::type_identity_t<mspan_t<Real>> out) {
  check_range(g, local_in.size(), out.size(), 0, g.groups_per_rank());
  using C = cplx_t<Real>;
  const std::int64_t p = g.p();
  const std::int64_t b = g.taps();
  const std::int64_t mu = g.mu();
  const std::int64_t nu = g.nu();
  const C* in = local_in.data();

  // loop_a over groups (chunks of mu rows sharing one input range)
  for (std::int64_t q = 0; q < g.groups_per_rank(); ++q) {
    const C* base = in + q * nu * p;
    // loop_b over the mu rows of the group
    for (std::int64_t r = 0; r < mu; ++r) {
      const C* e = table.row(r).data();
      C* dst = out.data() + (q * mu + r) * p;
      for (std::int64_t pp = 0; pp < p; ++pp) {
        C acc{0, 0};
        // loop_c over B blocks; loop_d is the pp loop hoisted outside here
        for (std::int64_t blk = 0; blk < b; ++blk) {
          acc += e[blk * p + pp] * base[blk * p + pp];
        }
        dst[pp] = acc;
      }
    }
  }
}

template <class Real>
void convolve_split_groups(const SoiGeometry& g, const ConvTableT<Real>& table,
                           std::type_identity_t<std::span<const Real>> in_re,
                           std::type_identity_t<std::span<const Real>> in_im,
                           std::type_identity_t<mspan_t<Real>> out,
                           std::int64_t q_begin, std::int64_t q_end) {
  check_range(g, std::min(in_re.size(), in_im.size()), out.size(), q_begin,
              q_end);
  const TileArgs<Real> a{in_re.data(), in_im.data(), &table,  out.data(),
                         g.p(),        g.taps(),     g.mu(), g.nu() * g.p()};
  constexpr int kLanes = kVecBytes / static_cast<int>(sizeof(Real));
  conv_dispatch<Real, kLanes>(a, q_begin, q_end);
}

template <class Real>
void convolve_rank_groups(const SoiGeometry& g, const ConvTableT<Real>& table,
                          std::type_identity_t<cspan_t<Real>> local_in,
                          std::type_identity_t<mspan_t<Real>> out,
                          std::int64_t q_begin, std::int64_t q_end) {
  SOI_CHECK(q_end <= g.groups_per_rank(),
            "convolve_rank_groups: group range [" << q_begin << ", " << q_end
                                                  << ") exceeds the rank's "
                                                  << g.groups_per_rank()
                                                  << " groups");
  check_range(g, local_in.size(), out.size(), 0, g.groups_per_rank());
  const auto len = static_cast<std::size_t>(g.local_input());
  std::vector<Real, AlignedAllocator<Real, 64>> split(2 * len);
  split_complex<Real>(local_in.first(len), split.data(), split.data() + len);
  convolve_split_groups<Real>(
      g, table, std::span<const Real>{split.data(), len},
      std::span<const Real>{split.data() + len, len}, out, q_begin, q_end);
}

template <class Real>
void convolve_rank(const SoiGeometry& g, const ConvTableT<Real>& table,
                   std::type_identity_t<cspan_t<Real>> local_in,
                   std::type_identity_t<mspan_t<Real>> out) {
  convolve_rank_groups<Real>(g, table, local_in, out, 0, g.groups_per_rank());
}

template <class Real>
void split_complex(std::type_identity_t<cspan_t<Real>> src, Real* re,
                   Real* im) {
  const auto n = static_cast<std::int64_t>(src.size());
  const auto* raw = reinterpret_cast<const Real*>(src.data());
#ifdef _OPENMP
#pragma omp parallel for schedule(static) if (n >= kParallelMinPoints)
#endif
  for (std::int64_t i = 0; i < n; ++i) {
    re[i] = raw[2 * i];
    im[i] = raw[2 * i + 1];
  }
}

// Explicit instantiations (double drives the SOI pipeline; float backs the
// single-precision transform).
#define SOI_CONVOLVE_INSTANTIATE(Real)                                        \
  template void convolve_rank_reference<Real>(                               \
      const SoiGeometry&, const ConvTableT<Real>&, cspan_t<Real>,             \
      mspan_t<Real>);                                                         \
  template void convolve_split_groups<Real>(                                 \
      const SoiGeometry&, const ConvTableT<Real>&, std::span<const Real>,     \
      std::span<const Real>, mspan_t<Real>, std::int64_t, std::int64_t);      \
  template void convolve_rank_groups<Real>(                                  \
      const SoiGeometry&, const ConvTableT<Real>&, cspan_t<Real>,             \
      mspan_t<Real>, std::int64_t, std::int64_t);                             \
  template void convolve_rank<Real>(const SoiGeometry&,                      \
                                    const ConvTableT<Real>&, cspan_t<Real>,   \
                                    mspan_t<Real>);                           \
  template void split_complex<Real>(cspan_t<Real>, Real*, Real*);
SOI_CONVOLVE_INSTANTIATE(double)
SOI_CONVOLVE_INSTANTIATE(float)
#undef SOI_CONVOLVE_INSTANTIATE

}  // namespace soi::core
