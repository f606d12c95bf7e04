#include "soi/serial.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "soi/convolve.hpp"

namespace soi::core {

template <class Real>
SoiFftSerialT<Real>::SoiFftSerialT(std::int64_t n, std::int64_t p,
                                   win::SoiProfile profile,
                                   const std::string& engine)
    : profile_(std::move(profile)),
      geom_(n, p, profile_),
      table_(geom_, *profile_.window),
      batch_p_(fft::make_batch_plan_t<Real>(engine, p)),
      batch_mp_(fft::make_batch_plan_t<Real>(engine, geom_.mprime())) {
  // Serial = the shared stage chain under a null comm with all P segments
  // on this "rank": identical stage names and arithmetic to the
  // distributed plan, no communication.
  env_.geom = &geom_;
  env_.table = &table_;
  env_.batch_p = batch_p_.get();
  env_.batch_mp = batch_mp_.get();
  env_.ranks = 1;
  env_.spr = p;
  env_.has_comm = false;
  reserve_chain_buffers(state_.arena, env_, 0);
  append_chain_stages(pipeline_, env_);
  state_.arena.commit();
  pipeline_.init_trace(state_.trace);
  pipeline_.bind_scratch(state_.scratch);
}

template <class Real>
void SoiFftSerialT<Real>::init_state(exec::ExecState& st) const {
  SOI_CHECK(&st != &state_, "SoiFftSerial::init_state: plan's own state");
  st.arena.adopt_layout(state_.arena);
  st.trace = state_.trace;  // planned records; timings zeroed per run
  pipeline_.bind_scratch(st.scratch);
}

template <class Real>
void SoiFftSerialT<Real>::forward(cspan_t<Real> x, mspan_t<Real> y) const {
  forward_on(state_, x, y);
}

template <class Real>
void SoiFftSerialT<Real>::forward_on(exec::ExecState& st, cspan_t<Real> x,
                                     mspan_t<Real> y) const {
  const std::int64_t n = geom_.n();
  SOI_CHECK(x.size() == static_cast<std::size_t>(n),
            "SoiFftSerial::forward: input size " << x.size() << " != N "
                                                 << n);
  SOI_CHECK(y.size() >= static_cast<std::size_t>(n),
            "SoiFftSerial::forward: output too small");
  bool validate = validate_input_ > 0;
#ifndef NDEBUG
  if (validate_input_ < 0) validate = true;
#endif
  if (validate) {
    const std::int64_t bad = first_nonfinite<Real>(x);
    if (bad >= 0) {
      std::ostringstream os;
      os << "SoiFftSerial::forward: input contains a non-finite value "
            "(NaN/Inf) at index "
         << bad;
      throw InvalidArgumentError(os.str());
    }
  }
  exec::ExecContextT<Real> ctx;
  ctx.in = x;
  ctx.out = y;
  ctx.arena = &st.arena;
  ctx.trace = &st.trace;
  ctx.scratch = &st.scratch;
  pipeline_.run(ctx);
}

template <class Real>
void SoiFftSerialT<Real>::forward_timed(cspan_t<Real> x, mspan_t<Real> y,
                                        SoiPhaseTimes& times) const {
  forward(x, y);
  times = SoiStageBreakdown::from_trace(state_.trace);
}

template <class Real>
void SoiFftSerialT<Real>::inverse(cspan_t<Real> y, mspan_t<Real> x) const {
  const std::int64_t n = geom_.n();
  SOI_CHECK(y.size() == static_cast<std::size_t>(n),
            "SoiFftSerial::inverse: input size mismatch");
  SOI_CHECK(x.size() >= static_cast<std::size_t>(n),
            "SoiFftSerial::inverse: output too small");
  // inverse(y) = conj(forward(conj(y))) / N.
  inv_in_.resize(static_cast<std::size_t>(n));
  inv_out_.resize(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    inv_in_[static_cast<std::size_t>(i)] =
        std::conj(y[static_cast<std::size_t>(i)]);
  }
  forward(inv_in_, inv_out_);
  const Real scale = Real(1) / static_cast<Real>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        std::conj(inv_out_[static_cast<std::size_t>(i)]) * scale;
  }
}

template class SoiFftSerialT<double>;
template class SoiFftSerialT<float>;

// --- SegmentPlan -------------------------------------------------------------

SegmentPlan::SegmentPlan(std::int64_t n, std::int64_t p,
                         win::SoiProfile profile)
    : profile_(std::move(profile)),
      geom_(n, p, profile_),
      table_(geom_, *profile_.window),
      plan_mp_(geom_.mprime()) {}

void SegmentPlan::compute(cspan x, std::int64_t s, mspan y_seg) const {
  const std::int64_t n = geom_.n();
  const std::int64_t p = geom_.p();
  const std::int64_t m = geom_.m();
  const std::int64_t mp = geom_.mprime();
  const std::int64_t mc = geom_.chunks_per_rank();
  SOI_CHECK(x.size() == static_cast<std::size_t>(n),
            "SegmentPlan::compute: input size mismatch");
  SOI_CHECK(s >= 0 && s < p, "SegmentPlan::compute: segment " << s
                                                              << " out of range");
  SOI_CHECK(y_seg.size() >= static_cast<std::size_t>(m),
            "SegmentPlan::compute: output needs M elements");

  // Column phases of C_s = C_0 (I_M (x) diag(omega^s)).
  cvec phases(static_cast<std::size_t>(p));
  for (std::int64_t t = 0; t < p; ++t) {
    phases[static_cast<std::size_t>(t)] = omega(s * t, p);
  }

  // x-tilde = C_s x, evaluated with the same rank kernel over P virtual
  // ranks; chunk j's P elements here are *summed* (a segment needs the
  // full row sum, not the per-residue partials kept by the parallel form).
  // The phases are identical for every virtual rank, so the phased tap
  // table is built ONCE here and the loop runs the plain vectorised
  // kernel on it.
  const ConvTable shifted = table_.phased(phases);
  // x split once and extended by one wrapped halo, so every virtual rank's
  // convolution reads [vr*M, vr*M + M + halo) contiguously.
  const auto halo = static_cast<std::size_t>(geom_.halo());
  const std::size_t ext = x.size() + halo;
  const auto local = static_cast<std::size_t>(geom_.local_input());
  dvec split(2 * ext);
  double* re = split.data();
  double* im = split.data() + ext;
  split_complex<double>(x, re, im);
  split_complex<double>(x.first(halo), re + n, im + n);
  cvec partial(static_cast<std::size_t>(mc * p));
  cvec xt(static_cast<std::size_t>(mp));
  for (std::int64_t vr = 0; vr < p; ++vr) {
    convolve_split_groups<double>(
        geom_, shifted, std::span<const double>{re + vr * m, local},
        std::span<const double>{im + vr * m, local}, partial, 0,
        geom_.groups_per_rank());
    for (std::int64_t j = 0; j < mc; ++j) {
      cplx acc{0.0, 0.0};
      const cplx* row = partial.data() + j * p;
      for (std::int64_t t = 0; t < p; ++t) acc += row[t];
      xt[static_cast<std::size_t>(vr * mc + j)] = acc;
    }
  }

  // F_M', then demodulate the first M bins.
  cvec xf(static_cast<std::size_t>(mp));
  plan_mp_.forward(xt, xf);
  const cspan demod = table_.demod();
  for (std::int64_t k = 0; k < m; ++k) {
    y_seg[static_cast<std::size_t>(k)] =
        xf[static_cast<std::size_t>(k)] * demod[static_cast<std::size_t>(k)];
  }
}

}  // namespace soi::core
