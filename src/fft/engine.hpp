// FFT-engine ABI and registry: the pluggable counterpart of net::Transport
// for the compute side. The SOI pipeline's local FFT stages are written
// against the abstract BatchTransformT surface below; which concrete
// executor sits behind it is a named, registered choice:
//
//   * "batch"  — the SIMD batch executor (fft/batch.hpp): split-complex
//                SoA kernels vectorized ACROSS transforms, fused strided
//                load/store. The default.
//   * "scalar" — one FftPlan transform at a time (fft/plan.hpp), strided
//                layouts handled by gather/scatter staging. The portable
//                reference point the autotuner prices SIMD speedups
//                against.
//
// PlanRegistry keys and wisdom records carry the engine name (wisdom v5),
// so a plan tuned against one executor is never silently replayed on
// another. Lookup of an unknown engine throws soi::InvalidArgumentError
// listing every registered engine; registration is exactly-once per name,
// lazily performed on first registry use (same lifecycle as the transport
// registry — no static-init-order or dead-TU-stripping hazards).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "fft/batch.hpp"

namespace soi::fft {

/// Abstract batched-FFT surface — exactly what the SOI pipeline stages
/// consume. Immutable and thread-safe after construction (concurrent
/// execute calls own their scratch), like the executors behind it.
template <class Real>
class BatchTransformT {
 public:
  virtual ~BatchTransformT() = default;

  [[nodiscard]] virtual std::int64_t size() const = 0;
  /// Requested transforms-per-pass (the autotuner knob); 1 on engines that
  /// run transforms one at a time.
  [[nodiscard]] virtual std::int64_t batch_width() const = 0;
  /// Width a batch of `count` actually runs at after clamping.
  [[nodiscard]] virtual std::int64_t effective_width(
      std::int64_t count) const = 0;
  /// Per-thread scratch bytes one execute of `count` transforms needs —
  /// the workspace planner accounts for this when sizing arenas.
  [[nodiscard]] virtual std::int64_t scratch_bytes(
      std::int64_t count) const = 0;

  /// `count` transforms over contiguous length-n chunks, out-of-place.
  /// Forward uses exp(-i 2 pi jk/n); inverse includes the 1/n scaling.
  virtual void forward(cspan_t<Real> in, mspan_t<Real> out,
                       std::int64_t count) const = 0;
  virtual void inverse(cspan_t<Real> in, mspan_t<Real> out,
                       std::int64_t count) const = 0;

  /// Fully general layouts (see BatchLayout); `in`/`out` must not alias.
  virtual void forward_strided(cspan_t<Real> in, BatchLayout lin,
                               mspan_t<Real> out, BatchLayout lout,
                               std::int64_t count) const = 0;
  virtual void inverse_strided(cspan_t<Real> in, BatchLayout lin,
                               mspan_t<Real> out, BatchLayout lout,
                               std::int64_t count) const = 0;
};

using BatchTransform = BatchTransformT<double>;
using BatchTransformF = BatchTransformT<float>;

/// Static description of one registered engine — the modeled scorer reads
/// compute_scale to price candidates per engine without running them.
struct EngineInfo {
  /// Registered name ("batch", "scalar").
  const char* name = "?";
  /// Kernels vectorize across transforms (SoA batch regime).
  bool simd_batched = false;
  /// Modeled per-point throughput relative to the "batch" engine (1.0);
  /// the autotuner's modeled scorer multiplies compute times by 1/scale.
  double compute_scale = 1.0;
};

template <class Real>
using EngineFactoryT =
    std::function<std::unique_ptr<const BatchTransformT<Real>>(
        std::int64_t n, std::int64_t batch_width)>;

/// Process-wide, thread-safe engine table; mirrors TransportRegistry's
/// contract (lazy built-ins, exactly-once registration, typed errors).
class EngineRegistry {
 public:
  static EngineRegistry& instance();

  /// Register an engine under info.name with factories for both
  /// precisions. Throws soi::InvalidArgumentError if the name is empty or
  /// already registered.
  void register_engine(EngineInfo info, EngineFactoryT<double> make_double,
                       EngineFactoryT<float> make_float);

  /// Static engine description; throws soi::InvalidArgumentError naming
  /// every registered engine when `name` is unknown.
  const EngineInfo& info(const std::string& name) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Registered engine names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Build a batched plan of size n on the named engine ("" = default).
  std::unique_ptr<const BatchTransform> make(const std::string& name,
                                             std::int64_t n,
                                             std::int64_t batch_width) const;
  std::unique_ptr<const BatchTransformF> make_f(const std::string& name,
                                                std::int64_t n,
                                                std::int64_t batch_width) const;

 private:
  EngineRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// The engine name an empty selection resolves to: $SOI_FFT_ENGINE when
/// set (and non-empty), else "batch".
std::string default_engine();

/// Convenience: EngineRegistry::instance().make(engine, n, batch_width).
std::unique_ptr<const BatchTransform> make_batch_plan(
    const std::string& engine, std::int64_t n, std::int64_t batch_width = 0);

/// Precision-dispatched convenience for templated plan owners.
template <class Real>
std::unique_ptr<const BatchTransformT<Real>> make_batch_plan_t(
    const std::string& engine, std::int64_t n, std::int64_t batch_width = 0);

template <>
inline std::unique_ptr<const BatchTransformT<double>> make_batch_plan_t<double>(
    const std::string& engine, std::int64_t n, std::int64_t batch_width) {
  return EngineRegistry::instance().make(engine, n, batch_width);
}

template <>
inline std::unique_ptr<const BatchTransformT<float>> make_batch_plan_t<float>(
    const std::string& engine, std::int64_t n, std::int64_t batch_width) {
  return EngineRegistry::instance().make_f(engine, n, batch_width);
}

}  // namespace soi::fft
