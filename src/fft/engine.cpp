#include "fft/engine.hpp"

#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/error.hpp"
#include "fft/plan.hpp"

namespace soi::fft {

namespace {

// ---------------------------------------------------------------------------
// "batch" — the SIMD batch executor behind the abstract surface
// ---------------------------------------------------------------------------

template <class Real>
class BatchAdapterT final : public BatchTransformT<Real> {
 public:
  BatchAdapterT(std::int64_t n, std::int64_t batch_width)
      : fft_(n, batch_width) {}

  [[nodiscard]] std::int64_t size() const override { return fft_.size(); }
  [[nodiscard]] std::int64_t batch_width() const override {
    return fft_.batch_width();
  }
  [[nodiscard]] std::int64_t effective_width(
      std::int64_t count) const override {
    return fft_.effective_width(count);
  }
  [[nodiscard]] std::int64_t scratch_bytes(std::int64_t count) const override {
    return fft_.scratch_bytes(count);
  }
  void forward(cspan_t<Real> in, mspan_t<Real> out,
               std::int64_t count) const override {
    fft_.forward(in, out, count);
  }
  void inverse(cspan_t<Real> in, mspan_t<Real> out,
               std::int64_t count) const override {
    fft_.inverse(in, out, count);
  }
  void forward_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const override {
    fft_.forward_strided(in, lin, out, lout, count);
  }
  void inverse_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const override {
    fft_.inverse_strided(in, lin, out, lout, count);
  }

 private:
  BatchFftT<Real> fft_;
};

// ---------------------------------------------------------------------------
// "scalar" — one FftPlan transform at a time, strided via gather/scatter
// ---------------------------------------------------------------------------

template <class Real>
class ScalarBatchT final : public BatchTransformT<Real> {
 public:
  using C = cplx_t<Real>;

  explicit ScalarBatchT(std::int64_t n) : plan_(n) {}

  [[nodiscard]] std::int64_t size() const override { return plan_.size(); }
  [[nodiscard]] std::int64_t batch_width() const override { return 1; }
  [[nodiscard]] std::int64_t effective_width(std::int64_t) const override {
    return 1;
  }
  [[nodiscard]] std::int64_t scratch_bytes(std::int64_t) const override {
    // Plan workspace plus the two length-n staging chunks the strided
    // paths gather/scatter through.
    return plan_.workspace_bytes(1) +
           2 * plan_.size() * static_cast<std::int64_t>(sizeof(C));
  }

  void forward(cspan_t<Real> in, mspan_t<Real> out,
               std::int64_t count) const override {
    run_contiguous(in, out, count, /*fwd=*/true);
  }
  void inverse(cspan_t<Real> in, mspan_t<Real> out,
               std::int64_t count) const override {
    run_contiguous(in, out, count, /*fwd=*/false);
  }
  void forward_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const override {
    run_strided(in, lin, out, lout, count, /*fwd=*/true);
  }
  void inverse_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                       BatchLayout lout, std::int64_t count) const override {
    run_strided(in, lin, out, lout, count, /*fwd=*/false);
  }

 private:
  void run_contiguous(cspan_t<Real> in, mspan_t<Real> out, std::int64_t count,
                      bool fwd) const {
    const auto n = static_cast<std::size_t>(plan_.size());
    std::vector<C> work(plan_.workspace_size());
    for (std::int64_t b = 0; b < count; ++b) {
      const auto off = static_cast<std::size_t>(b) * n;
      const auto src = in.subspan(off, n);
      const auto dst = out.subspan(off, n);
      if (fwd) {
        plan_.forward(src, dst, std::span<C>(work));
      } else {
        plan_.inverse(src, dst, std::span<C>(work));
      }
    }
  }

  void run_strided(cspan_t<Real> in, BatchLayout lin, mspan_t<Real> out,
                   BatchLayout lout, std::int64_t count, bool fwd) const {
    const std::int64_t n = plan_.size();
    std::vector<C> work(plan_.workspace_size());
    std::vector<C> src(static_cast<std::size_t>(n));
    std::vector<C> dst(static_cast<std::size_t>(n));
    for (std::int64_t b = 0; b < count; ++b) {
      for (std::int64_t j = 0; j < n; ++j) {
        src[static_cast<std::size_t>(j)] = in[static_cast<std::size_t>(
            b * lin.batch_stride + j * lin.elem_stride)];
      }
      if (fwd) {
        plan_.forward(std::span<const C>(src), std::span<C>(dst),
                      std::span<C>(work));
      } else {
        plan_.inverse(std::span<const C>(src), std::span<C>(dst),
                      std::span<C>(work));
      }
      for (std::int64_t j = 0; j < n; ++j) {
        out[static_cast<std::size_t>(b * lout.batch_stride +
                                     j * lout.elem_stride)] =
            dst[static_cast<std::size_t>(j)];
      }
    }
  }

  FftPlanT<Real> plan_;
};

// ---------------------------------------------------------------------------
// Registry plumbing (mirrors TransportRegistry)
// ---------------------------------------------------------------------------

struct Entry {
  EngineInfo info;
  EngineFactoryT<double> make_d;
  EngineFactoryT<float> make_f;
};

void ensure_builtins();

}  // namespace

struct EngineRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, Entry> engines;
};

EngineRegistry& EngineRegistry::instance() {
  static EngineRegistry registry;
  return registry;
}

EngineRegistry::Impl& EngineRegistry::impl() const {
  static Impl impl;
  return impl;
}

void EngineRegistry::register_engine(EngineInfo info,
                                     EngineFactoryT<double> make_double,
                                     EngineFactoryT<float> make_float) {
  const std::string name = info.name != nullptr ? info.name : "";
  if (name.empty() || name == "?") {
    throw InvalidArgumentError(
        "engine registration: engine name must be non-empty");
  }
  if (!make_double || !make_float) {
    throw InvalidArgumentError("engine registration: engine '" + name +
                               "' is missing a precision factory");
  }
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  if (!im.engines
           .emplace(name, Entry{info, std::move(make_double),
                                std::move(make_float)})
           .second) {
    throw InvalidArgumentError(
        "fft engine '" + name +
        "' is already registered (factories register exactly once)");
  }
}

namespace {

template <class ImplT>  // deduced so the private nested type is never named
const Entry& lookup_entry(ImplT& im, const std::string& name) {
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.engines.find(name);
  if (it == im.engines.end()) {
    std::ostringstream os;
    os << "unknown fft engine '" << name << "'; registered engines:";
    for (const auto& [n, e] : im.engines) os << " " << n;
    throw InvalidArgumentError(os.str());
  }
  return it->second;
}

}  // namespace

const EngineInfo& EngineRegistry::info(const std::string& name) const {
  ensure_builtins();
  return lookup_entry(impl(), name).info;
}

bool EngineRegistry::contains(const std::string& name) const {
  ensure_builtins();
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.engines.count(name) != 0;
}

std::vector<std::string> EngineRegistry::names() const {
  ensure_builtins();
  auto& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> out;
  out.reserve(im.engines.size());
  for (const auto& [n, e] : im.engines) out.push_back(n);
  return out;  // std::map iteration is already sorted
}

std::unique_ptr<const BatchTransform> EngineRegistry::make(
    const std::string& name, std::int64_t n, std::int64_t batch_width) const {
  ensure_builtins();
  const std::string resolved = name.empty() ? default_engine() : name;
  return lookup_entry(impl(), resolved).make_d(n, batch_width);
}

std::unique_ptr<const BatchTransformF> EngineRegistry::make_f(
    const std::string& name, std::int64_t n, std::int64_t batch_width) const {
  ensure_builtins();
  const std::string resolved = name.empty() ? default_engine() : name;
  return lookup_entry(impl(), resolved).make_f(n, batch_width);
}

namespace {

void ensure_builtins() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& reg = EngineRegistry::instance();
    reg.register_engine(
        EngineInfo{"batch", /*simd_batched=*/true, /*compute_scale=*/1.0},
        [](std::int64_t n, std::int64_t w) {
          return std::unique_ptr<const BatchTransform>(
              new BatchAdapterT<double>(n, w));
        },
        [](std::int64_t n, std::int64_t w) {
          return std::unique_ptr<const BatchTransformF>(
              new BatchAdapterT<float>(n, w));
        });
    // The scalar engine runs one transform per pass: no cross-transform
    // vectorization and strided layouts pay a gather/scatter sweep. The
    // modeled scorer prices it at a conservative fraction of batch
    // throughput.
    reg.register_engine(
        EngineInfo{"scalar", /*simd_batched=*/false, /*compute_scale=*/0.5},
        [](std::int64_t n, std::int64_t) {
          return std::unique_ptr<const BatchTransform>(
              new ScalarBatchT<double>(n));
        },
        [](std::int64_t n, std::int64_t) {
          return std::unique_ptr<const BatchTransformF>(
              new ScalarBatchT<float>(n));
        });
  });
}

}  // namespace

std::string default_engine() {
  const std::string name = env_str("SOI_FFT_ENGINE", "batch");
  return name.empty() ? std::string("batch") : name;
}

std::unique_ptr<const BatchTransform> make_batch_plan(
    const std::string& engine, std::int64_t n, std::int64_t batch_width) {
  return EngineRegistry::instance().make(engine, n, batch_width);
}

}  // namespace soi::fft
