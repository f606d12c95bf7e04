// Umbrella header: the full public API of the SOI-FFT library.
//
// Quick tour:
//   win::make_profile(win::Accuracy::kFull)  -> algorithm configuration
//   core::SoiFftSerial(n, p, profile)        -> in-process transform
//   core::SegmentPlan(n, p, profile)         -> zoom: one spectrum band
//   core::SoiFftDist(comm, n, profile)       -> distributed, 1 all-to-all
//   baseline::SixStepFftDist(comm, n)        -> comparator, 3 all-to-alls
//   net::run_world / net::TransportRegistry  -> pluggable rank fabrics
//   fft::EngineRegistry                      -> pluggable FFT executors
//   perf::t_soi / perf::speedup              -> Section 7.4 analytic model
//   tune::autotune / tune::PlanRegistry      -> autotuning, plan cache,
//   tune::WisdomStore                           persisted tuned decisions
#pragma once

#include "baseline/sixstep.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "fft/dft.hpp"
#include "fft/engine.hpp"
#include "fft/plan.hpp"
#include "fft/real.hpp"
#include "net/costmodel.hpp"
#include "net/registry.hpp"
#include "net/transport.hpp"
#include "perfmodel/model.hpp"
#include "soi/dist.hpp"
#include "soi/real.hpp"
#include "soi/serial.hpp"
#include "tune/autotuner.hpp"
#include "tune/candidates.hpp"
#include "tune/registry.hpp"
#include "tune/wisdom.hpp"
#include "window/design.hpp"
#include "window/window.hpp"
