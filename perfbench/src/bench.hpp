#pragma once
// Shared pieces of the SparseNN benchmark: command-line arguments, the
// result report printed as the last line of stdout, the in-memory span
// tracer, and the set-up every workload starts with (procedural BASIC
// digits, training, 16-bit quantisation).

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.hpp"
#include "nn/network.hpp"
#include "nn/predictor.hpp"
#include "nn/quantized.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Input make-up shared by every workload (README.md states the
// figures these produce). Training size and epochs are the smallest
// that keep the end-to-end-trained 5-layer network under the test-error
// bound on every seed tried; the thread count is pinned because trained
// weights depend on it (float summation order of the gradient chunks).
inline constexpr std::uint64_t kTrainingDataSeed = 7;
inline constexpr std::size_t kTrainSize = 3000;
inline constexpr std::size_t kTestSize = 256;
inline constexpr std::size_t kEpochs = 2;
inline constexpr std::size_t kTrainThreads = 4;
inline constexpr std::size_t kHidden = 1000;
inline constexpr double kMaxTestErrorPct = 4.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// Throws std::invalid_argument on a missing or malformed argument.
Args parse_args(int argc, char** argv);

/// Everything one run reports: the correctness verdict, the operation
/// counts and the named metrics, printed as one JSON object.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (the run reports correct=false).
  void check(bool ok, std::string_view what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Spans recorded around the benchmark's calls into each module. Kept
/// in memory; written out once when the run ends. A disabled tracer
/// records nothing.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Reserves room up front so that recording never reallocates inside
  /// a measured phase.
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 19);
  }

  /// Records a finished span; returns its id (kNone when disabled).
  std::uint32_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint32_t parent = kNone,
                       std::uint64_t request = 0, std::uint64_t count = 1);

  /// Opens a span whose end is set by close().
  std::uint32_t open(const char* name, std::uint32_t parent = kNone,
                     std::uint64_t request = 0,
                     Clock::time_point start = Clock::now()) {
    return record(name, start, start, parent, request, 0);
  }
  void close(std::uint32_t id, std::uint64_t count = 1,
             Clock::time_point end = Clock::now());

  /// Total duration of every span of `name`.
  double seconds(const char* name) const;
  /// Durations of every span of `name`, in microseconds.
  std::vector<double> durations_us(const char* name) const;

  /// Writes one CSV line per span, with its self time (the span minus
  /// the part of it its children cover).
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint32_t parent;
    std::uint64_t request;
    std::uint64_t count;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// Runs `fn` as one span named `name`.
template <class F>
void timed(Tracer& tracer, const char* name, F&& fn) {
  const auto start = Clock::now();
  fn();
  tracer.record(name, start, Clock::now());
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; reorders them.
double percentile(std::vector<double>& values, double p);

/// Latency percentiles per window of a run, a window being a fixed slice
/// of the run's requests. A run reports, for each figure, a quantile
/// over the windows on the fast side: the lower quartile of a time, the
/// upper decile of a rate. The machine shows phases of one to tens of
/// seconds in which all work runs up to 1.8x slower; a phase that
/// covers fewer than three quarters of a run's latency windows, or
/// nine tenths of its rate windows, then does not move its figures.
struct Windows {
  std::vector<double> p50_us;
  std::vector<double> p99_us;

  /// Closes a window that saw `latency_us` (reordered).
  void add(std::vector<double>& latency_us);

  static double fast_time(std::vector<double> times) {
    return percentile(times, 25.0);
  }
  static double fast_rate(std::vector<double> rates) {
    return percentile(rates, 90.0);
  }
};

/// Prints `values` as one informational stdout line.
void print_windows(const char* what, const std::vector<double>& values);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

/// Procedural BASIC digits: the training split is the same for every
/// seed, so every run measures the same trained networks; the test
/// split, the workload's inputs, is generated from `seed`.
sparsenn::DatasetSplit make_split(std::uint64_t seed, Tracer& tracer);

/// Trains `topology` with `kind` predictors on `split` with a fixed
/// training seed and quantises it, spanning "nn.train" and
/// "nn.quantize".
sparsenn::QuantizedNetwork train_and_quantize(
    const std::vector<std::size_t>& topology, sparsenn::PredictorKind kind,
    const sparsenn::DatasetSplit& split, Tracer& tracer);

/// The set-up spans as metrics: data.make_dataset_s, nn.train_s,
/// nn.quantize_ms and sim.compiled_network.compile_ms.
void add_setup_metrics(const Tracer& tracer, Report& report);

/// Classification error (percent) of raw output logits against labels.
double error_pct(std::span<const sparsenn::SimResult> results,
                 std::span<const int> labels);

/// Nonzero count of a quantised activation vector.
std::size_t count_nonzero(std::span<const std::int16_t> v);

// --- Checks and per-layer figures shared by the workloads (probes.cpp).

/// Checks the counting properties of one simulated inference against
/// what the benchmark counts itself: per layer, W-phase root flits and
/// nnz_inputs equal the nonzero inputs (the quantised input, then the
/// previous layer's activations), and MACs equal nnz·active_rows plus,
/// on predicted layers, nnz·rank + rows·rank. On uv_off every row is
/// active and the V/U phases take no cycles.
void check_counting(const sparsenn::SimResult& r,
                    const sparsenn::QuantizedNetwork& net, bool uv_on,
                    std::size_t input_nnz, Report& report);

/// Analytic-engine fidelity against cycle-engine results of the same
/// inputs: activations and outputs must be bit-identical; cycle counts
/// are estimates and are reported as errors.
class Fidelity {
 public:
  /// Checks one inference and accumulates its cycle errors.
  void add(const sparsenn::SimResult& cycle,
           const sparsenn::SimResult& analytic, Report& report);
  /// Adds sim.analytic_engine.cycle_error_pct (mean absolute total-cycle
  /// error) and w_cycle_error_max_pct (worst per-layer W-phase error).
  void add_metrics(Report& report) const;

 private:
  double error_pct_sum_ = 0.0;
  std::size_t inferences_ = 0;
  double w_error_max_pct_ = 0.0;
};

/// Adds sim.accelerator.host_ns_per_sim_cycle (the "sim.engine.run"
/// spans over `sim_cycles`) and the event core's work per inference.
void add_cycle_engine_metrics(const Tracer& tracer, std::uint64_t sim_cycles,
                              std::uint64_t events_executed,
                              std::uint64_t cycles_ticked,
                              std::uint64_t inferences, Report& report);

/// Adds the trace.* metrics: a run's untraced and traced throughput and
/// median latency, and the throughput lost to tracing.
void add_trace_overhead(double untraced_throughput, double traced_throughput,
                        double untraced_p50_us, double traced_p50_us,
                        Report& report);

/// Per-inference means of simulated cycles and energy.
struct SimCost {
  double cycles = 0.0;
  double energy_uj = 0.0;
};
SimCost sim_cost(std::span<const sparsenn::SimResult> results);

/// Adds the layer{1..4}.*, noc.*, pe.* and arch.energy.* metrics,
/// averaged over `results`.
void add_sim_profile(std::span<const sparsenn::SimResult> results,
                     Report& report);

/// Times every SIMD kernel on operands captured from the workload's own
/// layer inputs (each image's quantised input, then each layer's
/// activations in `results`, the inferences of `images`) and adds the
/// common.kernels.* metrics.
void add_kernel_probes(const sparsenn::QuantizedNetwork& net,
                       const sparsenn::CompiledNetwork& compiled,
                       std::span<const std::span<const float>> images,
                       std::span<const sparsenn::SimResult> results,
                       Tracer& tracer, Report& report);

/// Adds the metrics a workload does not exercise, as 0, so every traced
/// run reports the same names.
void add_not_exercised(std::initializer_list<const char*> names,
                       const char* unit, Report& report);

}  // namespace perfbench
