// fig7-uvon and eie-uvoff: one caller loops ExecutionEngine::run on the
// cycle-accurate engine (default SimOptions: event stepping, one
// simulation thread) over the test split of procedural BASIC digits.

#include <algorithm>
#include <limits>
#include <optional>

#include "arch/energy.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "nn/trainer.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/batch_runner.hpp"
#include "sim/compiled_network.hpp"
#include "sim/result_arena.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sparsenn;

namespace {

constexpr std::size_t kOracleSamples = 4;  ///< per-cycle re-runs per run

// The host time of one inference is deterministic work plus whatever
// the machine adds; the machine shows phases of one to tens of seconds
// in which all work runs up to 1.8x slower. So every digit is run once
// per pass, and each digit's host time is its fastest over the run's
// passes: a phase moves the figures only if it covers every pass.
struct Loop {
  std::uint64_t inferences = 0;
  std::uint64_t sim_cycles = 0;
  std::vector<double> pass_seconds;
  std::vector<double> best_us;        ///< per test digit, fastest run
  std::vector<SimResult> first_pass;  ///< per test digit

  /// Inferences per second at each digit's fastest host time.
  double throughput() const {
    double total_us = 0.0;
    for (const double us : best_us) total_us += us;
    return 1e6 * static_cast<double>(best_us.size()) / total_us;
  }
  double latency_us(double p) const {
    std::vector<double> v = best_us;
    return percentile(v, p);
  }
};

// Whole passes over the test split until `seconds` have passed. Every
// inference is checked against the benchmark's own counts, and every
// later pass against the first.
Loop run_loop(ExecutionEngine& engine, const CompiledNetwork& compiled,
              const Dataset& test, std::span<const std::size_t> input_nnz,
              double seconds, Tracer& tracer, Report& report) {
  Loop loop;
  loop.best_us.assign(test.size(), std::numeric_limits<double>::infinity());
  ResultArena arena(compiled);
  const std::uint32_t root = tracer.open("bench.sim_loop");
  const auto start = Clock::now();
  for (std::size_t pass = 0;
       pass == 0 || seconds_between(start, Clock::now()) < seconds; ++pass) {
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < test.size(); ++i) {
      const auto t0 = Clock::now();
      const SimResult& r =
          engine.run(compiled, test.image(i), arena, ValidationMode::kOff);
      const auto t1 = Clock::now();
      tracer.record("sim.engine.run", t0, t1, root, loop.inferences);
      loop.best_us[i] = std::min(loop.best_us[i], us_between(t0, t1));
      loop.sim_cycles += r.total_cycles;
      ++loop.inferences;
      ++report.attempted;
      check_counting(r, compiled.network(), compiled.use_predictor(),
                     input_nnz[i], report);
      if (pass == 0)
        loop.first_pass.push_back(r);
      else
        report.check(r == loop.first_pass[i],
                     "a repeated inference equals its first run");
    }
    loop.pass_seconds.push_back(seconds_between(pass_start, Clock::now()));
  }
  tracer.close(root, loop.inferences);
  return loop;
}

// Per hidden layer, the reduction in simulated cycles and energy of
// uv_on over uv_off on the same images (the paper's Fig. 7).
void add_fig7_reduction(const QuantizedNetwork& net,
                        std::span<const SimResult> uv_on, const Dataset& test,
                        Report& report) {
  const ArchParams arch = ArchParams::paper();
  const CompiledNetwork off_image(net, arch, false);
  AcceleratorSim sim(arch);
  ResultArena arena(off_image);
  const EnergyModel energy(arch);
  const std::size_t hidden = net.num_layers() - 1;
  std::vector<double> on_cycles(hidden), off_cycles(hidden), on_uj(hidden),
      off_uj(hidden);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const SimResult& off = sim.run(off_image, test.image(i), arena, ValidationMode::kOff);
    for (std::size_t l = 0; l < hidden; ++l) {
      on_cycles[l] += static_cast<double>(uv_on[i].layers[l].total_cycles);
      off_cycles[l] += static_cast<double>(off.layers[l].total_cycles);
      on_uj[l] += energy.report(uv_on[i].layers[l].events).total_uj;
      off_uj[l] += energy.report(off.layers[l].events).total_uj;
    }
  }
  for (std::size_t l = 0; l < hidden; ++l) {
    const std::string p = "fig7.layer" + std::to_string(l + 1) + ".";
    report.add(p + "cycle_reduction_pct", 100.0 * (1.0 - on_cycles[l] / off_cycles[l]), "%");
    report.add(p + "energy_reduction_pct", 100.0 * (1.0 - on_uj[l] / off_uj[l]), "%");
  }
}

void add_batch_scaling(const CompiledNetwork& compiled, const Dataset& test,
                       Tracer& tracer, Report& report) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    BatchOptions options;
    options.num_threads = threads;
    options.use_predictor = compiled.use_predictor();
    options.keep_results = false;
    options.engine = EngineKind::kCycle;
    const BatchRunner runner(ArchParams::paper(), options);
    BatchResult result;
    timed(tracer, "sim.batch_runner.run", [&] { result = runner.run(compiled, test); });
    report.add("sim.batch_runner.inf_per_s_" + std::to_string(threads) + "t",
               result.inferences_per_second(), "inf/s");
  }
}

}  // namespace

void run_sim_workload(const Args& args, bool uv_on,
                      Clock::time_point process_start, Report& report) {
  Tracer tracer(args.trace);
  const ArchParams arch = ArchParams::paper();

  // ---- set-up: data, training, quantisation, compile, one validated run
  const DatasetSplit split = make_split(args.seed, tracer);
  const QuantizedNetwork net = train_and_quantize(
      five_layer_topology(kHidden),
      uv_on ? PredictorKind::kEndToEnd : PredictorKind::kNone, split, tracer);
  std::optional<CompiledNetwork> compiled;
  timed(tracer, "sim.compiled_network.compile",
        [&] { compiled.emplace(net, arch, uv_on); });
  AcceleratorSim sim(arch);
  ExecutionEngine& engine = sim;
  {
    ResultArena arena(*compiled);
    engine.run(*compiled, split.test.image(0), arena, ValidationMode::kFull);
  }
  const double setup_s = seconds_between(process_start, Clock::now());

  const Dataset& test = split.test;
  std::vector<std::size_t> input_nnz(test.size());
  for (std::size_t i = 0; i < test.size(); ++i)
    input_nnz[i] = count_nonzero(net.quantize_input(test.image(i)));

  // ---- the measured loop, untraced
  Tracer off(false);
  Loop loop = run_loop(engine, *compiled, test, input_nnz, args.seconds, off, report);

  // ---- checks against independent paths
  report.check(error_pct(loop.first_pass, test.labels) < kMaxTestErrorPct,
               "quantised test error under the bound");
  {
    Rng rng(args.seed + 1);
    SimOptions per_cycle;
    per_cycle.stepping = SteppingMode::kPerCycle;
    const auto oracle = make_engine(EngineKind::kCycle, arch, per_cycle);
    for (std::size_t k = 0; k < kOracleSamples; ++k) {
      const std::size_t i = rng.uniform_index(test.size());
      report.check(oracle->run(*compiled, test.image(i)) == loop.first_pass[i],
                   "per-cycle oracle equals the event engine");
    }
  }
  AnalyticEngine analytic(arch);
  ResultArena analytic_arena(*compiled);
  Fidelity fidelity;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const auto t0 = Clock::now();
    const SimResult& a = analytic.run(*compiled, test.image(i), analytic_arena,
                                      ValidationMode::kOff);
    tracer.record("sim.analytic_engine.run", t0, Clock::now());
    fidelity.add(loop.first_pass[i], a, report);
  }

  const SimCost cost = sim_cost(loop.first_pass);
  const double throughput = loop.throughput();
  print_windows("pass seconds", loop.pass_seconds);
  const double p50 = loop.latency_us(50.0);
  if (!args.trace) {
    report.add("throughput_inf_per_s", throughput, "inf/s");
    report.add("latency_p50_us", p50, "us");
    report.add("latency_p99_us", loop.latency_us(99.0), "us");
    report.add("sim_cycles_per_inf", cost.cycles, "cycles");
    report.add("sim_energy_uj_per_inf", cost.energy_uj, "uJ");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- the traced run: the same loop with spans, then the layer probes
  sim.reset_event_core_stats();
  Loop traced = run_loop(engine, *compiled, test, input_nnz, args.seconds, tracer, report);
  report.check(traced.first_pass == loop.first_pass,
               "traced and untraced runs simulate identically");
  const EventCore::Stats core = sim.event_core_stats();
  add_trace_overhead(throughput, traced.throughput(), p50, traced.latency_us(50.0), report);

  add_setup_metrics(tracer, report);
  add_not_exercised({"serve.start_ms"}, "ms", report);
  add_cycle_engine_metrics(tracer, traced.sim_cycles, core.events_executed,
                           core.cycles_ticked, traced.inferences, report);
  fidelity.add_metrics(report);
  report.add("sim.analytic_engine.run_us",
             tracer.seconds("sim.analytic_engine.run") * 1e6 /
                 static_cast<double>(test.size()),
             "us");
  timed(tracer, "nn.quantized.forward", [&] {
    for (std::size_t i = 0; i < test.size(); ++i) (void)net.infer_raw(test.image(i), uv_on);
  });
  report.add("nn.quantized.forward_us",
             tracer.seconds("nn.quantized.forward") * 1e6 /
                 static_cast<double>(test.size()),
             "us");

  std::vector<std::span<const float>> images;
  for (std::size_t i = 0; i < test.size(); ++i) images.push_back(test.image(i));
  add_kernel_probes(net, *compiled, images, loop.first_pass, tracer, report);
  add_sim_profile(loop.first_pass, report);

  if (uv_on) {
    add_batch_scaling(*compiled, test, tracer, report);
    add_fig7_reduction(net, loop.first_pass, test, report);
  } else {
    add_not_fig7(report);
  }
  add_not_serving(report);
  tracer.write_csv(args.trace_out);
}

void add_not_fig7(Report& report) {
  add_not_exercised({"sim.batch_runner.inf_per_s_1t", "sim.batch_runner.inf_per_s_2t"},
                    "inf/s", report);
  add_not_exercised({"fig7.layer1.cycle_reduction_pct", "fig7.layer1.energy_reduction_pct",
                     "fig7.layer2.cycle_reduction_pct", "fig7.layer2.energy_reduction_pct",
                     "fig7.layer3.cycle_reduction_pct", "fig7.layer3.energy_reduction_pct"},
                    "%", report);
}

}  // namespace perfbench
