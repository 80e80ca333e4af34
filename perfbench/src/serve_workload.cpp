// serve-mix: a ServingFrontend (analytic engine, 2 workers) serving the
// trained 784-1000-10 network (Fig. 6) and the trained 5-layer network,
// both uv_on, to one generator thread. A closed-loop phase with a fixed
// window of requests in flight gives saturation throughput; an
// open-loop Poisson phase at a fixed rate gives latency, each request
// timed from when it was due.

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/zoo_registry.hpp"
#include "nn/trainer.hpp"
#include "serve/frontend.hpp"
#include "sim/accelerator.hpp"
#include "sim/analytic_engine.hpp"
#include "sim/compiled_network.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sparsenn;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kRound = 256;  ///< requests per round, half per model
constexpr std::size_t kWindow = 32;  ///< closed-loop requests in flight
/// Open-loop arrivals per second: below half the closed-loop saturation
/// of the mix measured on a 4-core AVX2 machine (see README.md).
constexpr double kOpenRate = 6000.0;
/// Closed-loop throughput is taken over windows of this many
/// completions; open-loop latency percentiles over windows of this many
/// rounds (about half a second of arrivals each). See Windows.
constexpr std::uint64_t kClosedWindow = 2048;
constexpr std::size_t kOpenWindowRounds = 12;
/// Closed/open slice pairs a run's load is split into; see run_phases.
constexpr std::size_t kSlices = 15;
constexpr std::size_t kZooProbeGets = 2000;

struct Slot {
  std::size_t model = 0;  ///< 0: 784-1000-10, 1: 5-layer
  std::size_t image = 0;  ///< test-split index
};

struct Phase {
  std::uint64_t completed = 0;
  /// due -> resolved, by request number in the phase (open loop); a
  /// request that is not served counts as an infinite latency.
  std::vector<double> latency_us;
  std::vector<double> late_us;  ///< due -> submit call (open loop)
  std::vector<double> queue_us, exec_us, handoff_us;
  std::vector<double> window_rates;  ///< completions/s (closed loop)
  Windows windows;                   ///< latency windows (open loop)
};

// The single generator thread: submits requests of the round and polls
// their futures, timestamping each as it resolves.
class Client {
 public:
  Client(ServingFrontend& frontend, std::span<const std::size_t> model_ids,
         std::span<const Slot> round, const Dataset& test,
         std::span<const SimResult> expected, Tracer& tracer, Report& report)
      : frontend_(frontend), model_ids_(model_ids), round_(round),
        test_(test), expected_(expected), tracer_(tracer), report_(report) {}

  std::size_t in_flight() const noexcept { return outstanding_.size(); }

  /// Submits request number `seq` of a phase, the round's slot
  /// `seq % kRound`.
  void submit(std::size_t seq, Clock::time_point due, std::uint32_t parent) {
    const Slot& s = round_[seq % kRound];
    const std::uint64_t id = next_request_++;
    const std::uint32_t span = tracer_.open("serve.request", parent, id, due);
    const auto t0 = Clock::now();
    auto future = frontend_.submit(model_ids_[s.model], test_.image(s.image), true);
    tracer_.record("serve.submit", t0, Clock::now(), span, id);
    ++report_.attempted;
    ++submitted_;
    outstanding_.push_back({std::move(future), seq, span, due, t0});
  }

  /// Blocks until the oldest outstanding request resolves.
  void wait_oldest() const {
    if (!outstanding_.empty()) outstanding_.front().future.wait();
  }

  /// Collects every resolved request into `phase`; the rest keep their
  /// submission order.
  void poll(Phase& phase) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outstanding_.size(); ++i) {
      Outstanding& o = outstanding_[i];
      if (o.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        if (kept != i) outstanding_[kept] = std::move(o);
        ++kept;
        continue;
      }
      const auto now = Clock::now();
      const ServeResult r = o.future.get();
      tracer_.close(o.span, 1, now);
      double latency_us = std::numeric_limits<double>::infinity();
      if (r.status != ServeStatus::kOk) {
        ++report_.failed;
        ++(r.status == ServeStatus::kEngineError ? errors_ : shed_);
      } else {
        ++ok_;
        report_.check(r.result == expected_[o.seq % kRound],
                      "a served result equals a direct AnalyticEngine run");
        ++phase.completed;
        latency_us = us_between(o.due, now);
        phase.queue_us.push_back(r.queue_us);
        phase.exec_us.push_back(r.exec_us);
        phase.handoff_us.push_back(us_between(o.submitted, now) - r.total_us);
      }
      if (o.seq < phase.latency_us.size()) phase.latency_us[o.seq] = latency_us;
    }
    outstanding_.erase(outstanding_.begin() + static_cast<std::ptrdiff_t>(kept),
                       outstanding_.end());
  }

  /// The client-side tally must equal the frontend's own accounting of
  /// this client's requests: `now` minus `base`, the stats taken before
  /// its first submit.
  void check_accounting(const ServingStats& base, const ServingStats& now) {
    const std::uint64_t submitted = now.submitted - base.submitted;
    const std::uint64_t completed = now.completed - base.completed;
    const std::uint64_t shed = now.shed - base.shed;
    const std::uint64_t failed = now.failed - base.failed;
    report_.check(submitted == submitted_ && completed == ok_ && failed == errors_ &&
                      shed == shed_ && submitted == completed + shed + failed,
                  "client tally equals ServingStats");
  }

 private:
  struct Outstanding {
    std::future<ServeResult> future;
    std::size_t seq;
    std::uint32_t span;
    Clock::time_point due;
    Clock::time_point submitted;
  };

  ServingFrontend& frontend_;
  std::span<const std::size_t> model_ids_;
  std::span<const Slot> round_;
  const Dataset& test_;
  std::span<const SimResult> expected_;
  Tracer& tracer_;
  Report& report_;
  std::vector<Outstanding> outstanding_;
  std::uint64_t next_request_ = 0;
  // The client's tally of resolved statuses.
  std::uint64_t submitted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t errors_ = 0;  ///< kEngineError
  std::uint64_t shed_ = 0;    ///< every other status but kOk
};

// Keeps kWindow requests in flight until `seconds` have passed, then
// finishes the current round, adding its windows to `phase`. The
// generator sleeps on the oldest request while the window is full, so
// the phase keeps only the two workers busy.
void run_closed(Client& client, double seconds, Tracer& tracer, Phase& phase) {
  const std::uint32_t span = tracer.open("bench.closed_loop");
  const std::uint64_t done_before = phase.completed;
  const std::size_t windows_before = phase.window_rates.size();
  const auto start = Clock::now();
  auto window_start = start;
  std::uint64_t window_done = done_before;
  std::size_t next = 0;
  for (;;) {
    const bool stop = seconds_between(start, Clock::now()) >= seconds && next % kRound == 0;
    while (!stop && client.in_flight() < kWindow) {
      client.submit(next, Clock::now(), span);
      ++next;
      if (next % kRound == 0 && seconds_between(start, Clock::now()) >= seconds) break;
    }
    if (client.in_flight() == 0) break;
    client.wait_oldest();
    client.poll(phase);
    if (phase.completed - window_done >= kClosedWindow) {
      const auto now = Clock::now();
      phase.window_rates.push_back(static_cast<double>(phase.completed - window_done) /
                                   seconds_between(window_start, now));
      window_start = now;
      window_done = phase.completed;
    }
  }
  // A slice too slow to fill one window (a sanitizer build) is one
  // window.
  if (phase.window_rates.size() == windows_before)
    phase.window_rates.push_back(static_cast<double>(phase.completed - done_before) /
                                 seconds_between(start, Clock::now()));
  tracer.close(span, phase.completed - done_before);
}

// Poisson arrivals at kOpenRate, in whole latency windows covering
// about `seconds`, added to `phase`.
void run_open(Client& client, double seconds, Rng& rng, Tracer& tracer, Phase& phase) {
  const std::uint32_t span = tracer.open("bench.open_loop");
  const std::uint64_t done_before = phase.completed;
  const std::size_t window = kOpenWindowRounds * kRound;
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(kOpenRate * seconds / window)));
  const std::size_t total = windows * window;
  phase.latency_us.assign(total, std::numeric_limits<double>::infinity());
  const auto start = Clock::now();
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log1p(-rng.uniform()) / kOpenRate));
  };
  auto due = start + gap();
  std::size_t next = 0;
  while (next < total || client.in_flight() > 0) {
    const auto now = Clock::now();
    if (next < total && now >= due) {
      phase.late_us.push_back(us_between(due, now));
      client.submit(next, due, span);
      ++next;
      due += gap();
      continue;
    }
    client.poll(phase);
  }
  tracer.close(span, phase.completed - done_before);
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double> slice(phase.latency_us.begin() + static_cast<std::ptrdiff_t>(w * window),
                              phase.latency_us.begin() + static_cast<std::ptrdiff_t>((w + 1) * window));
    phase.windows.add(slice);
  }
}

struct Phases {
  Phase closed;
  Phase open;
};

// `seconds` of load in kSlices alternating closed- and open-loop
// slices, so that both phases sample the whole run: the host's speed
// drifts over seconds, and one long phase of each would put a slow
// stretch wholly into one of them. The closed loop's rate also holds
// a level for about half a second and then jumps by up to a third, so
// many short slices give the fast-side quantile many levels to draw
// from.
Phases run_phases(Client& client, double seconds, Rng& rng, Tracer& tracer) {
  Phases phases;
  const double slice = seconds / (2.0 * static_cast<double>(kSlices));
  for (std::size_t k = 0; k < kSlices; ++k) {
    run_closed(client, slice, tracer, phases.closed);
    run_open(client, slice, rng, tracer, phases.open);
  }
  return phases;
}

}  // namespace

void add_not_serving(Report& report) {
  add_not_exercised({"core.zoo_registry.get_hit_us", "serve.submit_us_p50",
                     "serve.queue_us_p50", "serve.queue_us_p99", "serve.exec_us_p50",
                     "serve.exec_us_p99", "serve.handoff_us_p50",
                     "serve.generator_late_us_p99"},
                    "us", report);
  add_not_exercised({"core.zoo_registry.compiles", "serve.mean_batch_size"}, "count",
                    report);
  add_not_exercised({"serve.timeout_close_frac"}, "frac", report);
}

void run_serve_workload(const Args& args, Clock::time_point process_start,
                        Report& report) {
  Tracer tracer(args.trace);
  const ArchParams arch = ArchParams::paper();

  // ---- set-up: data, two trained networks, frontend start, warm-up
  const DatasetSplit split = make_split(args.seed, tracer);
  const Dataset& test = split.test;
  const std::array<QuantizedNetwork, 2> nets{
      train_and_quantize(three_layer_topology(kHidden), PredictorKind::kEndToEnd,
                         split, tracer),
      train_and_quantize(five_layer_topology(kHidden), PredictorKind::kEndToEnd,
                         split, tracer)};
  std::array<std::optional<CompiledNetwork>, 2> compiled;
  timed(tracer, "sim.compiled_network.compile", [&] {
    for (std::size_t m = 0; m < 2; ++m) compiled[m].emplace(nets[m], arch, true);
  });

  ServingOptions options;
  options.num_workers = kWorkers;
  // Admission bounds well above what either phase can queue: the
  // workload measures serving, not shedding.
  options.queue_capacity = 1u << 16;
  options.max_queued_per_model = 1u << 16;
  std::unique_ptr<ServingFrontend> frontend;
  std::array<std::size_t, 2> model_ids{};
  timed(tracer, "serve.start", [&] {
    frontend = std::make_unique<ServingFrontend>(options);
    for (std::size_t m = 0; m < 2; ++m)
      model_ids[m] = frontend->register_model(nets[m], arch);
  });
  for (std::size_t m = 0; m < 2; ++m) {
    const ServeResult warm = frontend->submit(model_ids[m], test.image(0), true).get();
    report.check(warm.status == ServeStatus::kOk, "warm-up request served");
  }
  const double setup_s = seconds_between(process_start, Clock::now());

  // ---- the request round and its direct references
  Rng rng(args.seed + 2);
  std::vector<Slot> round(kRound);
  for (std::size_t j = 0; j < kRound; ++j)
    round[j] = {j % 2, static_cast<std::size_t>(rng.uniform_index(test.size()))};
  rng.shuffle(round);
  AnalyticEngine analytic(arch);
  std::vector<SimResult> expected;
  for (const Slot& s : round) {
    const auto t0 = Clock::now();
    expected.push_back(analytic.run(*compiled[s.model], test.image(s.image)));
    tracer.record("sim.analytic_engine.run", t0, Clock::now());
  }
  for (std::size_t m = 0; m < 2; ++m) {
    std::vector<SimResult> all;
    for (std::size_t i = 0; i < test.size(); ++i)
      all.push_back(analytic.run(*compiled[m], test.image(i)));
    report.check(error_pct(all, test.labels) < kMaxTestErrorPct,
                 "quantised test error under the bound");
  }

  // ---- the measured phases, untraced
  Tracer off(false);
  const ServingStats warm = frontend->stats();
  Client client(*frontend, model_ids, round, test, expected, off, report);
  const Phases untraced = run_phases(client, args.seconds, rng, off);
  const Phase& closed = untraced.closed;
  const Phase& open = untraced.open;
  const ServingStats before = frontend->stats();
  client.check_accounting(warm, before);

  const SimCost cost = sim_cost(expected);
  print_windows("closed-loop window inf/s", closed.window_rates);
  print_windows("open-loop window p50 us", open.windows.p50_us);
  print_windows("open-loop window p99 us", open.windows.p99_us);
  const double throughput = Windows::fast_rate(closed.window_rates);
  const double p50 = Windows::fast_time(open.windows.p50_us);
  if (!args.trace) {
    report.add("throughput_inf_per_s", throughput, "inf/s");
    report.add("latency_p50_us", p50, "us");
    report.add("latency_p99_us", Windows::fast_time(open.windows.p99_us), "us");
    report.add("sim_cycles_per_inf", cost.cycles, "cycles");
    report.add("sim_energy_uj_per_inf", cost.energy_uj, "uJ");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- the traced run: the same phases with spans, then the probes
  Client traced_client(*frontend, model_ids, round, test, expected, tracer, report);
  Phases traced = run_phases(traced_client, args.seconds, rng, tracer);
  const Phase& traced_closed = traced.closed;
  Phase& traced_open = traced.open;
  const ServingStats after = frontend->stats();
  traced_client.check_accounting(before, after);
  add_trace_overhead(throughput, Windows::fast_rate(traced_closed.window_rates), p50,
                     Windows::fast_time(traced_open.windows.p50_us), report);

  add_setup_metrics(tracer, report);
  report.add("serve.start_ms", tracer.seconds("serve.start") * 1e3, "ms");

  std::vector<double> submit_us = tracer.durations_us("serve.submit");
  report.add("serve.submit_us_p50", percentile(submit_us, 50.0), "us");
  report.add("serve.queue_us_p50", percentile(traced_open.queue_us, 50.0), "us");
  report.add("serve.queue_us_p99", percentile(traced_open.queue_us, 99.0), "us");
  report.add("serve.exec_us_p50", percentile(traced_open.exec_us, 50.0), "us");
  report.add("serve.exec_us_p99", percentile(traced_open.exec_us, 99.0), "us");
  report.add("serve.handoff_us_p50", percentile(traced_open.handoff_us, 50.0), "us");
  report.add("serve.generator_late_us_p99", percentile(traced_open.late_us, 99.0), "us");
  const double batches = static_cast<double>(after.batches - before.batches);
  report.add("serve.mean_batch_size",
             static_cast<double>(after.completed + after.failed - before.completed -
                                 before.failed) / std::max(batches, 1.0),
             "count");
  report.add("serve.timeout_close_frac",
             static_cast<double>(after.timeout_closes - before.timeout_closes) /
                 std::max(batches, 1.0),
             "frac");

  // A zoo hit, as a worker fetches the compiled image for each batch.
  ZooRegistry zoo;
  (void)zoo.get(arch, nets[1], true);
  timed(tracer, "core.zoo_registry.get", [&] {
    for (std::size_t i = 0; i < kZooProbeGets; ++i) (void)zoo.get(arch, nets[1], true);
  });
  report.add("core.zoo_registry.get_hit_us",
             tracer.seconds("core.zoo_registry.get") * 1e6 / kZooProbeGets, "us");
  report.add("core.zoo_registry.compiles", static_cast<double>(after.zoo_compiles),
             "count");

  // The round on the cycle engine: host cost per simulated cycle, and
  // the analytic engine's fidelity on the served mix.
  AcceleratorSim sim(arch);
  Fidelity fidelity;
  std::uint64_t sim_cycles = 0;
  for (std::size_t j = 0; j < kRound; ++j) {
    const auto t0 = Clock::now();
    const SimResult cycle = sim.run(*compiled[round[j].model], test.image(round[j].image),
                                    ValidationMode::kOff);
    tracer.record("sim.engine.run", t0, Clock::now(), Tracer::kNone, j);
    sim_cycles += cycle.total_cycles;
    fidelity.add(cycle, expected[j], report);
  }
  const EventCore::Stats core = sim.event_core_stats();
  add_cycle_engine_metrics(tracer, sim_cycles, core.events_executed, core.cycles_ticked,
                           kRound, report);
  fidelity.add_metrics(report);
  report.add("sim.analytic_engine.run_us",
             tracer.seconds("sim.analytic_engine.run") * 1e6 / kRound, "us");
  timed(tracer, "nn.quantized.forward", [&] {
    for (const Slot& s : round) (void)nets[s.model].infer_raw(test.image(s.image), true);
  });
  report.add("nn.quantized.forward_us",
             tracer.seconds("nn.quantized.forward") * 1e6 / kRound, "us");

  // Kernels on the 5-layer network's inputs from the round.
  std::vector<std::span<const float>> images;
  std::vector<SimResult> five_results;
  for (std::size_t j = 0; j < kRound; ++j) {
    if (round[j].model != 1) continue;
    images.push_back(test.image(round[j].image));
    five_results.push_back(expected[j]);
  }
  add_kernel_probes(nets[1], *compiled[1], images, five_results, tracer, report);
  add_sim_profile(five_results, report);

  add_not_fig7(report);
  tracer.write_csv(args.trace_out);
}

}  // namespace perfbench
