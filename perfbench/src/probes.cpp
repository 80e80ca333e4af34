// Correctness checks and per-layer figures shared by the workloads.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "arch/energy.hpp"
#include "bench.hpp"
#include "common/kernels.hpp"
#include "data/digits.hpp"
#include "sim/compiled_network.hpp"

namespace perfbench {

using namespace sparsenn;

void check_counting(const SimResult& r, const QuantizedNetwork& net,
                    bool uv_on, std::size_t input_nnz, Report& report) {
  report.check(r.layers.size() == net.num_layers(), "layer count");
  std::size_t nnz = input_nnz;
  for (std::size_t l = 0; l < r.layers.size(); ++l) {
    const LayerSimResult& layer = r.layers[l];
    const QuantizedLayer& q = net.layer(l);
    report.check(layer.w_noc.root_flits == nnz && layer.nnz_inputs == nnz,
                 "W-phase root flits equal the nonzero layer inputs");
    std::uint64_t macs = std::uint64_t{nnz} * layer.active_rows;
    if (uv_on && q.has_predictor() && !q.is_output)
      macs += std::uint64_t{nnz} * q.rank() + std::uint64_t{q.w.rows} * q.rank();
    report.check(layer.events.macs == macs,
                 "layer MACs equal nnz*active_rows (+ nnz*rank + rows*rank)");
    if (!uv_on)
      report.check(layer.active_rows == q.w.rows && layer.v_cycles == 0 &&
                       layer.u_cycles == 0,
                   "uv_off computes every row and runs no V/U phase");
    nnz = count_nonzero(layer.activations);
  }
}

namespace {

double error_pct(std::uint64_t estimate, std::uint64_t truth) {
  return 100.0 * std::abs(static_cast<double>(estimate) - static_cast<double>(truth)) /
         static_cast<double>(std::max<std::uint64_t>(1, truth));
}

}  // namespace

void Fidelity::add(const SimResult& cycle, const SimResult& analytic,
                   Report& report) {
  bool same = analytic.output == cycle.output &&
              analytic.layers.size() == cycle.layers.size();
  for (std::size_t l = 0; same && l < cycle.layers.size(); ++l) {
    const LayerSimResult& c = cycle.layers[l];
    const LayerSimResult& a = analytic.layers[l];
    same = a.activations == c.activations && a.nnz_inputs == c.nnz_inputs &&
           a.active_rows == c.active_rows;
    if (c.w_cycles > 0)
      w_error_max_pct_ = std::max(w_error_max_pct_, error_pct(a.w_cycles, c.w_cycles));
  }
  report.check(same, "analytic activations equal the cycle engine's");
  error_pct_sum_ += error_pct(analytic.total_cycles, cycle.total_cycles);
  ++inferences_;
}

void Fidelity::add_metrics(Report& report) const {
  report.add("sim.analytic_engine.cycle_error_pct",
             error_pct_sum_ / static_cast<double>(std::max<std::size_t>(1, inferences_)),
             "%");
  report.add("sim.analytic_engine.w_cycle_error_max_pct", w_error_max_pct_, "%");
}

void add_cycle_engine_metrics(const Tracer& tracer, std::uint64_t sim_cycles,
                              std::uint64_t events_executed,
                              std::uint64_t cycles_ticked,
                              std::uint64_t inferences, Report& report) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, inferences));
  report.add("sim.accelerator.host_ns_per_sim_cycle",
             tracer.seconds("sim.engine.run") * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(1, sim_cycles)),
             "ns");
  report.add("sim.event_core.events_per_inf", static_cast<double>(events_executed) / n,
             "count");
  report.add("sim.event_core.cycles_ticked_per_inf", static_cast<double>(cycles_ticked) / n,
             "count");
}

void add_trace_overhead(double untraced_throughput, double traced_throughput,
                        double untraced_p50_us, double traced_p50_us,
                        Report& report) {
  report.add("trace.untraced_throughput_inf_per_s", untraced_throughput, "inf/s");
  report.add("trace.traced_throughput_inf_per_s", traced_throughput, "inf/s");
  report.add("trace.untraced_latency_p50_us", untraced_p50_us, "us");
  report.add("trace.traced_latency_p50_us", traced_p50_us, "us");
  report.add("trace.overhead_pct",
             100.0 * (untraced_throughput - traced_throughput) / untraced_throughput, "%");
}

SimCost sim_cost(std::span<const SimResult> results) {
  const EnergyModel energy(ArchParams::paper());
  SimCost cost;
  for (const SimResult& r : results) {
    cost.cycles += static_cast<double>(r.total_cycles);
    cost.energy_uj += energy.report(r.total_events()).total_uj;
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, results.size()));
  cost.cycles /= n;
  cost.energy_uj /= n;
  return cost;
}

void add_sim_profile(std::span<const SimResult> results, Report& report) {
  const ArchParams arch = ArchParams::paper();
  const EnergyModel energy(arch);
  const double n = static_cast<double>(std::max<std::size_t>(1, results.size()));

  // Layers 1..4 of the 5-layer network.
  for (std::size_t l = 0; l < 4; ++l) {
    double v = 0, u = 0, w = 0, density = 0, active = 0, count = 0;
    for (const SimResult& r : results) {
      if (r.layers.size() <= l) continue;
      const LayerSimResult& layer = r.layers[l];
      const double inputs = static_cast<double>(
          l == 0 ? kImagePixels : r.layers[l - 1].activations.size());
      v += static_cast<double>(layer.v_cycles);
      u += static_cast<double>(layer.u_cycles);
      w += static_cast<double>(layer.w_cycles);
      density += static_cast<double>(layer.nnz_inputs) / inputs;
      active += static_cast<double>(layer.active_rows) /
                static_cast<double>(layer.activations.size());
      ++count;
    }
    count = std::max(count, 1.0);
    const std::string p = "layer" + std::to_string(l + 1) + ".";
    report.add(p + "v_cycles", v / count, "cycles");
    report.add(p + "u_cycles", u / count, "cycles");
    report.add(p + "w_cycles", w / count, "cycles");
    report.add(p + "input_density", density / count, "frac");
    report.add(p + "active_row_frac", active / count, "frac");
  }

  double root = 0, stalls = 0, conflicts = 0, v_hops = 0;
  double macs = 0, w_reads = 0, uv_reads = 0, busy = 0, pe_cycles = 0;
  EnergyReport e_sum;
  for (const SimResult& r : results) {
    for (const LayerSimResult& layer : r.layers) {
      root += static_cast<double>(layer.w_noc.root_flits);
      stalls += static_cast<double>(layer.w_noc.credit_stalls);
      conflicts += static_cast<double>(layer.w_noc.arbitration_conflicts);
      v_hops += static_cast<double>(layer.v_noc.flit_hops);
    }
    const EventCounts ev = r.total_events();
    macs += static_cast<double>(ev.macs);
    w_reads += static_cast<double>(ev.w_mem_reads);
    uv_reads += static_cast<double>(ev.u_mem_reads + ev.v_mem_reads);
    busy += static_cast<double>(ev.pe_active_cycles);
    pe_cycles += static_cast<double>(r.total_cycles) *
                 static_cast<double>(arch.num_pes);
    const EnergyReport e = energy.report(ev);
    e_sum.w_mem_uj += e.w_mem_uj;
    e_sum.uv_mem_uj += e.uv_mem_uj;
    e_sum.datapath_uj += e.datapath_uj;
    e_sum.noc_uj += e.noc_uj;
    e_sum.leakage_uj += e.leakage_uj;
  }
  report.add("noc.w_root_flits_per_inf", root / n, "count");
  report.add("noc.w_credit_stalls_per_inf", stalls / n, "count");
  report.add("noc.w_arbitration_conflicts_per_inf", conflicts / n, "count");
  report.add("noc.v_flit_hops_per_inf", v_hops / n, "count");
  report.add("pe.macs_per_inf", macs / n, "count");
  report.add("pe.w_mem_reads_per_inf", w_reads / n, "count");
  report.add("pe.uv_mem_reads_per_inf", uv_reads / n, "count");
  report.add("pe.utilisation", busy / std::max(pe_cycles, 1.0), "frac");
  report.add("arch.energy.w_mem_uj", e_sum.w_mem_uj / n, "uJ");
  report.add("arch.energy.uv_mem_uj", e_sum.uv_mem_uj / n, "uJ");
  report.add("arch.energy.datapath_uj", e_sum.datapath_uj / n, "uJ");
  report.add("arch.energy.noc_uj", e_sum.noc_uj / n, "uJ");
  report.add("arch.energy.leakage_uj", e_sum.leakage_uj / n, "uJ");
}

namespace {

// One captured layer input: the activations a layer received in the
// workload, with the functional model's predictor output for it.
struct Operand {
  std::size_t layer = 0;
  std::vector<std::int16_t> act;
  std::vector<std::uint32_t> nz;
  std::vector<std::int16_t> s;     ///< V a (empty without a predictor)
  std::vector<std::uint8_t> mask;  ///< rows the W phase computes
};

constexpr std::size_t kKernelSamples = 16;
constexpr double kKernelSeconds = 0.1;   ///< per kernel
constexpr double kSliceSeconds = 0.002;  ///< see time_kernel

// Repeats `round` (which returns the calls it made) for kKernelSeconds,
// as one span, and returns the seconds per call of the fastest slice of
// kSliceSeconds: like the simulated loop's per-digit fastest time, this
// keeps the host's slow phases out of the figure.
template <class F>
double time_kernel(Tracer& tracer, const char* name, F&& round) {
  std::uint64_t calls = 0;
  double best = std::numeric_limits<double>::infinity();
  const auto start = Clock::now();
  auto now = start;
  do {
    const auto slice_start = now;
    std::uint64_t slice_calls = 0;
    do {
      slice_calls += round();
      now = Clock::now();
    } while (seconds_between(slice_start, now) < kSliceSeconds);
    best = std::min(best, seconds_between(slice_start, now) /
                              static_cast<double>(std::max<std::uint64_t>(1, slice_calls)));
    calls += slice_calls;
  } while (seconds_between(start, now) < kKernelSeconds);
  tracer.record(name, start, now, Tracer::kNone, 0, calls);
  return best;
}

}  // namespace

void add_kernel_probes(const QuantizedNetwork& net,
                       const CompiledNetwork& compiled,
                       std::span<const std::span<const float>> images,
                       std::span<const SimResult> results, Tracer& tracer,
                       Report& report) {
  const KernelTable& k = kernels();
  const bool uv_on = compiled.use_predictor();
  const std::size_t samples = std::min({kKernelSamples, images.size(), results.size()});

  std::size_t width = 0;  // widest layer input or output: scratch size
  for (std::size_t l = 0; l < net.num_layers(); ++l)
    width = std::max({width, net.layer(l).w.rows, net.layer(l).w.cols});

  std::vector<Operand> ops;
  for (std::size_t i = 0; i < samples; ++i) {
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      Operand op;
      op.layer = l;
      op.act = l == 0 ? net.quantize_input(images[i])
                      : results[i].layers[l - 1].activations;
      op.nz.resize(op.act.size());
      op.nz.resize(k.nonzero_scan_i16(op.act.data(), op.act.size(), op.nz.data()));
      QuantizedLayerResult functional = net.forward_layer(l, op.act, uv_on);
      op.s = std::move(functional.v_result);
      op.mask = std::move(functional.mask);
      ops.push_back(std::move(op));
    }
  }

  std::vector<std::int16_t> q_out(kImagePixels);
  const float scale = static_cast<float>(net.layer(0).in_fmt.scale());
  const double quantize_s = time_kernel(tracer, "common.kernels.quantize_f32", [&] {
    for (std::size_t i = 0; i < samples; ++i)
      k.quantize_f32_i16(images[i].data(), images[i].size(), scale, q_out.data());
    return samples;
  });

  std::vector<std::uint32_t> idx(width);
  const double scan_s = time_kernel(tracer, "common.kernels.nonzero_scan", [&] {
    for (const Operand& op : ops) k.nonzero_scan_i16(op.act.data(), op.act.size(), idx.data());
    return ops.size();
  });

  std::vector<std::int64_t> acc(width);
  const double matvec_s = time_kernel(tracer, "common.kernels.sparse_matvec", [&] {
    for (const Operand& op : ops) {
      const QuantizedTensor& w_t = net.layer(op.layer).w_t;
      std::fill_n(acc.begin(), w_t.cols, 0);
      k.sparse_matvec_i16_i64(acc.data(), w_t.data.data(), w_t.cols,
                              op.nz.data(), op.nz.size(), op.act.data());
    }
    return ops.size();
  });
  double macs_per_round = 0.0;
  for (const Operand& op : ops)
    macs_per_round += static_cast<double>(op.nz.size()) *
                      static_cast<double>(net.layer(op.layer).w.rows);
  const double gmacs = macs_per_round / static_cast<double>(ops.size()) /
                       std::max(matvec_s, 1e-12) / 1e9;

  std::vector<std::uint8_t> bits(width);
  std::size_t predicted_ops = 0;
  for (const Operand& op : ops) predicted_ops += op.s.empty() ? 0 : 1;
  if (predicted_ops > 0) {
    const double predict_s = time_kernel(tracer, "common.kernels.predict_bits", [&] {
      for (const Operand& op : ops) {
        if (op.s.empty()) continue;
        const QuantizedLayer& q = net.layer(op.layer);
        k.predict_bits_i16(q.u->data.data(), q.u->rows, q.u->cols, op.s.data(),
                           q.threshold_raw(), bits.data());
      }
      return predicted_ops;
    });
    report.add("common.kernels.predict_bits_ns", predict_s * 1e9, "ns");
  } else {
    add_not_exercised({"common.kernels.predict_bits_ns"}, "ns", report);
  }

  // dot_i16_gather over the first rows of W against the gathered
  // nonzero inputs.
  constexpr std::size_t kGatherRows = 64;
  std::vector<std::int16_t> vals(width);
  const double gather_s = time_kernel(tracer, "common.kernels.dot_i16_gather", [&] {
    std::uint64_t calls = 0;
    for (const Operand& op : ops) {
      for (std::size_t j = 0; j < op.nz.size(); ++j) vals[j] = op.act[op.nz[j]];
      const QuantizedTensor& w = net.layer(op.layer).w;
      for (std::size_t r = 0; r < std::min(kGatherRows, w.rows); ++r, ++calls)
        k.dot_i16_gather(w.row(r).data(), w.cols, op.nz.data(), vals.data(),
                         op.nz.size());
    }
    return calls;
  });

  // mac_col exactly as PE 0 calls it in the W phase: one call per
  // nonzero input over the PE's predicted-active local rows.
  const double mac_col_s = time_kernel(tracer, "common.kernels.mac_col", [&] {
    std::uint64_t calls = 0;
    std::vector<std::uint32_t> rows;
    for (const Operand& op : ops) {
      const PeLayerSlice& slice = compiled.slice(op.layer, 0);
      rows.clear();
      for (std::uint32_t r = 0; r < slice.global_rows.size(); ++r)
        if (op.mask[slice.global_rows[r]]) rows.push_back(r);
      for (const std::uint32_t c : op.nz) {
        k.mac_col_i16(acc.data(), slice.w_words.data(), slice.layer_input_dim,
                      slice.w_words.size(), rows.data(), rows.size(), c, op.act[c]);
        ++calls;
      }
    }
    return calls;
  });

  report.add("common.kernels.sparse_matvec_ns", matvec_s * 1e9, "ns");
  report.add("common.kernels.sparse_matvec_gmacs", gmacs, "GMAC/s");
  report.add("common.kernels.nonzero_scan_ns", scan_s * 1e9, "ns");
  report.add("common.kernels.quantize_f32_ns", quantize_s * 1e9, "ns");
  report.add("common.kernels.dot_i16_gather_ns", gather_s * 1e9, "ns");
  report.add("common.kernels.mac_col_ns", mac_col_s * 1e9, "ns");
}

void add_not_exercised(std::initializer_list<const char*> names,
                       const char* unit, Report& report) {
  for (const char* name : names) report.add(name, 0.0, unit);
}

}  // namespace perfbench
