#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>

#include "nn/trainer.hpp"

namespace perfbench {

using namespace sparsenn;

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0 && args.seconds <= 600.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--trace-out <csv>]");
  return args;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::check(bool ok, std::string_view what) {
  if (ok) return;
  std::cerr << "perfbench: check failed: " << what << "\n";
  correct_ = false;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.12g", metrics_[i].value);
    out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  return out + "}}";
}

std::uint32_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint32_t parent,
                             std::uint64_t request, std::uint64_t count) {
  if (!enabled_) return kNone;
  spans_.push_back({name, parent, request, count, start, end});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::close(std::uint32_t id, std::uint64_t count,
                   Clock::time_point end) {
  if (id == kNone) return;
  spans_[id].end = end;
  spans_[id].count = count;
}

double Tracer::seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name) total += seconds_between(s.start, s.end);
  return total;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::string_view(s.name) == name)
      out.push_back(us_between(s.start, s.end));
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  // Self time: the span minus the union of its children's intervals,
  // clipped to the span.
  std::map<std::uint32_t, std::vector<std::uint32_t>> children;
  for (std::uint32_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != kNone) children[spans_[i].parent].push_back(i);
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const auto origin = spans_.empty() ? Clock::time_point{} : spans_[0].start;
  out << std::fixed << std::setprecision(3);
  out << "id,parent,request,name,count,start_us,end_us,self_us\n";
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double covered = 0.0;
    if (auto it = children.find(i); it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (std::uint32_t c : it->second)
        iv.emplace_back(std::max(spans_[c].start, s.start),
                        std::min(spans_[c].end, s.end));
      std::sort(iv.begin(), iv.end());
      Clock::time_point reach = s.start;
      for (const auto& [a, b] : iv) {
        const auto from = std::max(a, reach);
        if (b > from) covered += us_between(from, b);
        reach = std::max(reach, b);
      }
    }
    const double total = us_between(s.start, s.end);
    out << i << ',' << (s.parent == kNone ? -1 : std::int64_t{s.parent})
        << ',' << s.request << ',' << s.name << ',' << s.count << ','
        << us_between(origin, s.start) << ',' << us_between(origin, s.end)
        << ',' << total - covered << '\n';
  }
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t k = std::min(
      values.size() - 1,
      static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

void Windows::add(std::vector<double>& latency_us) {
  p50_us.push_back(percentile(latency_us, 50.0));
  p99_us.push_back(percentile(latency_us, 99.0));
}

void print_windows(const char* what, const std::vector<double>& values) {
  std::cout << "# " << what << ":";
  for (const double v : values) std::cout << ' ' << v;
  std::cout << '\n';
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

DatasetSplit make_split(std::uint64_t seed, Tracer& tracer) {
  DatasetOptions training;
  training.train_size = kTrainSize;
  training.test_size = kTestSize;
  training.seed = kTrainingDataSeed;
  DatasetOptions inputs;
  inputs.train_size = 1;  // make_dataset requires one; unused
  inputs.test_size = kTestSize;
  inputs.seed = seed;
  DatasetSplit split;
  timed(tracer, "data.make_dataset", [&] {
    split = make_dataset(DatasetVariant::kBasic, training);
    split.test = make_dataset(DatasetVariant::kBasic, inputs).test;
  });
  std::cout << "# inputs: " << split.test.size() << " BASIC test digits (seed "
            << seed << "), input sparsity " << split.test.input_sparsity()
            << "; training split " << split.train.size() << " digits (seed "
            << kTrainingDataSeed << "), input sparsity "
            << split.train.input_sparsity() << "\n";
  return split;
}

QuantizedNetwork train_and_quantize(const std::vector<std::size_t>& topology,
                                    PredictorKind kind,
                                    const DatasetSplit& split,
                                    Tracer& tracer) {
  TrainOptions options;  // default (fixed) training seed
  options.kind = kind;
  options.epochs = kEpochs;
  options.threads = kTrainThreads;
  std::optional<TrainedModel> model;
  timed(tracer, "nn.train",
        [&] { model.emplace(train_network(topology, split, options)); });
  std::optional<QuantizedNetwork> quantized;
  timed(tracer, "nn.quantize",
        [&] { quantized.emplace(model->network, split.train.inputs); });
  return std::move(*quantized);
}

void add_setup_metrics(const Tracer& tracer, Report& report) {
  report.add("data.make_dataset_s", tracer.seconds("data.make_dataset"), "s");
  report.add("nn.train_s", tracer.seconds("nn.train"), "s");
  report.add("nn.quantize_ms", tracer.seconds("nn.quantize") * 1e3, "ms");
  report.add("sim.compiled_network.compile_ms",
             tracer.seconds("sim.compiled_network.compile") * 1e3, "ms");
}

double error_pct(std::span<const SimResult> results,
                 std::span<const int> labels) {
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& out = results[i].output;
    const auto best = std::max_element(out.begin(), out.end()) - out.begin();
    if (best != labels[i]) ++wrong;
  }
  return 100.0 * static_cast<double>(wrong) /
         static_cast<double>(std::max<std::size_t>(1, results.size()));
}

std::size_t count_nonzero(std::span<const std::int16_t> v) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [](std::int16_t x) { return x != 0; }));
}

}  // namespace perfbench
