// perfbench: one benchmark for the coordinator, the service, the wire and
// the kernels. See ../README.md for the workloads, the metrics and the
// layer -> end-to-end map.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics from undecorated passes; --trace 1 alternates undecorated and
// traced passes and reports the per-layer metrics of the traced pass with
// the median wall time, plus the tracing overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <regex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "plbhec/kdisp/isa.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_wall_s", "s"},
    {"virtual_makespan_s", "s"},
    {"stretch_p50", "ratio"},
    {"utilization", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Every per-layer metric, in report order. A workload that does not run
/// a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"stretch_p99", "ratio"},
    {"core.next_block.calls", "count"},
    {"core.next_block.s", "s"},
    {"core.on_complete.calls", "count"},
    {"core.on_complete.s", "s"},
    {"core.on_barrier.s", "s"},
    {"core.self_s", "s"},
    {"core.probe_blocks", "count"},
    {"core.rebalances", "count"},
    {"core.refinements", "count"},
    {"fit.computed", "count"},
    {"fit.cached", "count"},
    {"fit.cache_hit_ratio", "ratio"},
    {"fit.gram_solves", "count"},
    {"fit.qr_solves", "count"},
    {"fit.qr_fallbacks", "count"},
    {"solver.solves", "count"},
    {"solver.solve_s", "s"},
    {"solver.kkt_solves", "count"},
    {"solver.warm_solves", "count"},
    {"solver.fallback_solves", "count"},
    {"sim.self_s", "s"},
    {"sim.blocks", "count"},
    {"sim.barriers", "count"},
    {"svc.leases_granted", "count"},
    {"svc.leases_revoked", "count"},
    {"svc.scheduler_restarts", "count"},
    {"svc.probe_blocks", "count"},
    {"svc.warm_hits", "count"},
    {"svc.warm_misses", "count"},
    {"svc.queue_wait_p50_s", "s"},
    {"svc.queue_wait_p99_s", "s"},
    {"svc.pooled_stretch_p99", "ratio"},
    {"svc.trace_utilization_min", "ratio"},
    {"obs.model_fitted", "count"},
    {"obs.solves", "count"},
    {"obs.solve_s", "s"},
    {"rt.unit_wait_s", "s"},
    {"rt.blocks", "count"},
    {"rt.grains_requeued", "count"},
    {"net.execute.calls", "count"},
    {"net.execute_s", "s"},
    {"net.wire_s", "s"},
    {"net.overhead_s", "s"},
    {"net.result_bytes", "bytes"},
    {"net.wire_MBps", "MB/s"},
    {"net.chunks_pipelined", "count"},
    {"net.batched_results", "count"},
    {"net.inflight_peak", "count"},
    {"net.overlap_fraction", "ratio"},
    {"net.reconnects", "count"},
    {"net.heartbeats_missed", "count"},
    {"workerd.blocks_served", "count"},
    {"workerd.frames_received", "count"},
    {"workerd.results_batched", "count"},
    {"workerd.reactor_wakeups", "count"},
    {"workerd.wakeups_per_frame", "ratio"},
    {"kernel.exec_s", "s"},
    {"kernel.ops", "count"},
    {"trace.closure_err_frac", "ratio"},
    {"trace.crosscheck_err_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.spans_dropped", "count"},
    {"trace_overhead_frac", "ratio"},
};

/// Spans kept in memory for the trace file; per-layer totals stay exact
/// beyond the cap.
constexpr std::size_t kMaxStoredSpans = 100'000;
/// Set-up repetitions per end-to-end run; setup_s is their median. Cheap
/// set-ups repeat until they have taken kSetupMinSeconds in total.
constexpr std::size_t kSetupMinReps = 3;
constexpr std::size_t kSetupMaxReps = 100;
constexpr double kSetupMinSeconds = 1.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
               "       perfbench --self-test\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") a.workload = v;
      else if (arg == "--seed") a.seed = std::stoull(v);
      else if (arg == "--seconds") a.seconds = std::stod(v);
      else if (arg == "--trace") a.trace = std::stoi(v);
      else if (arg == "--out-dir") a.out_dir = v;
      else usage(("unknown argument " + arg).c_str());
    } catch (const std::exception&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (a.self_test) return a;
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end())
    usage("unknown or missing --workload");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The median over the passes of each cycle slot, averaged over the slots,
/// so every slot of a rotating workload weighs the same however many
/// passes it got. With a cycle of one it is the median over the passes.
template <typename Field>
double cycle_median(const std::vector<PassResult>& passes, std::size_t cycle,
                    Field field) {
  double sum = 0.0;
  for (std::size_t slot = 0; slot < cycle; ++slot) {
    std::vector<double> v;
    for (std::size_t i = slot; i < passes.size(); i += cycle)
      v.push_back(field(passes[i]));
    sum += median(v);
  }
  return sum / static_cast<double>(cycle);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string fingerprint() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"affinity_cpus\": " + std::to_string(affinity) +
         ", \"kdisp_isa\": \"" +
         plbhec::kdisp::to_string(plbhec::kdisp::effective_isa()) +
         "\", \"compiler\": \"" + kCompiler + "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE + "\"}";
}

bool valid_name(const std::string& name) {
  static const std::regex re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  return std::regex_match(name, re);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

/// Sets up fresh workload instances and times each set-up; setup_s is
/// the median.
class SetupTimer {
 public:
  explicit SetupTimer(const Args& args) : args_(args) {}

  [[nodiscard]] std::unique_ptr<Workload> build() {
    std::unique_ptr<Workload> w = make_workload(args_.workload, args_.seed);
    const double t0 = wall_now();
    w->setup();
    times_.push_back(wall_now() - t0);
    total_ += times_.back();
    return w;
  }
  [[nodiscard]] bool wants_more() const {
    return times_.size() < kSetupMinReps ||
           (total_ < kSetupMinSeconds && times_.size() < kSetupMaxReps);
  }
  /// Prints the repetitions and returns their median.
  double report() const {
    std::printf("setup: %zu repetitions, min %.4f s, max %.4f s\n",
                times_.size(), *std::min_element(times_.begin(), times_.end()),
                *std::max_element(times_.begin(), times_.end()));
    return median(times_);
  }

 private:
  const Args& args_;
  std::vector<double> times_;
  double total_ = 0.0;
};

void tally(const PassResult& r, std::uint64_t& attempted,
           std::uint64_t& failed) {
  attempted += r.attempted;
  failed += r.failed;
  for (const std::string& f : r.failures)
    std::printf("check failed: %s\n", f.c_str());
}

void print_pass(const char* tag, std::size_t i, const PassResult& r) {
  std::printf("pass %s %zu: wall %.4f s, makespan %.6g s, stretch p50 %.4g "
              "p99 %.4g, utilization %.4f, ops %llu, failed %llu\n",
              tag, i, r.wall_s, r.makespan_s, r.stretch_p50, r.stretch_p99,
              r.utilization,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

int run_end_to_end(const Args& args) {
  // The host's speed drifts over seconds, so the set-ups are spread over
  // the run: the next pass runs on a freshly set-up instance while more
  // set-ups are wanted, and the rest follow the last pass. Set-up time
  // does not count against --seconds.
  SetupTimer setup(args);
  std::unique_ptr<Workload> w = setup.build();
  const std::size_t cycle = w->cycle_length();
  std::vector<PassResult> passes;
  std::uint64_t attempted = 0, failed = 0;
  double pass_s = 0.0;
  while (passes.size() < cycle || pass_s < args.seconds) {
    const double t0 = wall_now();
    passes.push_back(w->run_pass(nullptr, passes.size()));
    pass_s += wall_now() - t0;
    print_pass("untraced", passes.size(), passes.back());
    tally(passes.back(), attempted, failed);
    if (setup.wants_more()) {
      w.reset();  // release the previous instance's daemons first
      w = setup.build();
    }
  }
  w.reset();
  while (setup.wants_more()) (void)setup.build();
  const double setup_s = setup.report();
  const auto med = [&](auto field) {
    return cycle_median(passes, cycle, field);
  };
  std::vector<Metric> m;
  for (const MetricSpec& spec : kEndToEnd) {
    const std::string name = spec.name;
    double v = 0.0;
    if (name == "setup_s") v = setup_s;
    else if (name == "run_wall_s") v = med([](auto& p) { return p.wall_s; });
    else if (name == "virtual_makespan_s")
      v = med([](auto& p) { return p.makespan_s; });
    else if (name == "stretch_p50")
      v = med([](auto& p) { return p.stretch_p50; });
    else if (name == "utilization")
      v = med([](auto& p) { return p.utilization; });
    else if (name == "peak_rss_mb") v = peak_rss_mb();
    m.push_back({name, spec.unit, v});
  }
  std::printf("passes: %zu\n", passes.size());
  for (const Metric& x : m)
    std::printf("%-20s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  // Printed for reading only: across seeds it spreads wider than any bound
  // (README.md), so the result line carries it with the per-layer metrics.
  std::printf("%-20s %.6g ratio (not bounded)\n", "stretch_p99",
              med([](auto& p) { return p.stretch_p99; }));
  const bool correct = failed == 0 && attempted > 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

int run_traced(const Args& args) {
  SetupTimer setup(args);
  std::unique_ptr<Workload> w = setup.build();
  Tracer tracer(kMaxStoredSpans);
  const std::size_t cycle = w->cycle_length();
  std::vector<PassResult> plain, traced;
  // Traces of the slot-0 passes, the candidates for the per-layer numbers.
  std::vector<std::pair<std::size_t, PassTrace>> candidates;
  std::uint64_t attempted = 0, failed = 0;
  const double t0 = wall_now();
  while (traced.size() < cycle || wall_now() - t0 < args.seconds) {
    const std::size_t i = traced.size();
    plain.push_back(w->run_pass(nullptr, i));
    print_pass("untraced", plain.size(), plain.back());
    tally(plain.back(), attempted, failed);
    traced.push_back(w->run_pass(&tracer, i));
    if (i % cycle == 0) candidates.emplace_back(i, tracer.pass_trace());
    print_pass("traced", traced.size(), traced.back());
    tally(traced.back(), attempted, failed);
  }
  const auto wall = [](const PassResult& p) { return p.wall_s; };
  const double plain_wall = cycle_median(plain, cycle, wall);
  // Per-layer numbers come from the slot-0 traced pass with the median
  // wall time (the lower middle one for an even count), so they add up
  // within one pass and always describe the same inputs.
  std::sort(candidates.begin(), candidates.end(),
            [&](const auto& a, const auto& b) {
              return traced[a.first].wall_s < traced[b.first].wall_s;
            });
  const auto& [picked, pick_trace] = candidates[(candidates.size() - 1) / 2];
  const PassResult& pick = traced[picked];

  std::vector<Metric> m;
  for (const MetricSpec& spec : kPerLayer) {
    double value = 0.0;
    for (const Metric& x : pick.layers)
      if (x.name == spec.name) value = x.value;
    m.push_back({spec.name, spec.unit, value});
  }
  for (Metric& x : m) {
    if (x.name == "stretch_p99")
      x.value = pick.stretch_p99;
    else if (x.name == "trace.spans")
      x.value = static_cast<double>(pick_trace.recorded);
    else if (x.name == "trace.spans_dropped")
      x.value = static_cast<double>(pick_trace.dropped);
    else if (x.name == "trace_overhead_frac")
      x.value = (cycle_median(traced, cycle, wall) - plain_wall) / plain_wall;
  }

  // Self-time table of the picked pass, to stdout and the layers file.
  std::filesystem::create_directories(args.out_dir);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed);
  std::string table = "host: " + fingerprint() + "\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-22s %10s %12s %12s\n", "span",
                "count", "total_s", "self_s");
  table += line;
  const auto& totals = pick_trace.totals;
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    if (totals[i].count == 0) continue;
    // A span whose children ran in parallel lanes (engine.run on the real
    // engines) has no meaningful self time.
    char self[16] = "    parallel";
    if (totals[i].self_s() >= 0.0)
      std::snprintf(self, sizeof(self), "%12.6f", totals[i].self_s());
    std::snprintf(line, sizeof(line), "%-22s %10llu %12.6f %s\n",
                  to_string(static_cast<SpanName>(i)),
                  static_cast<unsigned long long>(totals[i].count),
                  totals[i].total_s, self);
    table += line;
  }
  std::printf("self-time table (traced pass %zu of %zu):\n%s", picked + 1,
              traced.size(), table.c_str());
  for (const Metric& x : m)
    std::printf("%-28s %.6g %s\n", x.name.c_str(), x.value, x.unit.c_str());
  if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
    std::fputs(table.c_str(), f);
    for (const Metric& x : m)
      std::fprintf(f, "%-28s %.17g %s\n", x.name.c_str(), x.value,
                   x.unit.c_str());
    std::fclose(f);
  }
  if (!write_chrome_json(pick_trace, stem + ".trace.json"))
    std::printf("warning: could not write %s.trace.json\n", stem.c_str());
  else
    std::printf("spans written to %s.trace.json\n", stem.c_str());

  const bool correct = failed == 0 && attempted > 0;
  print_result(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // 1. Every emitted name is well formed.
  bool names_ok = true;
  for (const MetricSpec& s : kEndToEnd) names_ok &= valid_name(s.name);
  for (const MetricSpec& s : kPerLayer) names_ok &= valid_name(s.name);
  for (std::size_t i = 0; i < kSpanNameCount; ++i)
    names_ok &= valid_name(to_string(static_cast<SpanName>(i)));
  for (const std::string& w : workload_names()) names_ok &= valid_name(w);
  expect(names_ok, "every metric, span and workload name matches "
                   "[A-Za-z0-9_.-]+");

  // 2. Decorator transparency on grid_sim: traced and untraced passes
  //    give bit-identical virtual makespans and fraction histories, and
  //    every layer name a traced pass emits is a declared per-layer metric.
  {
    auto w = make_workload("grid_sim", 7);
    w->setup();
    Tracer tracer(1000);
    const PassResult a = w->run_pass(nullptr, 0);
    const PassResult b = w->run_pass(&tracer, 0);
    const PassResult c = w->run_pass(nullptr, 0);
    expect(a.decision_digest == b.decision_digest &&
               b.decision_digest == c.decision_digest &&
               a.makespan_s == b.makespan_s,
           "grid_sim traced and untraced passes make identical decisions");
    bool declared = !b.layers.empty();
    for (const Metric& x : b.layers) {
      bool found = false;
      for (const MetricSpec& s : kPerLayer) found |= x.name == s.name;
      declared &= found && valid_name(x.name);
    }
    expect(declared, "grid_sim layer metrics are all declared");
    expect(a.failed == 0, "grid_sim untraced pass has no failed cells");
    w->sabotage_next_pass();
    const PassResult d = w->run_pass(nullptr, 0);
    expect(d.failed == 1 && d.attempted == a.attempted,
           "grid_sim: a failed cell check counts as one failed operation");
  }

  // 3. A deliberately failed output check counts as failed operations on
  //    every other workload too.
  for (const char* name : {"service_trace", "wire_heavy", "kernel_heavy"}) {
    auto w = make_workload(name, 7);
    w->setup();
    w->sabotage_next_pass();
    const PassResult bad = w->run_pass(nullptr, 0);
    const PassResult good = w->run_pass(nullptr, 0);
    expect(bad.failed > 0 && !bad.failures.empty(),
           std::string(name) + ": a failed output check counts as failed");
    expect(good.failed == 0 && good.attempted > 0,
           std::string(name) + ": the next pass passes its check");
  }

  std::printf("self-test: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  std::printf("host: %s\n", fingerprint().c_str());
  try {
    if (args.self_test) return self_test();
    std::printf("workload: %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace);
    return args.trace == 1 ? run_traced(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
