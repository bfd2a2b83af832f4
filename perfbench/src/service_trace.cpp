// service_trace: 10k jobs of synthetic Poisson traffic through
// svc::JobManager (one shard, in-memory profile store), as 40 independent
// traces of 250 jobs at about 0.85 offered load. Open loop in virtual
// time: arrivals are fixed by the trace, so generator lateness is zero by
// construction. The only workload that runs svc/; it leans on the fit
// layer through many small leases, warm starts and store merges.
//
// Why many short traces and not one long one: on roughly one trace in
// five to ten the service falls into a low-utilization mode (few scheduler
// restarts, median stretch ~10x the usual; README.md, "Known odd
// readings"), and on a single 10k-job trace that decides every number.
// The end-to-end figures are medians over the traces, so they describe
// the typical trace from run to run; the per-layer svc.pooled_stretch_p99
// and svc.trace_utilization_min keep the bad mode visible.

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>

#include "bench.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/common/rng.hpp"
#include "plbhec/obs/sink.hpp"
#include "plbhec/sim/machine.hpp"
#include "plbhec/svc/job_manager.hpp"

namespace perfbench {
namespace {

namespace apps = plbhec::apps;
namespace obs = plbhec::obs;
namespace sim = plbhec::sim;
namespace svc = plbhec::svc;

constexpr std::size_t kTraces = 40;
constexpr std::size_t kJobsPerTrace = 250;
/// Mean inter-arrival gap: about 0.85 offered load on the 2-machine
/// cluster (mean service demand ~0.037 s per job).
constexpr double kMeanGap = 0.045;

struct Kind {
  std::string app_kind;
  std::function<std::unique_ptr<rt::Workload>()> make;
};

/// Synthetic kinds carry only a cost profile, so materialising the jobs
/// stays cheap and the traces measure the coordinator alone.
std::vector<Kind> kind_pool() {
  const auto syn = [](std::size_t grains, double flops) {
    apps::SyntheticWorkload::Config config;
    config.grains = grains;
    config.flops_per_grain = flops;
    config.bytes_per_grain = 2048.0;
    return [config] {
      return std::make_unique<apps::SyntheticWorkload>(config);
    };
  };
  return {{"syn-small", syn(2'000, 8e5)},
          {"syn-medium", syn(5'000, 4e5)},
          {"syn-large", syn(12'000, 2e5)}};
}

/// Poisson arrivals (exponential gaps), kinds cycling through the pool,
/// priorities 20% high / 60% normal / 20% low.
std::vector<svc::JobSpec> make_trace(std::uint64_t seed) {
  const std::vector<Kind> pool = kind_pool();
  plbhec::Rng rng(seed);
  std::vector<svc::JobSpec> trace;
  trace.reserve(kJobsPerTrace);
  double t = 0.0;
  for (std::size_t i = 0; i < kJobsPerTrace; ++i) {
    const Kind& kind = pool[i % pool.size()];
    const std::int64_t draw = rng.uniform_int(0, 9);
    const svc::PriorityClass priority =
        draw < 2   ? svc::PriorityClass::kHigh
        : draw < 8 ? svc::PriorityClass::kNormal
                   : svc::PriorityClass::kLow;
    const double u = rng.uniform();
    t += -kMeanGap * std::log(1.0 - std::min(u, 1.0 - 1e-12));
    trace.push_back({kind.app_kind + "/" + std::to_string(i), kind.app_kind,
                     priority, t, kind.make});
  }
  return trace;
}

double median_of(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

class ServiceTrace final : public Workload {
 public:
  explicit ServiceTrace(std::uint64_t seed)
      : seed_(seed), cluster_(sim::scenario(2)) {}

  void setup() override {
    traces_.clear();
    for (std::size_t t = 0; t < kTraces; ++t)
      traces_.push_back(make_trace(mix_seed(seed_, t)));
    options_ = {};
    options_.noise = sim::NoiseModel::none();
    options_.shards = 1;
    // Stretch denominators: each kind running alone on the whole cluster.
    solo_.clear();
    for (const svc::JobSpec& spec : traces_.front()) {
      if (solo_.count(spec.app_kind)) continue;
      svc::JobManager manager(cluster_, options_);
      svc::JobSpec alone = spec;
      alone.arrival_time = 0.0;
      manager.submit(std::move(alone));
      const svc::ServiceResult r = manager.run();
      if (!r.ok || r.makespan <= 0.0)
        throw std::runtime_error("solo run failed for " + spec.app_kind);
      solo_[spec.app_kind] = r.makespan;
    }
  }

  PassResult run_pass(Tracer* tracer, std::size_t /*index*/) override {
    PassResult out;
    std::vector<double> makespans, utils, p50s, p99s, all_stretches, waits;
    svc::ServiceResult sum;
    std::uint64_t fitted = 0, solves = 0;
    double solve_s = 0.0;
    std::uint32_t pass_span = kNoSpan;
    double pass_start = 0.0;
    if (tracer != nullptr) {
      tracer->begin_pass();
      pass_span = tracer->open();
      pass_start = tracer->now();
    }
    bool sabotage = sabotage_;
    sabotage_ = false;
    const double t0 = wall_now();
    for (const std::vector<svc::JobSpec>& trace : traces_) {
      svc::ServiceOptions options = options_;
      obs::EventSink sink;
      std::uint32_t run_span = kNoSpan;
      double run_start = 0.0;
      if (tracer != nullptr) {
        options.sink = &sink;
        run_span = tracer->open();
        run_start = tracer->now();
      }
      svc::JobManager manager(cluster_, options);
      for (const svc::JobSpec& spec : trace) manager.submit(spec);
      const svc::ServiceResult r = manager.run();
      if (tracer != nullptr)
        tracer->close(run_span, SpanName::kServiceRun, pass_span,
                      SpanName::kPass, run_start, tracer->now());

      out.attempted += trace.size();
      if (!r.ok || r.jobs.size() != trace.size()) {
        out.failed += trace.size();
        out.failures.push_back("service error: " + r.error);
        continue;
      }
      std::vector<double> stretches;
      for (const svc::JobOutcome& job : r.jobs) {
        if (!job.ok || sabotage) {
          sabotage = false;  // one job stands in for a failed completion
          ++out.failed;
          if (out.failures.size() < 5)
            out.failures.push_back("job " + job.name + " did not complete ok");
          continue;
        }
        stretches.push_back(job.turnaround() / solo_.at(job.app_kind));
        waits.push_back(job.queue_wait());
      }
      all_stretches.insert(all_stretches.end(), stretches.begin(),
                           stretches.end());
      p50s.push_back(percentile(stretches, 50.0));
      p99s.push_back(percentile(stretches, 99.0));
      makespans.push_back(r.makespan);
      utils.push_back(r.utilization);
      sum.leases_granted += r.leases_granted;
      sum.leases_revoked += r.leases_revoked;
      sum.scheduler_restarts += r.scheduler_restarts;
      sum.probe_blocks += r.probe_blocks;
      sum.warm_hits += r.warm_hits;
      sum.warm_misses += r.warm_misses;
      for (const obs::Event& e : sink.drain()) {
        if (e.kind == obs::EventKind::kModelFitted) ++fitted;
        if (e.kind == obs::EventKind::kSolve) {
          ++solves;
          solve_s += e.a;
        }
      }
    }
    out.wall_s = wall_now() - t0;
    out.makespan_s = median_of(makespans);
    out.utilization = median_of(utils);
    out.stretch_p50 = median_of(p50s);
    out.stretch_p99 = median_of(p99s);

    if (tracer != nullptr) {
      tracer->close(pass_span, SpanName::kPass, kNoSpan, SpanName::kPass,
                    pass_start, tracer->now());
      const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
      auto& l = out.layers;
      l.push_back({"svc.leases_granted", "count", n(sum.leases_granted)});
      l.push_back({"svc.leases_revoked", "count", n(sum.leases_revoked)});
      l.push_back(
          {"svc.scheduler_restarts", "count", n(sum.scheduler_restarts)});
      l.push_back({"svc.probe_blocks", "count", n(sum.probe_blocks)});
      l.push_back({"svc.warm_hits", "count", n(sum.warm_hits)});
      l.push_back({"svc.warm_misses", "count", n(sum.warm_misses)});
      l.push_back({"svc.queue_wait_p50_s", "s", percentile(waits, 50.0)});
      l.push_back({"svc.queue_wait_p99_s", "s", percentile(waits, 99.0)});
      l.push_back({"svc.pooled_stretch_p99", "ratio",
                   percentile(all_stretches, 99.0)});
      l.push_back({"svc.trace_utilization_min", "ratio",
                   utils.empty() ? 0.0
                                 : *std::min_element(utils.begin(),
                                                     utils.end())});
      l.push_back({"obs.model_fitted", "count", n(fitted)});
      l.push_back({"obs.solves", "count", n(solves)});
      l.push_back({"obs.solve_s", "s", solve_s});
    }
    return out;
  }

  void sabotage_next_pass() override { sabotage_ = true; }

 private:
  std::uint64_t seed_;
  sim::SimCluster cluster_;
  std::vector<std::vector<svc::JobSpec>> traces_;
  svc::ServiceOptions options_;
  std::map<std::string, double> solo_;
  bool sabotage_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_service_trace(std::uint64_t seed) {
  return std::make_unique<ServiceTrace>(seed);
}

}  // namespace perfbench
