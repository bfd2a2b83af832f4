// wire_heavy and kernel_heavy: PLB-HeC on ThreadEngine over in-process
// worker daemons (one executor thread each), reached through
// net::RemoteUnit over loopback TCP.
//
// wire_heavy: two daemons only, pipelined data plane (depth 4), a
//   synthetic job of 32,768 grains that cost little to compute (spin 200)
//   but return 16 KiB of result each (512 MiB per pass). The wire
//   dominates; a kernel speed-up should not move it.
// kernel_heavy: one in-process LocalExecUnit plus two daemons on the
//   synchronous path (depth 1), all-pairs n-body on 32,768 bodies. The
//   kernels dominate; wire changes should not move it. It also exercises
//   the sync remote path beside the pipelined one.
//
// Busy threads: at most one per unit's kernel (3) plus the coordinator's
// bookkeeping; sockets: each RemoteUnit holds a data and a heartbeat
// connection, so two daemons give four.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "plbhec/apps/nbody.hpp"
#include "plbhec/apps/synthetic.hpp"
#include "plbhec/net/remote_unit.hpp"
#include "plbhec/net/workerd.hpp"
#include "plbhec/rt/thread_engine.hpp"

namespace perfbench {
namespace {

namespace apps = plbhec::apps;
namespace net = plbhec::net;

enum class Kind { kWire, kKernel };

constexpr std::size_t kWireGrains = 32'768;
constexpr std::size_t kWireSpin = 200;
constexpr std::size_t kWirePayload = 16 * 1024;
constexpr std::size_t kBodies = 32'768;

struct DaemonCounters {
  std::uint64_t blocks = 0, frames = 0, batched = 0, wakeups = 0;
};

class RealEngine final : public Workload {
 public:
  RealEngine(Kind kind, std::uint64_t seed) : kind_(kind), seed_(seed) {}

  void setup() override {
    daemons_.clear();
    for (int i = 0; i < 2; ++i) {
      net::WorkerDaemonOptions o;
      o.name = "bench" + std::to_string(i);
      o.executor_threads = 1;
      daemons_.push_back(std::make_unique<net::WorkerDaemon>(o));
    }
    if (kind_ == Kind::kWire) {
      // The seed picks the grain count (and so the checksum), leaving the
      // per-grain cost and payload fixed.
      wire_grains_ = kWireGrains + mix_seed(seed_, 0) % 256;
      apps::SyntheticWorkload reference(wire_config());
      reference.execute_cpu(0, wire_grains_);
      ref_checksum_ = reference.checksum();
    } else {
      // Serial reference on the calling thread: the single-threaded
      // baseline the distributed run must reproduce bit for bit.
      apps::NbodyWorkload reference(nbody_config());
      reference.execute_cpu(0, kBodies);
      ref_ax_ = reference.ax();
      ref_ay_ = reference.ay();
      ref_az_ = reference.az();
    }
  }

  PassResult run_pass(Tracer* tracer, std::size_t /*index*/) override {
    PassResult out;
    std::unique_ptr<rt::Workload> workload =
        kind_ == Kind::kWire
            ? std::unique_ptr<rt::Workload>(
                  std::make_unique<apps::SyntheticWorkload>(wire_config()))
            : std::make_unique<apps::NbodyWorkload>(nbody_config());

    // Units: kernel_heavy adds the in-process unit first (id 0).
    std::vector<std::unique_ptr<rt::ExecUnit>> units;
    std::vector<net::RemoteUnit*> remotes;
    std::vector<TracingExecUnit*> traced;
    std::uint32_t lane = 0;
    const auto add = [&](std::unique_ptr<rt::ExecUnit> unit, bool remote) {
      if (remote) remotes.push_back(static_cast<net::RemoteUnit*>(unit.get()));
      if (tracer != nullptr) {
        auto wrapped = std::make_unique<TracingExecUnit>(std::move(unit),
                                                         *tracer, lane, remote);
        traced.push_back(wrapped.get());
        unit = std::move(wrapped);
      }
      units.push_back(std::move(unit));
      ++lane;
    };
    if (kind_ == Kind::kKernel)
      add(std::make_unique<rt::LocalExecUnit>(
              rt::LocalExecUnit::Options{"coord.cpu0", 1.0, true}),
          false);
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      net::RemoteUnitOptions ro;
      ro.port = daemons_[i]->port();
      ro.name = "remote." + std::to_string(i);
      ro.machine = static_cast<std::uint32_t>(i + 1);
      // Generous liveness budget (3 s): a loaded host must not demote a
      // healthy loopback daemon mid-measurement.
      ro.heartbeat_interval_seconds = 0.2;
      ro.max_missed_heartbeats = 15;
      ro.pipeline_depth = kind_ == Kind::kWire ? 4 : 1;
      add(std::make_unique<net::RemoteUnit>(ro), true);
    }
    rt::ThreadEngine engine({}, std::move(units));

    const std::vector<DaemonCounters> before = daemon_counters();
    core::PlbHecScheduler plb;
    std::uint32_t pass_span = kNoSpan, run_span = kNoSpan;
    double run_start = 0.0;
    rt::RunResult run;
    std::vector<double> engine_busy;
    const double t0 = wall_now();
    if (tracer != nullptr) {
      tracer->begin_pass();
      pass_span = tracer->open();
      run_span = tracer->open();
      TracingScheduler scheduler(plb, *tracer, run_span, SpanName::kEngineRun);
      run_start = tracer->now();
      for (TracingExecUnit* u : traced) u->attach(run_span, run_start);
      run = engine.run(*workload, scheduler);
      engine_busy = scheduler.engine_busy_s();
    } else {
      run = engine.run(*workload, plb);
    }
    out.wall_s = wall_now() - t0;
    if (tracer != nullptr) {
      const double run_end = tracer->now();
      for (TracingExecUnit* u : traced) u->finish(run_end);
      tracer->close(run_span, SpanName::kEngineRun, pass_span,
                    SpanName::kPass, run_start, run_end);
      tracer->close(pass_span, SpanName::kPass, kNoSpan, SpanName::kPass,
                    run_start, run_end);
    }
    out.makespan_s = run.makespan;

    // Blocks: each completed block left a transfer + exec segment pair.
    const auto& segs = run.trace.segments();
    double busy = 0.0;
    std::vector<double> stretches;
    for (std::size_t i = 0; i + 1 < segs.size(); i += 2) {
      const double wall = segs[i + 1].end - segs[i].start;
      busy += wall;
      if (segs[i + 1].duration() > 0.0)
        stretches.push_back(wall / segs[i + 1].duration());
    }
    out.stretch_p50 = percentile(stretches, 50.0);
    out.stretch_p99 = percentile(stretches, 99.0);
    std::uint64_t blocks = 0, failed_units = 0;
    for (const rt::UnitStats& s : run.unit_stats) {
      blocks += s.tasks;
      if (s.failed) ++failed_units;
    }
    out.attempted = blocks + failed_units;
    out.failed = failed_units;
    if (run.makespan > 0.0)
      out.utilization = busy / (static_cast<double>(run.unit_stats.size()) *
                                run.makespan);
    if (!run.ok) {
      out.failed = out.attempted;
      out.failures.push_back("engine: " + run.error);
    } else if (!check_output(*workload)) {
      out.failed = out.attempted;
      out.failures.push_back(kind_ == Kind::kWire
                                 ? "synthetic grains/checksum mismatch"
                                 : "n-body accelerations differ from the "
                                   "serial reference");
    }
    if (out.failed > 0 && failed_units > 0)
      out.failures.push_back(std::to_string(failed_units) +
                             " unit(s) failed mid-run");

    if (tracer != nullptr) {
      append_scheduler_layers(tracer->totals(), {plb.stats()}, out.layers);
      append_layers(out, run, traced, remotes, before, engine_busy);
    }
    return out;
  }

  void sabotage_next_pass() override { sabotage_ = true; }

 private:
  [[nodiscard]] apps::SyntheticWorkload::Config wire_config() const {
    apps::SyntheticWorkload::Config c;
    c.grains = wire_grains_;
    c.spin_iters_per_grain = kWireSpin;
    c.result_payload_per_grain = kWirePayload;
    return c;
  }

  [[nodiscard]] apps::NbodyWorkload::Config nbody_config() const {
    return {kBodies, /*materialize=*/true, mix_seed(seed_, 0)};
  }

  bool check_output(rt::Workload& workload) {
    const bool sabotage = sabotage_;
    sabotage_ = false;
    if (kind_ == Kind::kWire) {
      auto& w = static_cast<apps::SyntheticWorkload&>(workload);
      // Block partial sums arrive in schedule order, so the total may
      // differ from the serial reference in the last bits only.
      const double checksum = w.checksum() + (sabotage ? 1.0 : 0.0);
      return w.executed_grains() == wire_grains_ &&
             std::abs(checksum - ref_checksum_) <=
                 1e-9 * std::abs(ref_checksum_);
    }
    auto& w = static_cast<apps::NbodyWorkload&>(workload);
    const auto same = [](const std::vector<double>& a,
                         const std::vector<double>& b) {
      return a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
    };
    return !sabotage && same(w.ax(), ref_ax_) && same(w.ay(), ref_ay_) &&
           same(w.az(), ref_az_);
  }

  [[nodiscard]] std::vector<DaemonCounters> daemon_counters() const {
    std::vector<DaemonCounters> out;
    for (const auto& d : daemons_)
      out.push_back({d->blocks_served(), d->frames_received(),
                     d->results_batched(), d->reactor_wakeups()});
    return out;
  }

  void append_layers(PassResult& out, const rt::RunResult& run,
                     const std::vector<TracingExecUnit*>& traced,
                     const std::vector<net::RemoteUnit*>& remotes,
                     const std::vector<DaemonCounters>& before,
                     const std::vector<double>& engine_busy) const {
    auto& l = out.layers;
    UnitTrace all, net_units;
    double closure = 0.0, crosscheck = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      const TracingExecUnit* u = traced[i];
      const UnitTrace& s = u->stats();
      all.calls += s.calls;
      all.grains += s.grains;
      all.execute_s += s.execute_s;
      all.kernel_s += s.kernel_s;
      all.wait_s += s.wait_s;
      // Per unit: time inside execute + time outside it = the makespan.
      closure = std::max(closure, std::abs(s.execute_s + s.wait_s -
                                           run.makespan) /
                                      run.makespan);
      // Against the engine's own clock: the unit's wait outside execute
      // should match the makespan minus the block intervals the engine
      // reported to the scheduler (issue to completion, engine clock).
      const double busy = i < engine_busy.size() ? engine_busy[i] : 0.0;
      crosscheck = std::max(
          crosscheck,
          std::abs(s.wait_s - (run.makespan - busy)) / run.makespan);
      if (!u->remote()) continue;
      net_units.calls += s.calls;
      net_units.execute_s += s.execute_s;
      net_units.kernel_s += s.kernel_s;
      net_units.transfer_s += s.transfer_s;
      net_units.result_bytes += s.result_bytes;
    }
    net::RemoteUnit::WireStats wire;
    double overlap = 0.0;
    std::uint64_t reconnects = 0, missed = 0;
    for (const net::RemoteUnit* r : remotes) {
      const auto& w = r->wire_stats();
      wire.chunks_pipelined += w.chunks_pipelined;
      wire.batched_results += w.batched_results;
      wire.inflight_peak = std::max(wire.inflight_peak, w.inflight_peak);
      overlap += r->overlap_fraction() / static_cast<double>(remotes.size());
      reconnects += r->reconnects_attempted();
      missed += r->heartbeats_missed();
    }
    DaemonCounters d;
    const std::vector<DaemonCounters> after = daemon_counters();
    for (std::size_t i = 0; i < after.size(); ++i) {
      d.blocks += after[i].blocks - before[i].blocks;
      d.frames += after[i].frames - before[i].frames;
      d.batched += after[i].batched - before[i].batched;
      d.wakeups += after[i].wakeups - before[i].wakeups;
    }
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    l.push_back({"rt.unit_wait_s", "s", all.wait_s});
    l.push_back({"rt.blocks", "count", n(all.calls)});
    l.push_back({"rt.grains_requeued", "count", n(run.grains_requeued)});
    l.push_back({"net.execute.calls", "count", n(net_units.calls)});
    l.push_back({"net.execute_s", "s", net_units.execute_s});
    l.push_back({"net.wire_s", "s", net_units.transfer_s});
    l.push_back(
        {"net.overhead_s", "s", net_units.execute_s - net_units.kernel_s});
    l.push_back({"net.result_bytes", "bytes", n(net_units.result_bytes)});
    l.push_back({"net.wire_MBps", "MB/s",
                 net_units.transfer_s > 0.0
                     ? n(net_units.result_bytes) / net_units.transfer_s / 1e6
                     : 0.0});
    l.push_back({"net.chunks_pipelined", "count", n(wire.chunks_pipelined)});
    l.push_back({"net.batched_results", "count", n(wire.batched_results)});
    l.push_back({"net.inflight_peak", "count", n(wire.inflight_peak)});
    l.push_back({"net.overlap_fraction", "ratio", overlap});
    l.push_back({"net.reconnects", "count", n(reconnects)});
    l.push_back({"net.heartbeats_missed", "count", n(missed)});
    l.push_back({"workerd.blocks_served", "count", n(d.blocks)});
    l.push_back({"workerd.frames_received", "count", n(d.frames)});
    l.push_back({"workerd.results_batched", "count", n(d.batched)});
    l.push_back({"workerd.reactor_wakeups", "count", n(d.wakeups)});
    l.push_back({"workerd.wakeups_per_frame", "ratio",
                 d.frames > 0 ? n(d.wakeups) / n(d.frames) : 0.0});
    l.push_back({"kernel.exec_s", "s", all.kernel_s});
    // Computed work: n-body does one interaction per (grain, body) pair,
    // the synthetic kernel kWireSpin multiply-adds per grain.
    l.push_back({"kernel.ops", "count",
                 n(all.grains) *
                     (kind_ == Kind::kWire ? static_cast<double>(kWireSpin)
                                           : static_cast<double>(kBodies))});
    l.push_back({"trace.closure_err_frac", "ratio", closure});
    l.push_back({"trace.crosscheck_err_frac", "ratio", crosscheck});
  }

  Kind kind_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<net::WorkerDaemon>> daemons_;
  std::size_t wire_grains_ = kWireGrains;
  double ref_checksum_ = 0.0;
  std::vector<double> ref_ax_, ref_ay_, ref_az_;
  bool sabotage_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_wire_heavy(std::uint64_t seed) {
  return std::make_unique<RealEngine>(Kind::kWire, seed);
}

std::unique_ptr<Workload> make_kernel_heavy(std::uint64_t seed) {
  return std::make_unique<RealEngine>(Kind::kKernel, seed);
}

}  // namespace perfbench
