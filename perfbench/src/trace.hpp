#pragma once
/// \file trace.hpp
/// In-memory span recorder and the two decorators that feed it: a
/// scheduler decorator (around core::PlbHecScheduler) and an exec-unit
/// decorator (around rt::LocalExecUnit / net::RemoteUnit). Both only time
/// calls into the program's public seams; they never change what the
/// wrapped object decides.
///
/// A span has a name, start, end, parent span and the id of the traced
/// pass it belongs to. Per-name totals (count, duration, child time) are
/// aggregated at record time so the self-time table stays exact even when
/// the stored span list is capped.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "plbhec/core/plb_hec.hpp"
#include "plbhec/rt/exec_unit.hpp"
#include "plbhec/rt/scheduler.hpp"

namespace perfbench {

namespace core = plbhec::core;
namespace rt = plbhec::rt;

enum class SpanName : std::uint8_t {
  kPass,
  kEngineRun,
  kCoreStart,
  kCoreNextBlock,
  kCoreOnComplete,
  kCoreOnBarrier,
  kCoreOnUnitFailed,
  kSolverSolve,
  kRtBeginRun,
  kRtExecute,
  kNetExecute,
  kKernel,
  kServiceRun,
};
inline constexpr std::size_t kSpanNameCount =
    static_cast<std::size_t>(SpanName::kServiceRun) + 1;

[[nodiscard]] const char* to_string(SpanName name);

inline constexpr std::uint32_t kNoSpan = 0;

struct Span {
  std::uint32_t id = kNoSpan;
  std::uint32_t parent = kNoSpan;
  std::uint32_t pass = 0;
  std::uint32_t lane = 0;  ///< unit id for unit spans, 0 otherwise
  SpanName name = SpanName::kPass;
  double start = 0.0;  ///< seconds on the tracer's steady clock
  double end = 0.0;
};

struct LayerTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double child_s = 0.0;  ///< time covered by child spans
  [[nodiscard]] double self_s() const { return total_s - child_s; }
};

/// What one traced pass left in the tracer.
struct PassTrace {
  std::array<LayerTotals, kSpanNameCount> totals{};
  std::vector<Span> spans;     ///< stored spans, at most the cap
  std::uint64_t recorded = 0;  ///< spans recorded, stored or not
  std::uint64_t dropped = 0;   ///< spans not stored because of the cap
};

/// Writes a pass's stored spans as Chrome trace-event JSON. Returns false
/// on I/O failure.
[[nodiscard]] bool write_chrome_json(const PassTrace& trace,
                                     const std::string& path);

class Tracer {
 public:
  explicit Tracer(std::size_t max_stored_spans);

  [[nodiscard]] double now() const;

  /// Reserves a span id; the span is recorded by close().
  [[nodiscard]] std::uint32_t open();
  /// Records a finished span; `parent_name` lets the parent's self time
  /// be charged even when the parent span itself is not stored.
  void close(std::uint32_t id, SpanName name, std::uint32_t parent,
             SpanName parent_name, double start, double end,
             std::uint32_t lane = 0);

  /// Starts a new pass: subsequent spans carry the new pass id, and the
  /// stored spans, per-name totals and span counts restart.
  void begin_pass();
  [[nodiscard]] std::array<LayerTotals, kSpanNameCount> totals() const;
  /// Everything recorded since the last begin_pass().
  [[nodiscard]] PassTrace pass_trace() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::size_t max_stored_;
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::uint32_t pass_ = 0;
  PassTrace current_;
};

/// Scheduler decorator: forwards every call to the wrapped PLB-HeC
/// instance and records one span per call. Solver time is read off the
/// scheduler's own per-solve wall times (PlbHecStats::solve_seconds) and
/// recorded as a child span ending with the call that ran the solve.
class TracingScheduler final : public rt::Scheduler {
 public:
  TracingScheduler(core::PlbHecScheduler& inner, Tracer& tracer,
                   std::uint32_t parent, SpanName parent_name);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void start(const std::vector<rt::UnitInfo>& units,
             const rt::WorkInfo& work) override;
  [[nodiscard]] std::size_t next_block(rt::UnitId unit, double now) override;
  void on_complete(const rt::TaskObservation& obs) override;
  void on_barrier(double now) override;
  void on_unit_failed(rt::UnitId unit, std::size_t lost_grains,
                      double now) override;

  /// Per unit: the summed block intervals the engine reported through
  /// on_complete (issue to completion, engine clock).
  [[nodiscard]] const std::vector<double>& engine_busy_s() const {
    return engine_busy_s_;
  }

 private:
  template <typename Call>
  auto timed(SpanName name, Call&& call);
  /// Closes a call's span, with a solver child span when it solved.
  void record(SpanName name, std::uint32_t id, std::size_t solves_before,
              double start);

  core::PlbHecScheduler& inner_;
  Tracer& tracer_;
  std::uint32_t parent_;
  SpanName parent_name_;
  std::vector<double> engine_busy_s_;
};

/// Per-unit counters an exec-unit decorator accumulates over one run.
struct UnitTrace {
  std::uint64_t calls = 0;
  std::uint64_t grains = 0;
  std::uint64_t result_bytes = 0;
  double execute_s = 0.0;   ///< wall time inside execute()
  double kernel_s = 0.0;    ///< unit-reported kernel time
  double transfer_s = 0.0;  ///< unit-reported staging / wire time
  double wait_s = 0.0;      ///< run time outside execute(), closed by
                            ///< finish()
  double last_end = -1.0;
};

/// Exec-unit decorator: owns the wrapped unit and records one span per
/// begin_run/execute, with the unit-reported kernel time as a child span.
class TracingExecUnit final : public rt::ExecUnit {
 public:
  TracingExecUnit(std::unique_ptr<rt::ExecUnit> inner, Tracer& tracer,
                  std::uint32_t lane, bool remote);

  [[nodiscard]] rt::UnitInfo describe() const override {
    return inner_->describe();
  }
  [[nodiscard]] bool begin_run(rt::Workload& workload) override;
  [[nodiscard]] bool execute(rt::Workload& workload, std::size_t begin,
                             std::size_t end, rt::BlockTiming& timing) override;
  void end_run() override { inner_->end_run(); }

  /// Sets the engine-run span the unit's spans hang off and its start.
  void attach(std::uint32_t run_span, double run_start);
  /// Closes the wait accounting at the run's end (tracer clock).
  void finish(double run_end);

  [[nodiscard]] bool remote() const { return remote_; }
  [[nodiscard]] const UnitTrace& stats() const { return stats_; }

 private:
  std::unique_ptr<rt::ExecUnit> inner_;
  Tracer& tracer_;
  std::uint32_t lane_;
  bool remote_;
  std::uint32_t run_span_ = kNoSpan;
  UnitTrace stats_;
};

}  // namespace perfbench
