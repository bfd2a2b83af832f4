#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <type_traits>

namespace perfbench {

const char* to_string(SpanName name) {
  switch (name) {
    case SpanName::kPass: return "pass";
    case SpanName::kEngineRun: return "engine.run";
    case SpanName::kCoreStart: return "core.start";
    case SpanName::kCoreNextBlock: return "core.next_block";
    case SpanName::kCoreOnComplete: return "core.on_complete";
    case SpanName::kCoreOnBarrier: return "core.on_barrier";
    case SpanName::kCoreOnUnitFailed: return "core.on_unit_failed";
    case SpanName::kSolverSolve: return "solver.solve";
    case SpanName::kRtBeginRun: return "rt.begin_run";
    case SpanName::kRtExecute: return "rt.execute";
    case SpanName::kNetExecute: return "net.execute";
    case SpanName::kKernel: return "kernel";
    case SpanName::kServiceRun: return "svc.run";
  }
  return "unknown";
}

Tracer::Tracer(std::size_t max_stored_spans)
    : origin_(Clock::now()), max_stored_(max_stored_spans) {}

double Tracer::now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

std::uint32_t Tracer::open() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::close(std::uint32_t id, SpanName name, std::uint32_t parent,
                   SpanName parent_name, double start, double end,
                   std::uint32_t lane) {
  std::lock_guard lock(mutex_);
  LayerTotals& t = current_.totals[static_cast<std::size_t>(name)];
  ++t.count;
  t.total_s += end - start;
  if (parent != kNoSpan)
    current_.totals[static_cast<std::size_t>(parent_name)].child_s +=
        end - start;
  ++current_.recorded;
  if (current_.spans.size() < max_stored_)
    current_.spans.push_back({id, parent, pass_, lane, name, start, end});
  else
    ++current_.dropped;
}

void Tracer::begin_pass() {
  std::lock_guard lock(mutex_);
  ++pass_;
  current_ = {};
}

std::array<LayerTotals, kSpanNameCount> Tracer::totals() const {
  std::lock_guard lock(mutex_);
  return current_.totals;
}

PassTrace Tracer::pass_trace() const {
  std::lock_guard lock(mutex_);
  return current_;
}

bool write_chrome_json(const PassTrace& trace, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const Span& s = trace.spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                 i == 0 ? "" : ",\n", to_string(s.name), s.pass, s.lane,
                 s.start * 1e6, (s.end - s.start) * 1e6, s.id, s.parent);
  }
  std::fprintf(f, "\n],\"spansDropped\":%llu}\n",
               static_cast<unsigned long long>(trace.dropped));
  return std::fclose(f) == 0;
}

// ---- TracingScheduler -------------------------------------------------------

TracingScheduler::TracingScheduler(core::PlbHecScheduler& inner,
                                   Tracer& tracer, std::uint32_t parent,
                                   SpanName parent_name)
    : inner_(inner), tracer_(tracer), parent_(parent),
      parent_name_(parent_name) {}

template <typename Call>
auto TracingScheduler::timed(SpanName name, Call&& call) {
  const std::uint32_t id = tracer_.open();
  const std::size_t solves_before = inner_.stats().solve_seconds.size();
  const double start = tracer_.now();
  if constexpr (std::is_void_v<std::invoke_result_t<Call>>) {
    call();
    record(name, id, solves_before, start);
  } else {
    auto result = call();
    record(name, id, solves_before, start);
    return result;
  }
}

void TracingScheduler::record(SpanName name, std::uint32_t id,
                              std::size_t solves_before, double start) {
  const double end = tracer_.now();
  const std::vector<double>& solves = inner_.stats().solve_seconds;
  double solve_s = 0.0;
  for (std::size_t i = solves_before; i < solves.size(); ++i)
    solve_s += solves[i];
  if (solve_s > 0.0) {
    // The solves ran somewhere inside this call; only their measured
    // duration is known, so the child span is placed at the call's end.
    tracer_.close(tracer_.open(), SpanName::kSolverSolve, id, name,
                  std::max(start, end - solve_s), end);
  }
  tracer_.close(id, name, parent_, parent_name_, start, end);
}

void TracingScheduler::start(const std::vector<rt::UnitInfo>& units,
                             const rt::WorkInfo& work) {
  // The engine hands its sink to the scheduler it sees — this decorator —
  // so pass it on before the wrapped scheduler starts.
  inner_.set_event_sink(sink_);
  engine_busy_s_.assign(units.size(), 0.0);
  timed(SpanName::kCoreStart, [&] { inner_.start(units, work); });
}

std::size_t TracingScheduler::next_block(rt::UnitId unit, double now) {
  return timed(SpanName::kCoreNextBlock,
               [&] { return inner_.next_block(unit, now); });
}

void TracingScheduler::on_complete(const rt::TaskObservation& obs) {
  if (obs.unit < engine_busy_s_.size())
    engine_busy_s_[obs.unit] += obs.finish_time - obs.start_time;
  timed(SpanName::kCoreOnComplete, [&] { inner_.on_complete(obs); });
}

void TracingScheduler::on_barrier(double now) {
  timed(SpanName::kCoreOnBarrier, [&] { inner_.on_barrier(now); });
}

void TracingScheduler::on_unit_failed(rt::UnitId unit,
                                      std::size_t lost_grains, double now) {
  timed(SpanName::kCoreOnUnitFailed,
        [&] { inner_.on_unit_failed(unit, lost_grains, now); });
}

// ---- TracingExecUnit --------------------------------------------------------

TracingExecUnit::TracingExecUnit(std::unique_ptr<rt::ExecUnit> inner,
                                 Tracer& tracer, std::uint32_t lane,
                                 bool remote)
    : inner_(std::move(inner)), tracer_(tracer), lane_(lane),
      remote_(remote) {}

void TracingExecUnit::attach(std::uint32_t run_span, double run_start) {
  run_span_ = run_span;
  stats_ = {};
  stats_.last_end = run_start;
}

void TracingExecUnit::finish(double run_end) {
  if (stats_.last_end >= 0.0 && run_end > stats_.last_end)
    stats_.wait_s += run_end - stats_.last_end;
  stats_.last_end = run_end;
}

bool TracingExecUnit::begin_run(rt::Workload& workload) {
  const std::uint32_t id = tracer_.open();
  const double start = tracer_.now();
  const bool ok = inner_->begin_run(workload);
  tracer_.close(id, SpanName::kRtBeginRun, run_span_, SpanName::kEngineRun,
                start, tracer_.now(), lane_);
  return ok;
}

bool TracingExecUnit::execute(rt::Workload& workload, std::size_t begin,
                              std::size_t end, rt::BlockTiming& timing) {
  const SpanName name = remote_ ? SpanName::kNetExecute : SpanName::kRtExecute;
  const std::uint32_t id = tracer_.open();
  const double start = tracer_.now();
  const bool ok = inner_->execute(workload, begin, end, timing);
  const double stop = tracer_.now();
  if (ok && timing.exec_seconds > 0.0) {
    tracer_.close(tracer_.open(), SpanName::kKernel, id, name,
                  std::max(start, stop - timing.exec_seconds), stop, lane_);
  }
  tracer_.close(id, name, run_span_, SpanName::kEngineRun, start, stop,
                lane_);
  if (stats_.last_end >= 0.0) stats_.wait_s += start - stats_.last_end;
  stats_.last_end = stop;
  ++stats_.calls;
  stats_.execute_s += stop - start;
  if (ok) {
    stats_.grains += end - begin;
    stats_.result_bytes += workload.result_bytes(begin, end);
    stats_.kernel_s += timing.exec_seconds;
    stats_.transfer_s += timing.transfer_seconds;
  }
  return ok;
}

}  // namespace perfbench
