#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"grid_sim", "service_trace",
                                              "wire_heavy", "kernel_heavy"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "grid_sim") return make_grid_sim(seed);
  if (name == "service_trace") return make_service_trace(seed);
  if (name == "wire_heavy") return make_wire_heavy(seed);
  if (name == "kernel_heavy") return make_kernel_heavy(seed);
  return nullptr;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

void digest_bytes(std::uint64_t& h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

}  // namespace

void digest_stats(std::uint64_t& h, double makespan,
                  const core::PlbHecStats& stats) {
  digest_bytes(h, &makespan, sizeof(makespan));
  for (const std::vector<double>& fractions : stats.fraction_history)
    digest_bytes(h, fractions.data(), fractions.size() * sizeof(double));
}

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  const auto idx =
      static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1.0));
  return values[std::min(idx, values.size() - 1)];
}

void append_scheduler_layers(
    const std::array<LayerTotals, kSpanNameCount>& totals,
    const std::vector<core::PlbHecStats>& stats, std::vector<Metric>& out) {
  const auto at = [&](SpanName n) -> const LayerTotals& {
    return totals[static_cast<std::size_t>(n)];
  };
  double core_self = 0.0;
  for (SpanName n : {SpanName::kCoreStart, SpanName::kCoreNextBlock,
                     SpanName::kCoreOnComplete, SpanName::kCoreOnBarrier,
                     SpanName::kCoreOnUnitFailed})
    core_self += at(n).self_s();

  core::PlbHecStats sum;
  for (const core::PlbHecStats& s : stats) {
    sum.probe_blocks += s.probe_blocks;
    sum.rebalances += s.rebalances;
    sum.refinements += s.refinements;
    sum.fits_computed += s.fits_computed;
    sum.fits_cached += s.fits_cached;
    sum.gram_solves += s.gram_solves;
    sum.qr_solves += s.qr_solves;
    sum.qr_fallbacks += s.qr_fallbacks;
    sum.solves += s.solves;
    sum.kkt_solves += s.kkt_solves;
    sum.warm_solves += s.warm_solves;
    sum.fallback_solves += s.fallback_solves;
  }
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  const double fits = n(sum.fits_computed + sum.fits_cached);

  out.push_back({"core.next_block.calls", "count",
                 n(at(SpanName::kCoreNextBlock).count)});
  out.push_back(
      {"core.next_block.s", "s", at(SpanName::kCoreNextBlock).total_s});
  out.push_back({"core.on_complete.calls", "count",
                 n(at(SpanName::kCoreOnComplete).count)});
  out.push_back(
      {"core.on_complete.s", "s", at(SpanName::kCoreOnComplete).total_s});
  out.push_back(
      {"core.on_barrier.s", "s", at(SpanName::kCoreOnBarrier).total_s});
  out.push_back({"core.self_s", "s", core_self});
  out.push_back({"core.probe_blocks", "count", n(sum.probe_blocks)});
  out.push_back({"core.rebalances", "count", n(sum.rebalances)});
  out.push_back({"core.refinements", "count", n(sum.refinements)});
  out.push_back({"fit.computed", "count", n(sum.fits_computed)});
  out.push_back({"fit.cached", "count", n(sum.fits_cached)});
  out.push_back({"fit.cache_hit_ratio", "ratio",
                 fits > 0.0 ? n(sum.fits_cached) / fits : 0.0});
  out.push_back({"fit.gram_solves", "count", n(sum.gram_solves)});
  out.push_back({"fit.qr_solves", "count", n(sum.qr_solves)});
  out.push_back({"fit.qr_fallbacks", "count", n(sum.qr_fallbacks)});
  out.push_back({"solver.solves", "count", n(sum.solves)});
  out.push_back(
      {"solver.solve_s", "s", at(SpanName::kSolverSolve).total_s});
  out.push_back({"solver.kkt_solves", "count", n(sum.kkt_solves)});
  out.push_back({"solver.warm_solves", "count", n(sum.warm_solves)});
  out.push_back({"solver.fallback_solves", "count", n(sum.fallback_solves)});
}

}  // namespace perfbench
