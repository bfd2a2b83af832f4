#pragma once
/// \file bench.hpp
/// What every benchmark workload provides: a set-up step, timed passes
/// (untraced for the end-to-end metrics, traced for the per-layer ones)
/// and output checks whose failures count as failed operations.

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Outcome of one pass over the workload.
struct PassResult {
  double wall_s = 0.0;      ///< wall time of the pass (run_wall_s)
  double makespan_s = 0.0;  ///< engine-clock makespan (virtual_makespan_s)
  /// Stretch percentiles over the pass's operations (cell, job or block;
  /// see README.md).
  double stretch_p50 = 0.0;
  double stretch_p99 = 0.0;
  double utilization = 0.0;
  std::uint64_t attempted = 0;  ///< operations: cells, jobs or blocks
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  /// Per-layer metrics; filled by traced passes only.
  std::vector<Metric> layers;
  /// Digest of the scheduling decisions (sim workloads): equal digests
  /// mean bit-identical makespans and fraction histories.
  std::uint64_t decision_digest = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Daemon start, input materialisation and reference computation.
  virtual void setup() = 0;
  /// One pass. `tracer` null = undecorated run with no sink attached.
  /// `index` counts the run's passes from 0; a workload whose inputs
  /// rotate over passes runs slot `index % cycle_length()` of them.
  [[nodiscard]] virtual PassResult run_pass(Tracer* tracer,
                                            std::size_t index) = 0;
  /// Passes in one full cycle of the workload's inputs. A run makes at
  /// least this many passes; its metrics weigh every slot equally.
  [[nodiscard]] virtual std::size_t cycle_length() const { return 1; }
  /// Test hook: corrupt the next pass's output so its check must fail.
  virtual void sabotage_next_pass() = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();
/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

std::unique_ptr<Workload> make_grid_sim(std::uint64_t seed);
std::unique_ptr<Workload> make_service_trace(std::uint64_t seed);
std::unique_ptr<Workload> make_wire_heavy(std::uint64_t seed);
std::unique_ptr<Workload> make_kernel_heavy(std::uint64_t seed);

/// splitmix64 step: derives independent generator seeds from --seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Per-layer metrics shared by the workloads that run PLB-HeC under the
/// scheduler decorator (core.*, fit.*, solver.*).
void append_scheduler_layers(const std::array<LayerTotals, kSpanNameCount>&
                                 totals,
                             const std::vector<core::PlbHecStats>& stats,
                             std::vector<Metric>& out);

/// Folds a run's makespan and fraction history into an FNV-1a digest.
void digest_stats(std::uint64_t& h, double makespan,
                  const core::PlbHecStats& stats);

/// Steady-clock seconds (for pass timing outside the tracer).
[[nodiscard]] double wall_now();

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

}  // namespace perfbench
