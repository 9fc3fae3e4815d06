// The traced per-layer run.  Every layer is timed from outside, around
// calls to its public functions, inside the benchmark's own "bench" spans;
// run.py reads the Chrome trace and turns the spans into per-layer rows.
// Each span carries its work count and its repetition index as args.
// What a span cannot carry (CPU time, scheduler and metrics-registry
// counts, simulated counts) is printed here as one JSON object.
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>

#include "advisor/access_summary.hpp"
#include "advisor/cost_model.hpp"
#include "bench.hpp"
#include "cache/page_cache.hpp"
#include "core/counting_interpreter.hpp"
#include "core/dataflow_trace.hpp"
#include "core/executor_base.hpp"
#include "memory/sa_array.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/partitioner.hpp"
#include "partition/scheme.hpp"
#include "support/rng.hpp"

namespace sapbench {
namespace {

constexpr int kMinReps = 3;

// Results of timed micro loops land here so the loops cannot be elided.
volatile double g_sink = 0.0;

/// Calls body(rep) until `budget` seconds have passed, at least kMinReps
/// times.  Returns the number of repetitions.
template <typename Body>
int repeat(double budget, Body body) {
  const Clock::time_point start = Clock::now();
  int rep = 0;
  while (rep < kMinReps || seconds_since(start) < budget) {
    body(rep);
    ++rep;
  }
  return rep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::unique_ptr<sap::Machine> fresh_machine(const BenchProgram& p) {
  auto machine = std::make_unique<sap::Machine>(paper_config());
  sap::materialize_arrays(p.compiled, *machine);
  return machine;
}

/// Per repetition of the sharded runtime: CPU over wall time, and the
/// scheduler counts of its DataflowStats.
struct ShardSamples {
  std::vector<double> busy, parks, steals, suspensions;
};

ShardSamples time_program_layers(const Workload& w, double budget) {
  ShardSamples shards;
  repeat(budget, [&](int rep) {
    sap::obs::Span span("bench", "frontend.compile", "programs",
                        static_cast<std::int64_t>(w.programs.size()));
    span.arg("rep", rep);
    for (const BenchProgram& p : w.programs) {
      const sap::CompiledProgram program = compile_dsl(p.dsl);
      g_sink = g_sink + static_cast<double>(program.program.arrays.size());
    }
  });
  repeat(budget, [&](int rep) {
    for (const BenchProgram& p : w.programs) {
      sap::ArrayRegistry registry;
      sap::materialize_arrays(p.compiled, registry);
      sap::SequentialExecutor executor;
      sap::obs::Span span("bench", "core.stmt_exec", "instances",
                          static_cast<std::int64_t>(p.instances));
      span.arg("rep", rep);
      executor.execute(p.compiled, registry);
    }
  });
  repeat(budget, [&](int rep) {
    for (const BenchProgram& p : w.programs) {
      const auto machine = fresh_machine(p);
      sap::obs::Span span("bench", "machine.counting", "instances",
                          static_cast<std::int64_t>(p.instances));
      span.arg("rep", rep);
      sap::run_counting(p.compiled, *machine);
    }
  });
  repeat(budget, [&](int rep) {
    for (const BenchProgram& p : w.programs) {
      const sap::Partitioner partitioner(paper_config());
      sap::StreamSet streams(paper_config().num_pes);
      sap::StreamingSink sink(streams);
      sap::TraceBuilder builder(p.compiled, partitioner, sink, streams.layouts);
      sap::obs::Span span("bench", "core.trace", "instances",
                          static_cast<std::int64_t>(p.instances));
      span.arg("rep", rep);
      builder.build();
    }
  });
  repeat(budget, [&](int rep) {
    for (const BenchProgram& p : w.programs) {
      const auto machine = fresh_machine(p);
      sap::obs::Span span("bench", "core.dataflow_serial", "instances",
                          static_cast<std::int64_t>(p.instances));
      span.arg("rep", rep);
      sap::run_dataflow_serial(p.compiled, *machine);
    }
  });
  repeat(budget, [&](int rep) {
    double wall = 0.0;
    double cpu = 0.0;
    sap::DataflowStats sum;
    for (const BenchProgram& p : w.programs) {
      const auto machine = fresh_machine(p);
      const double cpu0 = process_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      sap::DataflowStats stats;
      {
        sap::obs::Span span("bench", "runtime.sharded", "instances",
                            static_cast<std::int64_t>(p.instances));
        span.arg("rep", rep);
        stats = run_sharded(p.compiled, *machine);
      }
      wall += seconds_since(t0);
      cpu += process_cpu_seconds() - cpu0;
      sum.parks += stats.parks;
      sum.steals += stats.steals;
      sum.suspensions += stats.suspensions;
    }
    shards.busy.push_back(cpu / wall);
    shards.parks.push_back(static_cast<double>(sum.parks));
    shards.steals.push_back(static_cast<double>(sum.steals));
    shards.suspensions.push_back(static_cast<double>(sum.suspensions));
  });
  return shards;
}

// ------------------------------------------------------------------ micro

void time_micro(double budget) {
  constexpr int kLookups = 1 << 16;
  const sap::Partitioner partitioner(
      sap::make_partition_scheme(sap::PartitionKind::kModulo), 32, 16);
  const sap::SaArray lookup_array(0, "A",
                                  sap::ArrayShape::vector_1based(kLookups));
  repeat(budget, [&](int rep) {
    sap::obs::Span span("bench", "partition.owner_lookup", "ops", kLookups);
    span.arg("rep", rep);
    std::int64_t linear = 0;
    std::uint64_t acc = 0;
    for (int i = 0; i < kLookups; ++i) {
      acc += partitioner.owner_of_element(lookup_array, linear);
      linear = (linear + 97) & (kLookups - 1);
    }
    g_sink = g_sink + static_cast<double>(acc);
  });

  // Frames = capacity / page size; pages are drawn from 8x the frames, so
  // both lookups that hit and inserts that evict are exercised.
  constexpr int kCacheOps = 1 << 15;
  const auto time_cache = [&](const char* name, std::int64_t frames) {
    repeat(budget, [&](int rep) {
      sap::PageCache cache(frames * 32, 32, sap::ReplacementPolicy::kLru, 42);
      sap::SplitMix64 rng(7);
      sap::obs::Span span("bench", name, "ops", kCacheOps);
      span.arg("rep", rep);
      for (int i = 0; i < kCacheOps; ++i) {
        const sap::PageId page{
            0, static_cast<sap::PageIndex>(
                   rng.next_below(static_cast<std::uint64_t>(8 * frames)))};
        if (!cache.lookup(page, 0)) cache.insert(page, 0);
      }
    });
  };
  time_cache("cache.lookup_insert.f8", 8);
  time_cache("cache.lookup_insert.f256", 256);

  constexpr std::int64_t kCells = 4096;
  repeat(budget, [&](int rep) {
    sap::SaArray array(0, "A", sap::ArrayShape::vector_1based(kCells));
    sap::obs::Span span("bench", "memory.sa_write_read", "ops", 2 * kCells);
    span.arg("rep", rep);
    for (std::int64_t i = 0; i < kCells; ++i) array.write(i, 1.0);
    double sum = 0.0;
    for (std::int64_t i = 0; i < kCells; ++i) sum += array.read(i);
    g_sink = g_sink + sum;
  });

  // A read-free arithmetic statement: pure instruction dispatch.
  const sap::CompiledProgram dispatch = compile_dsl(
      "PROGRAM dispatch\n"
      "ARRAY out(1)\n"
      "SCALAR a = 1.5\n"
      "SCALAR b = 2.25\n"
      "SCALAR c = -0.5\n"
      "out(1) = ((a + b) * (c - a) + (b * c - a) * (a - c)) / (b + 2.0)"
      " + a * b - c + (a + 1.0) * (b - 3.0) - (c + 4.0) / (a + 2.5)\n"
      "END PROGRAM\n");
  const sap::CompiledExpr& expr =
      dispatch.bytecode->assigns.begin()->second.value;
  class NullReader final : public sap::ArrayReader {
    std::optional<double> read(const std::string&,
                               const std::vector<std::int64_t>&) override {
      return 0.0;
    }
  } reader;
  sap::BytecodeFrame frame;
  const sap::BytecodeFrame::SlotHandle handle = frame.intern(expr);
  sap::EvalEnv env;
  env.set("A", 1.5);
  env.set("B", 2.25);
  env.set("C", -0.5);
  constexpr int kRuns = 1 << 14;
  const auto instructions =
      static_cast<std::int64_t>(kRuns) * static_cast<std::int64_t>(expr.code.size());
  repeat(budget, [&](int rep) {
    sap::obs::Span span("bench", "core.bytecode_dispatch", "ops", instructions);
    span.arg("rep", rep);
    double acc = 0.0;
    for (int i = 0; i < kRuns; ++i) {
      acc += frame.run(expr, handle, env, reader).value_or(0.0);
    }
    g_sink = g_sink + acc;
  });
}

// ---------------------------------------------------------------- advisor

struct AdvisorLayer {
  std::uint64_t measured_candidates = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t measured_runs = 0;
};

std::uint64_t counter_value(const sap::obs::MetricsSnapshot& s,
                            const std::string& name) {
  for (const sap::obs::CounterSample& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

AdvisorLayer time_advisor(const Workload& set, double budget) {
  const sap::MachineConfig base = paper_config();
  const sap::AdvisorOptions options = joint_options();
  std::vector<sap::AccessSummary> summaries(set.programs.size());
  repeat(budget, [&](int rep) {
    for (std::size_t i = 0; i < set.programs.size(); ++i) {
      sap::obs::Span span("bench", "advisor.summary", "programs", 1);
      span.arg("rep", rep);
      summaries[i] = sap::summarize_access(set.programs[i].compiled);
    }
  });
  const std::vector<sap::AdvisorCandidate> candidates =
      sap::enumerate_candidates(base, options);
  repeat(budget, [&](int rep) {
    for (const sap::AccessSummary& summary : summaries) {
      sap::obs::Span span("bench", "advisor.estimate", "candidates",
                          static_cast<std::int64_t>(candidates.size()));
      span.arg("rep", rep);
      double acc = 0.0;
      for (const sap::AdvisorCandidate& c : candidates) {
        acc += sap::estimate_cost(summary, c.config).score();
      }
      g_sink = g_sink + acc;
    }
  });

  AdvisorLayer out;
  std::vector<sap::AdvisorReport> reports;
  const sap::obs::MetricsSnapshot before = sap::obs::snapshot_metrics();
  {
    sap::obs::Span span("bench", "advisor.pass", "programs",
                        static_cast<std::int64_t>(set.programs.size()));
    for (const BenchProgram& p : set.programs) {
      reports.push_back(sap::advise(p.compiled, base, options, nullptr));
    }
  }
  const sap::obs::MetricsSnapshot after = sap::obs::snapshot_metrics();
  const auto delta = [&](const char* name) {
    return counter_value(after, name) - counter_value(before, name);
  };
  out.memo_hits = delta("advisor/memo_hits");
  out.measured_runs = delta("advisor/measured_runs");
  for (std::size_t i = 0; i < set.programs.size(); ++i) {
    const sap::AdvisorReport& report = reports[i];
    out.measured_candidates += report.validated_count;
    sap::obs::Span span("bench", "advisor.measure", "runs",
                        static_cast<std::int64_t>(report.validated_count));
    for (const sap::AdvisorCandidate& c : report.candidates) {
      if (!c.validated) continue;
      const sap::SimulationResult r =
          sap::Simulator(c.config).run(set.programs[i].compiled);
      g_sink = g_sink + static_cast<double>(r.totals.remote_reads);
    }
  }
  return out;
}

}  // namespace

void measure_layers(const Workload& w, const Pass& first,
                    const Outputs& outputs, double seconds,
                    const std::string& trace_path, bool correct,
                    std::uint64_t attempted) {
  // Tracing overhead: the workload's own pass, untraced then traced.
  const double pass_budget = seconds / 8.0;
  std::vector<double> untraced;
  std::vector<double> traced;
  const auto passes = [&](std::vector<double>& walls) {
    repeat(pass_budget, [&](int rep) {
      sap::obs::Span span("bench", "workload.pass", "programs",
                          static_cast<std::int64_t>(w.programs.size()));
      span.arg("rep", rep);
      const Pass pass = run_pass(w);
      correct = correct && same_outputs(w, first, pass);
      walls.push_back(pass.wall_s);
      attempted += w.programs.size();
    });
  };
  passes(untraced);
  sap::obs::start_tracing();
  passes(traced);

  const double layer_budget = seconds / 20.0;
  const ShardSamples shards = time_program_layers(w, layer_budget);
  time_micro(layer_budget / 2.0);

  std::optional<Workload> own_set;
  const Workload& advise_set = w.kind == WorkloadKind::kAdviseJoint
                                   ? w
                                   : own_set.emplace(
                                         make_workload("advise-joint", 0));
  const AdvisorLayer advisor = time_advisor(advise_set, layer_budget);
  sap::obs::stop_tracing();
  sap::obs::write_chrome_trace_file(trace_path);

  // Simulated counts of the pass the checks examined.
  sap::SimulationResult sum;
  std::uint64_t instances = 0;
  const auto add = [&sum](const sap::SimulationResult& r) {
    sum.totals += r.totals;
    sum.cache_totals.hits += r.cache_totals.hits;
    sum.cache_totals.misses += r.cache_totals.misses;
    sum.cache_totals.evictions += r.cache_totals.evictions;
    sum.cache_totals.invalidations += r.cache_totals.invalidations;
    sum.network += r.network;
  };
  for (const sap::SimulationResult& r : first.results) add(r);
  for (const AdviceOutput& a : outputs.advice) add(a.pick_result);
  for (const BenchProgram& p : w.programs) instances += p.instances;
  correct = correct && sum.totals.remote_reads == remote_reads(first);

  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": 0, \"trace\": \"" << trace_path << "\", \"values\": {"
      << "\"cache.hits\": " << sum.cache_totals.hits
      << ", \"cache.misses\": " << sum.cache_totals.misses
      << ", \"cache.evictions\": " << sum.cache_totals.evictions
      << ", \"cache.invalidations\": " << sum.cache_totals.invalidations
      << ", \"network.messages\": " << sum.network.messages
      << ", \"network.payload_elements\": " << sum.network.payload_elements
      << ", \"sim.instances\": " << instances
      << ", \"sim.total_reads\": " << sum.totals.total_reads()
      << ", \"sim.remote_reads\": " << sum.totals.remote_reads
      << ", \"runtime.busy_threads\": " << median(shards.busy)
      << ", \"runtime.parks\": " << median(shards.parks)
      << ", \"runtime.steals\": " << median(shards.steals)
      << ", \"runtime.suspensions\": " << median(shards.suspensions)
      << ", \"advisor.measured_candidates\": " << advisor.measured_candidates
      << ", \"sweep.memo_hits\": " << advisor.memo_hits
      << ", \"sweep.measured_runs\": " << advisor.measured_runs
      << ", \"obs.trace_overhead_s\": " << median(traced) - median(untraced)
      << ", \"untraced_run_s\": " << median(untraced)
      << ", \"traced_run_s\": " << median(traced) << "}}";
  std::cout << out.str() << std::endl;
}

}  // namespace sapbench
