// Shared types of the sap benchmark (see ../README.md).
//
// The benchmark drives the sap library only through its public functions,
// with every engine and scheduler choice passed explicitly, so no SAPART_*
// environment variable can change what is measured.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "core/dataflow_interpreter.hpp"
#include "core/simulator.hpp"
#include "machine/machine.hpp"

namespace sapbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// CPU time of the whole process (all threads), in seconds.
double process_cpu_seconds();

/// The paper's machine: 16 PEs, page 32, 256-element LRU cache, modulo.
sap::MachineConfig paper_config();

/// The program-shape parameters the independent checks derive their
/// expectations from.
struct Shape {
  std::int64_t n = 0;
  std::int64_t steps = 0;
};

/// One workload program: built by the library's builders, printed to DSL
/// text, and compiled again from that text.  The workload runs `compiled`;
/// `built` is the front-end check's reference.
struct BenchProgram {
  std::string id;
  Shape shape;
  bool mixed = false;  // advise-joint's mixed-shape synthetics
  std::string dsl;
  sap::CompiledProgram built;
  sap::CompiledProgram compiled;
  std::uint64_t instances = 0;  // statement instances, commits included
};

enum class WorkloadKind { kAdviseJoint, kSimulateCounting, kSimulateDataflow };

struct Workload {
  WorkloadKind kind = WorkloadKind::kAdviseJoint;
  std::string name;
  std::vector<BenchProgram> programs;
};

/// Builds, prints and recompiles the workload's programs.  Throws
/// sap::Error on an unknown workload name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The A9 (ablation_joint) advisor settings: joint strategy, page sizes
/// 16/32/64, beam width 4, budgets 16 + 24.
sap::AdvisorOptions joint_options();

/// DSL text -> compiled program, engine and optimizer tier explicit.
sap::CompiledProgram compile_dsl(const std::string& dsl);

/// Counts statement instances (reduction commits included) with a plain
/// sequential walk over a fresh registry.
std::uint64_t count_instances(const sap::CompiledProgram& program);

/// Every array of a finished run: values plus definedness, bit-exact.
struct ArraySnapshot {
  std::string name;
  std::vector<double> values;  // 0.0 where undefined
  std::vector<std::uint8_t> defined;
};

/// What one simulation produced.
struct RunOutput {
  sap::SimulationResult result;
  std::vector<ArraySnapshot> arrays;
};

RunOutput capture(const sap::Machine& machine, const std::string& program);

/// Fresh machines (arrays materialized) for every program of a pass.
std::vector<std::unique_ptr<sap::Machine>> fresh_machines(
    const std::vector<BenchProgram>& programs);

/// One advise() report plus the checks' re-simulations of it.
struct AdviceOutput {
  std::string id;
  bool mixed = false;
  std::uint64_t pick_remote = 0;      // reported for the pick
  double pick_fraction = 0.0;         // reported for the pick
  std::uint64_t pick_resim = 0;       // Simulator::run on the pick's config
  std::uint64_t baseline_remote = 0;  // reported for the modulo baseline
  double baseline_fraction = 0.0;
  std::uint64_t baseline_resim = 0;
  double best_uniform_fraction = 0.0;  // best validated, no per-array spec
  sap::SimulationResult pick_result;   // the pick's re-simulation
};

AdviceOutput summarize_advice(const BenchProgram& program,
                              const sap::AdvisorReport& report);

// ----------------------------------------------------------------- checks
//
// Each returns the failures it found, one line each, prefixed by the
// check's name; an empty list means the output passed.

using Failures = std::vector<std::string>;

/// True when check_counting has a reference for the program.
bool has_reference(const std::string& id);

/// simulate-counting: reference values, read totals, the local + cached +
/// remote = total identity per PE, and per-PE writes under modulo.
Failures check_counting(const BenchProgram& program, const RunOutput& out);

/// simulate-dataflow: the sharded run is byte-identical to the serial
/// scheduler's, and its values equal the counting run's.
Failures check_dataflow(const std::string& id, const RunOutput& sharded,
                        const RunOutput& serial, const RunOutput& counting);

/// advise-joint: re-simulation reproduces the reported reads, the pick is
/// never worse than the baseline or the best uniform candidate, and mixed
/// synthetics reach zero remote reads.
Failures check_advice(const AdviceOutput& advice);

/// Front end: the reparsed program simulates exactly like the built one.
Failures check_front_end(const std::string& id,
                         const sap::SimulationResult& built,
                         const sap::SimulationResult& reparsed);

bool same_result(const sap::SimulationResult& a,
                 const sap::SimulationResult& b);
bool same_arrays(const std::vector<ArraySnapshot>& a,
                 const std::vector<ArraySnapshot>& b);

// ------------------------------------------------------------------ passes

/// One pass of a workload's unit of work: every advise() call, or every
/// simulation, run once.  Only the calls themselves are timed; fresh
/// machines are built before the clock starts.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<sap::SimulationResult> results;           // simulate-*
  std::vector<sap::AdvisorReport> reports;              // advise-joint
  std::vector<std::unique_ptr<sap::Machine>> machines;  // simulate-*
};

/// The sharded dataflow runtime at two workers (caller + one helper).
sap::DataflowStats run_sharded(const sap::CompiledProgram& program,
                               sap::Machine& machine);

/// Runs one pass.  `machines` (simulate-* only) are consumed; empty means
/// build fresh ones.
Pass run_pass(const Workload& w,
              std::vector<std::unique_ptr<sap::Machine>> machines = {});

/// True when two passes produced the same deterministic outputs.
bool same_outputs(const Workload& w, const Pass& a, const Pass& b);

/// Everything the checks look at, gathered from one pass (plus the extra
/// reference runs the checks need).
struct Outputs {
  std::vector<RunOutput> counting;  // simulate-counting, program order
  struct Dataflow {
    std::string id;
    RunOutput sharded;
    RunOutput serial;
    RunOutput counting;
  };
  std::vector<Dataflow> dataflow;
  std::vector<AdviceOutput> advice;
  struct FrontEnd {
    std::string id;
    sap::SimulationResult built;
    sap::SimulationResult reparsed;
  };
  std::vector<FrontEnd> front_end;
};

Outputs gather(const Workload& w, const Pass& first);
Failures check_all(const Workload& w, const Outputs& outputs);

/// Simulated remote reads of a pass: summed over the advised picks, or
/// over the fixed configurations.
std::uint64_t remote_reads(const Pass& pass);

/// Per-layer measurements (layers.cpp).  Writes the Chrome trace to
/// `trace_path` and prints the non-span measurements as one JSON object.
void measure_layers(const Workload& w, const Pass& first,
                    const Outputs& outputs, double seconds,
                    const std::string& trace_path, bool correct,
                    std::uint64_t attempted);

}  // namespace sapbench
