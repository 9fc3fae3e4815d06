// One pass of each workload's unit of work, and the outputs its checks see.
#include "bench.hpp"
#include "core/counting_interpreter.hpp"
#include "runtime/sim_runtime.hpp"
#include "support/thread_pool.hpp"

namespace sapbench {
namespace {

/// Two shard workers: the calling thread plus this pool's one helper.
constexpr unsigned kShardWorkers = 2;

sap::ThreadPool& replay_pool() {
  static sap::ThreadPool pool(kShardWorkers - 1);
  return pool;
}

std::string advice_signature(const sap::AdvisorReport& report) {
  const sap::AdvisorCandidate& pick = report.best();
  return pick.config.to_string() + " " +
         std::to_string(pick.measured_remote_reads) + " " +
         std::to_string(report.validated_count);
}

}  // namespace

sap::DataflowStats run_sharded(const sap::CompiledProgram& program,
                               sap::Machine& machine) {
  return sap::run_dataflow_sharded(
      program, machine, sap::ShardRuntimeOptions{kShardWorkers, &replay_pool()});
}

Pass run_pass(const Workload& w,
              std::vector<std::unique_ptr<sap::Machine>> machines) {
  Pass pass;
  if (w.kind != WorkloadKind::kAdviseJoint && machines.empty()) {
    machines = fresh_machines(w.programs);
  }
  const sap::MachineConfig base = paper_config();
  const sap::AdvisorOptions options = joint_options();
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    const sap::CompiledProgram& program = w.programs[i].compiled;
    switch (w.kind) {
      case WorkloadKind::kAdviseJoint:
        pass.reports.push_back(sap::advise(program, base, options, nullptr));
        break;
      case WorkloadKind::kSimulateCounting:
        sap::run_counting(program, *machines[i]);
        break;
      case WorkloadKind::kSimulateDataflow:
        run_sharded(program, *machines[i]);
        break;
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.cpu_s = process_cpu_seconds() - cpu0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    pass.results.push_back(machines[i]->snapshot(w.programs[i].compiled.name()));
  }
  pass.machines = std::move(machines);
  return pass;
}

bool same_outputs(const Workload& w, const Pass& a, const Pass& b) {
  if (w.kind == WorkloadKind::kAdviseJoint) {
    if (a.reports.size() != b.reports.size()) return false;
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
      if (advice_signature(a.reports[i]) != advice_signature(b.reports[i])) {
        return false;
      }
    }
    return true;
  }
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    if (!same_result(a.results[i], b.results[i])) return false;
  }
  return true;
}

std::uint64_t remote_reads(const Pass& pass) {
  std::uint64_t total = 0;
  for (const sap::AdvisorReport& r : pass.reports) {
    total += r.best().measured_remote_reads;
  }
  for (const sap::SimulationResult& r : pass.results) {
    total += r.totals.remote_reads;
  }
  return total;
}

Outputs gather(const Workload& w, const Pass& first) {
  Outputs out;
  const sap::Simulator paper(paper_config());
  for (const BenchProgram& p : w.programs) {
    if (!p.built.custom_inits.empty()) continue;  // index data is not DSL
    out.front_end.push_back(
        {p.id, paper.run(p.built, sap::ExecutionMode::kCounting),
         paper.run(p.compiled, sap::ExecutionMode::kCounting)});
  }
  for (std::size_t i = 0; i < w.programs.size(); ++i) {
    const BenchProgram& p = w.programs[i];
    switch (w.kind) {
      case WorkloadKind::kAdviseJoint:
        out.advice.push_back(summarize_advice(p, first.reports[i]));
        break;
      case WorkloadKind::kSimulateCounting:
        out.counting.push_back(capture(*first.machines[i], p.compiled.name()));
        break;
      case WorkloadKind::kSimulateDataflow: {
        Outputs::Dataflow d;
        d.id = p.id;
        d.sharded = capture(*first.machines[i], p.compiled.name());
        sap::Machine serial(paper_config());
        sap::materialize_arrays(p.compiled, serial);
        sap::run_dataflow_serial(p.compiled, serial);
        d.serial = capture(serial, p.compiled.name());
        sap::Machine counting(paper_config());
        sap::materialize_arrays(p.compiled, counting);
        sap::run_counting(p.compiled, counting);
        d.counting = capture(counting, p.compiled.name());
        out.dataflow.push_back(std::move(d));
        break;
      }
    }
  }
  return out;
}

Failures check_all(const Workload& w, const Outputs& outputs) {
  Failures failures;
  const auto add = [&failures](Failures more) {
    failures.insert(failures.end(), more.begin(), more.end());
  };
  for (const Outputs::FrontEnd& f : outputs.front_end) {
    add(check_front_end(f.id, f.built, f.reparsed));
  }
  for (std::size_t i = 0; i < outputs.counting.size(); ++i) {
    add(check_counting(w.programs[i], outputs.counting[i]));
  }
  for (std::size_t i = 0; i < outputs.dataflow.size(); ++i) {
    const Outputs::Dataflow& d = outputs.dataflow[i];
    add(check_dataflow(d.id, d.sharded, d.serial, d.counting));
    // The counting run the dataflow values are compared with is itself
    // checked wherever a reference exists (k01's values among them).
    if (has_reference(d.id)) add(check_counting(w.programs[i], d.counting));
  }
  for (const AdviceOutput& a : outputs.advice) add(check_advice(a));
  return failures;
}

}  // namespace sapbench
