// Workload programs and the plumbing every mode shares.
#include <ctime>
#include <functional>
#include <utility>

#include "bench.hpp"
#include "core/executor_base.hpp"
#include "core/program_builder.hpp"
#include "frontend/parser.hpp"
#include "frontend/printer.hpp"
#include "kernels/livermore.hpp"
#include "kernels/synthetic.hpp"
#include "support/error.hpp"

namespace sapbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

sap::MachineConfig paper_config() {
  sap::MachineConfig config;
  config.num_pes = 16;
  config.page_size = 32;
  config.cache_elements = 256;
  config.partition = sap::PartitionKind::kModulo;
  return config;
}

sap::AdvisorOptions joint_options() {
  sap::AdvisorOptions options;
  options.strategy = sap::AdvisorStrategy::kJoint;
  options.page_sizes = {16, 32, 64};
  options.beam_width = 4;
  options.measurement_budget = 16;
  options.joint_measurement_budget = 24;
  options.validation_mode = sap::ExecutionMode::kCounting;
  return options;
}

sap::CompiledProgram compile_dsl(const std::string& dsl) {
  return sap::compile(sap::Parser::parse(dsl), sap::EvalEngine::kBytecode,
                      sap::BytecodeOpt::kOn);
}

namespace {

class InstanceCounter final : public sap::SequentialExecutor {
 public:
  std::uint64_t count = 0;

 protected:
  void on_instance(const sap::ArrayAssign&, sap::PeId, std::int64_t,
                   const sap::EvalEnv&, bool) override {
    ++count;
  }
};

/// Time-stepped Jacobi smoothing that reuses CUR and NEXT through the §5
/// REINIT protocol (the examples/reinit_timestep.cpp program, sized up):
/// every step invalidates the cached pages of both buffers.
sap::CompiledProgram jacobi_reinit(std::int64_t n, std::int64_t steps) {
  using sap::ex_num;
  sap::ProgramBuilder b("jacobi_reinit");
  b.prefix_array("CUR", {n}, n);
  b.array("NEXT", {n});
  b.input_array("BC", {2});
  const sap::Ex i = b.var("I");
  b.begin_loop("T", 1, ex_num(static_cast<double>(steps)));
  b.reinit("NEXT");
  b.begin_loop("I", 2, ex_num(static_cast<double>(n - 1)));
  b.assign("NEXT", {i},
           0.5 * b.at("CUR", {i}) +
               0.25 * (b.at("CUR", {i - 1}) + b.at("CUR", {i + 1})));
  b.end_loop();
  b.reinit("CUR");
  b.assign("CUR", {1}, b.at("BC", {1}));
  b.assign("CUR", {ex_num(static_cast<double>(n))}, b.at("BC", {2}));
  b.begin_loop("I", 2, ex_num(static_cast<double>(n - 1)));
  b.assign("CUR", {i}, b.at("NEXT", {i}));
  b.end_loop();
  b.end_loop();
  return b.compile();
}

struct Source {
  std::string id;
  Shape shape;
  bool mixed = false;
  std::function<sap::CompiledProgram()> build;
};

std::vector<Source> sources_for(WorkloadKind kind, std::uint64_t seed) {
  std::vector<Source> out;
  switch (kind) {
    case WorkloadKind::kAdviseJoint: {
      for (const sap::KernelSpec& spec : sap::livermore_kernels()) {
        out.push_back({spec.id, {}, false, spec.build});
      }
      // ablation_joint's mixed shapes: the skew is a multiple of
      // num_pes * the largest page size, so no uniform scheme wins.
      out.push_back({"syn_mixed_skew_rate", {}, true,
                     [] { return sap::make_mixed_skew_vs_rate(16384, 4096); }});
      out.push_back({"syn_mixed_multigroup", {}, true,
                     [] { return sap::make_mixed_multigroup(16384, 4096); }});
      break;
    }
    case WorkloadKind::kSimulateCounting: {
      out.push_back({"k18_hydro2d", {800, 0}, false,
                     [] { return sap::build_k18_explicit_hydro_2d(800); }});
      out.push_back({"k06_glr", {400, 0}, false, [] {
                       return sap::build_k6_general_linear_recurrence(400);
                     }});
      out.push_back({"k21_matmul", {48, 0}, false,
                     [] { return sap::build_k21_matmul(48); }});
      out.push_back({"k24_first_min", {100000, 0}, false,
                     [] { return sap::build_k24_first_min(100000); }});
      out.push_back({"syn_random", {65536, 0}, false, [seed] {
                       return sap::make_random_permutation(65536, seed);
                     }});
      out.push_back({"jacobi_reinit", {8192, 8}, false,
                     [] { return jacobi_reinit(8192, 8); }});
      break;
    }
    case WorkloadKind::kSimulateDataflow: {
      out.push_back({"k01_hydro", {50000, 0}, false,
                     [] { return sap::build_k1_hydro(50000); }});
      out.push_back({"k02_iccg", {32768, 0}, false,
                     [] { return sap::build_k2_iccg(32768); }});
      out.push_back({"k18_hydro2d", {800, 0}, false,
                     [] { return sap::build_k18_explicit_hydro_2d(800); }});
      out.push_back({"k06_glr", {400, 0}, false, [] {
                       return sap::build_k6_general_linear_recurrence(400);
                     }});
      break;
    }
  }
  return out;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "advise-joint") {
    w.kind = WorkloadKind::kAdviseJoint;
  } else if (name == "simulate-counting") {
    w.kind = WorkloadKind::kSimulateCounting;
  } else if (name == "simulate-dataflow") {
    w.kind = WorkloadKind::kSimulateDataflow;
  } else {
    throw sap::Error("unknown workload '" + name +
                     "' (advise-joint, simulate-counting, simulate-dataflow)");
  }
  for (Source& source : sources_for(w.kind, seed)) {
    BenchProgram p;
    p.id = source.id;
    p.shape = source.shape;
    p.mixed = source.mixed;
    p.built = source.build();
    p.dsl = sap::print_program(p.built.program);
    p.compiled = compile_dsl(p.dsl);
    // Index data (the permutation table) is not DSL text: carry it over.
    p.compiled.custom_inits = p.built.custom_inits;
    w.programs.push_back(std::move(p));
  }
  return w;
}

std::uint64_t count_instances(const sap::CompiledProgram& program) {
  sap::ArrayRegistry registry;
  sap::materialize_arrays(program, registry);
  InstanceCounter counter;
  counter.execute(program, registry);
  return counter.count;
}

RunOutput capture(const sap::Machine& machine, const std::string& program) {
  RunOutput out;
  out.result = machine.snapshot(program);
  for (const auto& array : machine.arrays()) {
    ArraySnapshot snap;
    snap.name = array->name();
    const std::int64_t count = array->element_count();
    snap.values.assign(static_cast<std::size_t>(count), 0.0);
    snap.defined.assign(static_cast<std::size_t>(count), 0);
    for (std::int64_t i = 0; i < count; ++i) {
      if (array->is_defined(i)) {
        snap.defined[static_cast<std::size_t>(i)] = 1;
        snap.values[static_cast<std::size_t>(i)] = array->read(i);
      }
    }
    out.arrays.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::unique_ptr<sap::Machine>> fresh_machines(
    const std::vector<BenchProgram>& programs) {
  std::vector<std::unique_ptr<sap::Machine>> machines;
  machines.reserve(programs.size());
  for (const BenchProgram& p : programs) {
    auto machine = std::make_unique<sap::Machine>(paper_config());
    sap::materialize_arrays(p.compiled, *machine);
    machines.push_back(std::move(machine));
  }
  return machines;
}

AdviceOutput summarize_advice(const BenchProgram& program,
                              const sap::AdvisorReport& report) {
  AdviceOutput out;
  out.id = program.id;
  out.mixed = program.mixed;
  const sap::AdvisorCandidate& pick = report.best();
  const sap::AdvisorCandidate& baseline = *report.baseline();
  out.pick_remote = pick.measured_remote_reads;
  out.pick_fraction = pick.measured_remote_fraction;
  out.baseline_remote = baseline.measured_remote_reads;
  out.baseline_fraction = baseline.measured_remote_fraction;
  out.best_uniform_fraction = baseline.measured_remote_fraction;
  for (const sap::AdvisorCandidate& c : report.candidates) {
    if (c.validated && c.config.per_array.empty() &&
        c.measured_remote_fraction < out.best_uniform_fraction) {
      out.best_uniform_fraction = c.measured_remote_fraction;
    }
  }
  out.pick_result = sap::Simulator(pick.config)
                        .run(program.compiled, sap::ExecutionMode::kCounting);
  out.pick_resim = out.pick_result.totals.remote_reads;
  out.baseline_resim =
      sap::Simulator(baseline.config)
          .run(program.compiled, sap::ExecutionMode::kCounting)
          .totals.remote_reads;
  return out;
}

}  // namespace sapbench
