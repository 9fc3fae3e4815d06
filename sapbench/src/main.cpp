// sapbench: the sap benchmark driver binary.  run.py builds it and calls
//
//   sapbench --workload <name> --seed <n> --seconds <s> [--trace-out <path>]
//   sapbench --self-test
//
// and turns its last output line (one JSON object) into the benchmark's
// result line.  See ../README.md for the workloads and metrics.
#include <sys/resource.h>

#include <cmath>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "support/error.hpp"

namespace {

using namespace sapbench;

// Taken during static initialization, before main: setup_s covers the
// whole cold start of the process up to the first pass's inputs.
const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sapbench: " << why
            << "\nusage: sapbench --workload <advise-joint|simulate-counting|"
               "simulate-dataflow> --seed <n> --seconds <s> "
               "[--trace-out <path>]\n       sapbench --self-test\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.self_test && args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string json_list(const std::vector<double>& values) {
  std::ostringstream out;
  out << std::setprecision(12) << '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << (i ? ", " : "") << values[i];
  }
  out << ']';
  return out.str();
}

void report_failures(const Failures& failures) {
  for (const std::string& f : failures) std::cerr << "CHECK FAILED " << f << '\n';
}

/// Untraced end-to-end run: passes until `seconds` have been measured.
/// The checks run last, so the copies they make stay out of peak_rss_mb.
int run_end_to_end(const Workload& w, const Pass& first, double setup_s,
                   double seconds) {
  constexpr int kMinPasses = 3;
  std::vector<double> walls;
  std::vector<double> cpus;
  bool deterministic = true;
  int passes = 0;
  const Clock::time_point start = Clock::now();
  while (passes < kMinPasses || seconds_since(start) < seconds) {
    const Pass pass = run_pass(w);
    deterministic = deterministic && same_outputs(w, first, pass);
    walls.push_back(pass.wall_s);
    cpus.push_back(pass.cpu_s);
    ++passes;
  }
  const double rss_mb = peak_rss_mb();
  Failures all = check_all(w, gather(w, first));
  if (!deterministic) {
    all.push_back("repeat: a later pass produced different outputs");
  }
  report_failures(all);
  const std::uint64_t attempted = (1 + passes) * w.programs.size();
  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": "
      << (all.empty() ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": 0, \"setup_s\": " << setup_s << ", \"run_s\": " << json_list(walls) << ", \"cpu_s\": "
      << json_list(cpus) << ", \"peak_rss_mb\": " << rss_mb
      << ", \"remote_reads\": " << remote_reads(first) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

// ---------------------------------------------------------------- self-test

/// One corruption: what it breaks and the check that must reject it.
struct Corruption {
  std::string check;
  std::string what;
  std::function<void(Outputs&)> apply;
};

void nudge(std::vector<ArraySnapshot>& arrays, const std::string& name) {
  for (ArraySnapshot& a : arrays) {
    if (a.name != name) continue;
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      if (a.defined[i] != 0) {
        a.values[i] = std::nextafter(a.values[i], 1e300);
        return;
      }
    }
  }
  throw sap::Error("self-test: no defined element in " + name);
}

std::vector<Corruption> corruptions(WorkloadKind kind) {
  std::vector<Corruption> out;
  out.push_back({"front-end", "reparsed result gains one remote read",
                 [](Outputs& o) { ++o.front_end.at(0).reparsed.totals.remote_reads; }});
  switch (kind) {
    case WorkloadKind::kSimulateCounting:
      // Program 0 is k18_hydro2d.
      out.push_back({"values", "one ZROUT element off by one ulp",
                     [](Outputs& o) { nudge(o.counting.at(0).arrays, "ZROUT"); }});
      out.push_back({"reads", "PE 0 reports one local read too many",
                     [](Outputs& o) {
                       ++o.counting.at(0).result.per_pe.at(0).local_reads;
                       ++o.counting.at(0).result.totals.local_reads;
                     }});
      out.push_back({"read-sum", "totals gain one remote read",
                     [](Outputs& o) { ++o.counting.at(0).result.totals.remote_reads; }});
      out.push_back({"writes", "one write moved from PE 0 to PE 1",
                     [](Outputs& o) {
                       --o.counting.at(0).result.per_pe.at(0).writes;
                       ++o.counting.at(0).result.per_pe.at(1).writes;
                     }});
      break;
    case WorkloadKind::kSimulateDataflow:
      out.push_back({"dataflow-identical", "sharded run sends one more message",
                     [](Outputs& o) { ++o.dataflow.at(0).sharded.result.network.messages; }});
      out.push_back({"dataflow-identical", "one sharded X element off by one ulp",
                     [](Outputs& o) { nudge(o.dataflow.at(0).sharded.arrays, "X"); }});
      out.push_back({"dataflow-values", "one counting-run X element off by one ulp",
                     [](Outputs& o) { nudge(o.dataflow.at(0).counting.arrays, "X"); }});
      break;
    case WorkloadKind::kAdviseJoint:
      out.push_back({"advice-resim", "pick reports one remote read too many",
                     [](Outputs& o) { ++o.advice.at(0).pick_remote; }});
      out.push_back({"advice-never-worse", "pick is worse than the baseline",
                     [](Outputs& o) {
                       AdviceOutput& a = o.advice.at(0);
                       a.pick_fraction = a.baseline_fraction + 0.01;
                     }});
      out.push_back({"advice-mixed-zero", "mixed synthetic pick keeps one remote read",
                     [](Outputs& o) {
                       AdviceOutput& a = o.advice.back();  // a mixed synthetic
                       ++a.pick_remote;
                       ++a.pick_resim;
                     }});
      break;
  }
  return out;
}

int run_self_test() {
  bool ok = true;
  for (const char* name :
       {"simulate-counting", "simulate-dataflow", "advise-joint"}) {
    const Workload w = make_workload(name, 1);
    const Pass first = run_pass(w);
    const Outputs clean = gather(w, first);
    const Failures baseline = check_all(w, clean);
    std::cout << name << ": clean outputs "
              << (baseline.empty() ? "pass" : "FAIL") << '\n';
    report_failures(baseline);
    ok = ok && baseline.empty();
    for (const Corruption& c : corruptions(w.kind)) {
      Outputs bad = clean;
      c.apply(bad);
      bool rejected = false;
      for (const std::string& f : check_all(w, bad)) {
        rejected = rejected || f.rfind(c.check + ":", 0) == 0;
      }
      std::cout << "  " << std::left << std::setw(20) << c.check
                << std::setw(46) << c.what
                << (rejected ? "rejected" : "NOT REJECTED") << '\n';
      ok = ok && rejected;
    }
  }
  std::cout << "self-test " << (ok ? "passed" : "FAILED") << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.self_test) return run_self_test();

    // Set-up: DSL text -> compiled programs -> the first pass's machines.
    Workload w = make_workload(args.workload, args.seed);
    std::vector<std::unique_ptr<sap::Machine>> machines;
    if (w.kind != WorkloadKind::kAdviseJoint) {
      machines = fresh_machines(w.programs);
    }
    const double setup_s = seconds_since(kProcessStart);

    // The first pass warms up and is the one the checks examine.
    const Pass first = run_pass(w, std::move(machines));
    if (args.trace_out.empty()) {
      return run_end_to_end(w, first, setup_s, args.seconds);
    }
    const Outputs outputs = gather(w, first);
    const Failures failures = check_all(w, outputs);
    report_failures(failures);
    for (BenchProgram& p : w.programs) {
      p.instances = count_instances(p.compiled);
    }
    measure_layers(w, first, outputs, args.seconds, args.trace_out,
                   failures.empty(), w.programs.size());
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "sapbench: " << e.what() << '\n';
    return 1;
  }
}
