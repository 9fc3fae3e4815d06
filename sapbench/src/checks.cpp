// Independent output checks.  Expectations come from plain C++ loops over
// the same synthetic_init_value inputs and from each kernel's shape, never
// from the simulator itself.
#include <algorithm>
#include <cctype>
#include <cstring>
#include <tuple>

#include "bench.hpp"
#include "support/error.hpp"

namespace sapbench {
namespace {

struct Expected {
  std::uint64_t total_reads = 0;
  std::vector<std::uint64_t> writes_per_pe;
  /// (array, linear, value) that the run must have written exactly.
  std::vector<std::tuple<std::string, std::int64_t, double>> values;
};

double init(const char* array, std::int64_t linear) {
  return sap::synthetic_init_value(array, linear);
}

class ExpectationBuilder {
 public:
  explicit ExpectationBuilder(const sap::MachineConfig& config)
      : page_(config.page_size), pes_(config.num_pes) {
    e.writes_per_pe.assign(pes_, 0);
  }
  /// One committed write of `linear` (the modulo owner executes it).
  void write(std::int64_t linear) {
    ++e.writes_per_pe[static_cast<std::size_t>((linear / page_) % pes_)];
  }
  void value(const char* array, std::int64_t linear, double v) {
    e.values.emplace_back(array, linear, v);
  }
  Expected e;

 private:
  std::int64_t page_;
  std::int64_t pes_;
};

// Row-major linear offset of (i, j) in a 1-based array with `cols` columns.
std::int64_t at2(std::int64_t i, std::int64_t j, std::int64_t cols) {
  return (i - 1) * cols + (j - 1);
}

void expect_k18(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  constexpr std::int64_t c = 7;
  const auto in = [&](const char* a, std::int64_t j, std::int64_t k) {
    return init(a, at2(j, k, c));
  };
  const std::int64_t rows = n + 1;
  std::vector<double> za(static_cast<std::size_t>(rows * c));
  std::vector<double> zb(za.size());
  std::vector<double> zu(za.size());
  std::vector<double> zv(za.size());
  const auto ix = [&](std::int64_t j, std::int64_t k) {
    return static_cast<std::size_t>(at2(j, k, c));
  };
  for (std::int64_t k = 2; k <= 6; ++k) {
    for (std::int64_t j = 2; j <= n; ++j) {
      za[ix(j, k)] = (in("ZP", j - 1, k + 1) + in("ZQ", j - 1, k) -
                      in("ZP", j - 1, k) - in("ZQ", j - 1, k)) *
                     (in("ZR", j, k) + in("ZR", j - 1, k)) /
                     (in("ZM", j - 1, k) + in("ZM", j - 1, k + 1));
      zb[ix(j, k)] = (in("ZP", j - 1, k) + in("ZQ", j - 1, k) -
                      in("ZP", j, k) - in("ZQ", j, k)) *
                     (in("ZR", j, k) + in("ZR", j, k - 1)) /
                     (in("ZM", j, k) + in("ZM", j - 1, k));
      b.write(at2(j, k, c));
      b.write(at2(j, k, c));
      b.value("ZA", at2(j, k, c), za[ix(j, k)]);
      b.value("ZB", at2(j, k, c), zb[ix(j, k)]);
    }
  }
  const double s = 0.5;
  const double t = 0.25;
  for (std::int64_t k = 2; k <= 5; ++k) {
    for (std::int64_t j = 3; j <= n - 1; ++j) {
      const auto update = [&](const char* base, const char* field) {
        const double f = in(field, j, k);
        return in(base, j, k) +
               s * (za[ix(j, k)] * (f - in(field, j + 1, k)) -
                    za[ix(j - 1, k)] * (f - in(field, j - 1, k)) -
                    zb[ix(j, k)] * (f - in(field, j, k - 1)) +
                    zb[ix(j, k + 1)] * (f - in(field, j, k + 1)));
      };
      zu[ix(j, k)] = update("ZU0", "ZZ");
      zv[ix(j, k)] = update("ZV0", "ZR");
      b.write(at2(j, k, c));
      b.write(at2(j, k, c));
      b.value("ZU", at2(j, k, c), zu[ix(j, k)]);
      b.value("ZV", at2(j, k, c), zv[ix(j, k)]);
    }
  }
  for (std::int64_t k = 2; k <= 5; ++k) {
    for (std::int64_t j = 3; j <= n - 1; ++j) {
      b.write(at2(j, k, c));
      b.write(at2(j, k, c));
      b.value("ZROUT", at2(j, k, c), in("ZR", j, k) + t * zu[ix(j, k)]);
      b.value("ZZOUT", at2(j, k, c), in("ZZ", j, k) + t * zv[ix(j, k)]);
    }
  }
  // 8 reads per ZA/ZB instance, 13 per ZU/ZV, 2 per ZROUT/ZZOUT.
  b.e.total_reads = static_cast<std::uint64_t>(5 * (n - 1) * 16 +
                                               4 * (n - 3) * (26 + 4));
}

void expect_k06(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  // Accumulation instances read B(K,I) and W(I-K); W(I) itself is the
  // reduction register, committed once per I.
  for (std::int64_t i = 2; i <= n; ++i) b.write(i - 1);
  b.e.total_reads = static_cast<std::uint64_t>(n * (n - 1));
}

void expect_k21(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t d = shape.n;
  for (std::int64_t j = 1; j <= d; ++j) {
    for (std::int64_t i = 1; i <= d; ++i) {
      double acc = 0.0;
      for (std::int64_t k = 1; k <= d; ++k) {
        acc = acc + init("VY", at2(i, k, d)) * init("CX", at2(k, j, d));
      }
      b.write(at2(i, j, d));
      b.value("PX", at2(i, j, d), acc);
    }
  }
  b.e.total_reads = static_cast<std::uint64_t>(2 * d * d * d);
}

void expect_k24(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  double xm = init("XM", 0);
  double loc = init("LOC", 0);
  std::uint64_t loc_reads = 0;
  for (std::int64_t k = 2; k <= n; ++k) {
    const double x = init("X", k - 1);
    const bool lower = x < xm;
    const double next_xm = std::min(x, xm);
    // SELECT is lazy: LOC(K-1) is read only when the new element is not
    // a new minimum.
    if (!lower) ++loc_reads;
    loc = lower ? static_cast<double>(k) : loc;
    xm = next_xm;
    b.write(k - 1);
    b.write(k - 1);
    b.value("XM", k - 1, xm);
    b.value("LOC", k - 1, loc);
  }
  b.e.total_reads = static_cast<std::uint64_t>(4 * (n - 1)) + loc_reads;
}

void expect_random(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  for (std::int64_t k = 1; k <= n; ++k) b.write(k - 1);
  b.e.total_reads = static_cast<std::uint64_t>(2 * n);  // P(K), B(P(K))
}

void expect_jacobi(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  const std::int64_t steps = shape.steps;
  for (std::int64_t t = 1; t <= steps; ++t) {
    for (std::int64_t i = 2; i <= n - 1; ++i) b.write(i - 1);  // NEXT
    b.write(0);
    b.write(n - 1);
    for (std::int64_t i = 2; i <= n - 1; ++i) b.write(i - 1);  // CUR
  }
  b.e.total_reads = static_cast<std::uint64_t>(steps * (4 * (n - 2) + 2));
}

void expect_k01(const Shape& shape, ExpectationBuilder& b) {
  const std::int64_t n = shape.n;
  for (std::int64_t k = 1; k <= n; ++k) {
    const double v =
        0.5 + init("Y", k - 1) * (0.25 * init("ZX", k + 9) +
                                  0.125 * init("ZX", k + 10));
    b.write(k - 1);
    b.value("X", k - 1, v);
  }
  b.e.total_reads = static_cast<std::uint64_t>(3 * n);
}

using ExpectFn = void (*)(const Shape&, ExpectationBuilder&);

/// The programs the checks have a reference for.
ExpectFn expectation_for(const std::string& id) {
  static const std::pair<const char*, ExpectFn> kTable[] = {
      {"k01_hydro", expect_k01},         {"k18_hydro2d", expect_k18},
      {"k06_glr", expect_k06},           {"k21_matmul", expect_k21},
      {"k24_first_min", expect_k24},     {"syn_random", expect_random},
      {"jacobi_reinit", expect_jacobi},
  };
  for (const auto& [name, fn] : kTable) {
    if (id == name) return fn;
  }
  return nullptr;
}

Expected expect(const BenchProgram& p) {
  ExpectationBuilder b(paper_config());
  const ExpectFn fn = expectation_for(p.id);
  if (fn == nullptr) throw sap::Error("no reference for program " + p.id);
  fn(p.shape, b);
  return std::move(b.e);
}

const ArraySnapshot* find_array(const std::vector<ArraySnapshot>& arrays,
                                const std::string& name) {
  for (const ArraySnapshot& a : arrays) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

bool has_reference(const std::string& id) {
  return expectation_for(id) != nullptr;
}

bool same_result(const sap::SimulationResult& a,
                 const sap::SimulationResult& b) {
  const auto cache = [](const sap::CacheStats& c) {
    return std::make_tuple(c.hits, c.misses, c.evictions, c.invalidations);
  };
  return a.program_name == b.program_name && a.num_pes == b.num_pes &&
         a.page_size == b.page_size && a.cache_elements == b.cache_elements &&
         a.per_pe == b.per_pe && a.totals == b.totals &&
         cache(a.cache_totals) == cache(b.cache_totals) &&
         a.network == b.network && a.max_link_load == b.max_link_load &&
         same_bits(a.contention_factor, b.contention_factor) &&
         a.reinit_messages == b.reinit_messages;
}

bool same_arrays(const std::vector<ArraySnapshot>& a,
                 const std::vector<ArraySnapshot>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].defined != b[i].defined ||
        a[i].values.size() != b[i].values.size() ||
        std::memcmp(a[i].values.data(), b[i].values.data(),
                    a[i].values.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

Failures check_counting(const BenchProgram& program, const RunOutput& out) {
  Failures failures;
  const Expected e = expect(program);
  const std::string& id = program.id;

  std::size_t bad_values = 0;
  for (const auto& [name, linear, value] : e.values) {
    const ArraySnapshot* a = find_array(out.arrays, name);
    const auto i = static_cast<std::size_t>(linear);
    if (a == nullptr || i >= a->values.size() || a->defined[i] == 0 ||
        !same_bits(a->values[i], value)) {
      ++bad_values;
    }
  }
  if (bad_values > 0) {
    failures.push_back("values: " + id + ": " + std::to_string(bad_values) +
                       " elements differ from the reference loop");
  }

  sap::AccessCounters sum;
  for (const sap::AccessCounters& pe : out.result.per_pe) sum += pe;
  if (sum.total_reads() != e.total_reads) {
    failures.push_back("reads: " + id + ": " +
                       std::to_string(sum.total_reads()) +
                       " reads, shape gives " + std::to_string(e.total_reads));
  }
  if (!(sum == out.result.totals)) {
    failures.push_back("read-sum: " + id +
                       ": per-PE local + cached + remote do not add up to "
                       "the totals");
  }
  std::vector<std::uint64_t> writes;
  for (const sap::AccessCounters& pe : out.result.per_pe) {
    writes.push_back(pe.writes);
  }
  if (writes != e.writes_per_pe) {
    failures.push_back("writes: " + id +
                       ": per-PE writes differ from the modulo owners of "
                       "the written elements");
  }
  return failures;
}

Failures check_dataflow(const std::string& id, const RunOutput& sharded,
                        const RunOutput& serial, const RunOutput& counting) {
  Failures failures;
  if (!same_result(sharded.result, serial.result) ||
      !same_arrays(sharded.arrays, serial.arrays)) {
    failures.push_back("dataflow-identical: " + id +
                       ": sharded run differs from run_dataflow_serial");
  }
  if (!same_arrays(sharded.arrays, counting.arrays)) {
    failures.push_back("dataflow-values: " + id +
                       ": dataflow values differ from the counting run");
  }
  return failures;
}

Failures check_advice(const AdviceOutput& a) {
  Failures failures;
  if (a.pick_resim != a.pick_remote || a.baseline_resim != a.baseline_remote) {
    failures.push_back("advice-resim: " + a.id +
                       ": re-simulation does not reproduce the reported "
                       "remote reads");
  }
  if (a.pick_fraction > a.baseline_fraction ||
      a.pick_fraction > a.best_uniform_fraction) {
    failures.push_back("advice-never-worse: " + a.id +
                       ": pick is worse than the baseline or the best "
                       "uniform candidate");
  }
  if (a.mixed && a.pick_remote != 0) {
    failures.push_back("advice-mixed-zero: " + a.id + ": pick leaves " +
                       std::to_string(a.pick_remote) + " remote reads");
  }
  return failures;
}

Failures check_front_end(const std::string& id,
                         const sap::SimulationResult& built,
                         const sap::SimulationResult& reparsed) {
  // Identifiers, the program name included, are case-insensitive: the
  // lexer upper-cases them.
  sap::SimulationResult renamed = built;
  std::transform(renamed.program_name.begin(), renamed.program_name.end(),
                 renamed.program_name.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  if (same_result(renamed, reparsed)) return {};
  return {"front-end: " + id +
          ": printed and reparsed program simulates differently (" +
          built.summary() + " | " + reparsed.summary() + ")"};
}

}  // namespace sapbench
