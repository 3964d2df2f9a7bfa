// bench_ledger command line, report serialization and order statistics.
//
//   bench_ledger --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                [--smoke] [--spans=FILE] [--scratch=DIR]
//
// Prints one JSON object (see Report::Json) as the last line of stdout and
// exits 0 when every correctness check passed, 1 when one failed, and 2 on a
// malformed command line or an armed fault injector. bench/ledger/run.py
// builds the binary and turns this output into the benchmark's result line.
#include "ledger.h"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace ledger {

namespace {

constexpr const char* kUsage =
    "usage: bench_ledger --workload=NAME [--seed=N] [--seconds=S] "
    "[--trace=0|1] [--smoke] [--spans=FILE] [--scratch=DIR]\n";

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParsePositive(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(v) || v <= 0) return false;
  *out = v;
  return true;
}

// Strict parser: every argument must be a known --flag, values must parse,
// and the workload must exist. Anything else is an error, never ignored.
bool ParseArgs(int argc, char** argv, Options* o, std::string* err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      *err = "unexpected argument '" + a + "'";
      return false;
    }
    size_t eq = a.find('=');
    std::string name = a.substr(2, eq == std::string::npos ? eq : eq - 2);
    bool has_value = eq != std::string::npos;
    std::string value = has_value ? a.substr(eq + 1) : "";
    if (name == "smoke") {
      if (has_value) {
        *err = "--smoke takes no value";
        return false;
      }
      o->smoke = true;
      continue;
    }
    if (!has_value) {
      *err = "--" + name + " needs a value (--" + name + "=...)";
      return false;
    }
    if (name == "workload") {
      const auto& names = WorkloadNames();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        *err = "unknown workload '" + value + "'";
        return false;
      }
      o->workload = value;
      have_workload = true;
    } else if (name == "seed") {
      if (!ParseU64(value, &o->seed)) {
        *err = "--seed wants a non-negative integer, got '" + value + "'";
        return false;
      }
    } else if (name == "seconds") {
      if (!ParsePositive(value, &o->seconds)) {
        *err = "--seconds wants a positive number, got '" + value + "'";
        return false;
      }
    } else if (name == "trace") {
      if (value != "0" && value != "1") {
        *err = "--trace wants 0 or 1, got '" + value + "'";
        return false;
      }
      o->trace = value == "1";
    } else if (name == "spans") {
      o->spans = value;
    } else if (name == "scratch") {
      o->scratch = value;
    } else {
      *err = "unknown flag '--" + name + "'";
      return false;
    }
  }
  if (!have_workload) {
    *err = "--workload is required";
    return false;
  }
  return true;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0;
  }
  rows_.push_back(Row{name, value, unit});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  failed_checks_.push_back(what);
  std::fprintf(stderr, "# CHECK FAILED: %s\n", what.c_str());
}

std::string Report::Json(const std::string& workload) const {
  std::string out = "{\"workload\":" + JsonString(workload) +
                    ",\"correct\":" + (correct_ ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"failed_checks\":[";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(failed_checks_[i]);
  }
  out += "],\"metrics\":{";
  for (size_t i = 0; i < rows_.size(); ++i) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.10g", rows_[i].value);
    if (i > 0) out += ",";
    out += JsonString(rows_[i].name) + ":{\"value\":" + num +
           ",\"unit\":" + JsonString(rows_[i].unit) + "}";
  }
  return out + "}}";
}

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx), v.end());
  return v[idx];
}

double Mean(const std::vector<uint64_t>& v) {
  if (v.empty()) return 0;
  long double sum = 0;
  for (uint64_t x : v) sum += x;
  return static_cast<double>(sum / v.size());
}

double WindowedPercentile(const std::vector<uint64_t>& lat_ns,
                          const std::vector<uint64_t>& at_ns, const Window& w,
                          int parts, double p) {
  std::vector<std::vector<uint64_t>> buckets(static_cast<size_t>(parts));
  const uint64_t span = w.m1 - w.m0;
  for (size_t i = 0; i < lat_ns.size(); ++i) {
    if (!w.Contains(at_ns[i])) continue;
    size_t b = static_cast<size_t>((at_ns[i] - w.m0) * parts / span);
    buckets[b].push_back(lat_ns[i]);
  }
  std::vector<double> per_part;
  for (auto& b : buckets) {
    if (!b.empty()) per_part.push_back(static_cast<double>(Percentile(b, p)));
  }
  if (per_part.empty()) return 0;
  std::sort(per_part.begin(), per_part.end());
  size_t n = per_part.size();
  return n % 2 == 1 ? per_part[n / 2]
                    : (per_part[n / 2 - 1] + per_part[n / 2]) / 2.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace ledger

int main(int argc, char** argv) {
  ledger::Options o;
  std::string err;
  if (!ledger::ParseArgs(argc, argv, &o, &err)) {
    std::fprintf(stderr, "bench_ledger: %s\n%s", err.c_str(), ledger::kUsage);
    return 2;
  }
  // A fault-armed run is not a baseline: refuse rather than publish it.
  if (const char* spec = std::getenv("PDB_FAULT"); spec != nullptr) {
    std::fprintf(stderr, "bench_ledger: PDB_FAULT is set ('%s'); unset it\n",
                 spec);
    return 2;
  }
  // 1 us of timer slack, inherited by every thread the run starts. With the
  // default 50 us, an idle worker's 50 us poll sleep lasts 50-100 us, and
  // which end it lands on changed from run to run: the HP dispatch-to-run
  // delay was ~45 us in some runs and ~105 us in others, moving wire p50s
  // by 13%. With 1 us it is ~37 us in every run.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  ledger::Report report;
  ledger::RunWorkload(o, &report);
  if (o.trace) ledger::RunPrimitives(o, &report);
  std::printf("%s\n", report.Json(o.workload).c_str());
  return report.correct() ? 0 : 1;
}
