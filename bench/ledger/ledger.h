// bench_ledger: the repository's benchmark. One process runs one workload
// (README.md lists them and says why each exists) and reports its metrics:
// end-to-end ones from an untraced run, per-layer ones from a traced run.
//
// The ledger includes only src/ headers. It deliberately does not share
// code with the figure drivers in bench/, so editing a figure driver can
// never change what the ledger measures.
#ifndef PREEMPTDB_BENCH_LEDGER_LEDGER_H_
#define PREEMPTDB_BENCH_LEDGER_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "obs/timeline.h"

namespace preemptdb::engine {
class Engine;
class Table;
}  // namespace preemptdb::engine

namespace ledger {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // length of the measured window
  bool trace = false;   // traced run: per-layer metrics instead of end-to-end
  bool smoke = false;   // tiny tables and short phases (the ctest smoke run)
  std::string spans;    // per-request Chrome trace output ("" = not written)
  std::string scratch = ".";  // directory for on-disk state (durable logs)
};

// The measured window [m0, m1): requests are attributed to it by scheduled
// arrival (latency) or by completion time (throughput).
struct Window {
  uint64_t m0 = 0;
  uint64_t m1 = 0;
  bool Contains(uint64_t t) const { return t >= m0 && t < m1; }
  double seconds() const { return static_cast<double>(m1 - m0) / 1e9; }
};

enum class Outcome : uint8_t { kPending = 0, kOk, kFailed };

// One generated request, from its scheduled arrival to its completion.
// Written by the generating thread, then by the completing thread (a worker,
// possibly inside the preemptive context, or a socket receiver); read only
// after both are joined. An aggregate whose all-zero bytes are its initial
// state, so a calloc'd array of them needs no constructor pass.
struct Sample {
  uint64_t arrival_ns;  // scheduled arrival: the latency origin
  uint64_t issued_ns;   // when the generator actually issued it
  uint64_t done_ns;     // completion as the client saw it
  uint64_t server_ns;   // wire: server-side total carried by the response
  preemptdb::obs::TxnTimeline tl;  // layer stamps (traced runs)
  uint8_t hp;
  Outcome outcome;
};

// Fixed-capacity sample store. Add() is one atomic RMW and never allocates,
// so it is safe from the preemptive context (a signal-handler frame). The
// array is calloc'd: pages no request touches never count toward RSS.
class SampleLog {
 public:
  explicit SampleLog(size_t capacity)
      : samples_(static_cast<Sample*>(std::calloc(capacity, sizeof(Sample)))),
        capacity_(capacity) {
    if (samples_ == nullptr) std::abort();
  }

  // Index of a fresh zeroed sample, or -1 when the log is full.
  int64_t Add() {
    uint64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < capacity_ ? static_cast<int64_t>(i) : -1;
  }
  Sample& at(size_t i) { return samples_.get()[i]; }
  const Sample& at(size_t i) const { return samples_.get()[i]; }
  size_t size() const {
    uint64_t n = next_.load(std::memory_order_relaxed);
    return n < capacity_ ? n : capacity_;
  }
  uint64_t overflow() const {
    uint64_t n = next_.load(std::memory_order_relaxed);
    return n > capacity_ ? n - capacity_ : 0;
  }

 private:
  struct Free {
    void operator()(Sample* p) const { std::free(p); }
  };
  std::unique_ptr<Sample, Free> samples_;
  size_t capacity_;
  std::atomic<uint64_t> next_{0};
};

// Per-class request accounting shared by every workload. `issued` and
// `failed` count requests whose scheduled arrival falls in the window;
// `completed` counts successful completions inside the window (throughput).
struct ClassCounters {
  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> completed{0};
};

// Metrics and correctness verdicts of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Records a correctness check; any failed check makes the run incorrect.
  void Check(bool ok, const std::string& what);
  bool correct() const { return correct_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // {"workload":..,"correct":..,"attempted":..,"failed":..,
  //  "failed_checks":[..],
  //  "metrics":{name:{"value":v,"unit":u}}}
  std::string Json(const std::string& workload) const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
  std::vector<std::string> failed_checks_;
  bool correct_ = true;
};

// --- Order statistics (exact, over raw nanosecond samples) ---

// Nearest-rank percentile, p in (0, 100]; 0 for an empty input.
uint64_t Percentile(std::vector<uint64_t> v, double p);
double Mean(const std::vector<uint64_t>& v);
// The p-th percentile of each of `parts` equal sub-windows of `w` (samples
// attributed by `at_ns`), then the median of those: one noisy burst moves
// one sub-window, not the reported tail.
double WindowedPercentile(const std::vector<uint64_t>& lat_ns,
                          const std::vector<uint64_t>& at_ns, const Window& w,
                          int parts, double p);

// Peak resident set size of this process in MiB.
double PeakRssMb();

// Creates table `name` holding keys 1..rows with `value_bytes`-byte values,
// committing every 2000 inserts.
preemptdb::engine::Table* LoadTable(preemptdb::engine::Engine* e,
                                    const char* name, uint64_t rows,
                                    size_t value_bytes);

// --- Entry points ---

// Runs `o.workload` and fills `r`: end-to-end metrics (untraced) or
// per-layer metrics (traced), plus correctness checks. `o.workload` must be
// one of WorkloadNames().
void RunWorkload(const Options& o, Report* r);
const std::vector<std::string>& WorkloadNames();

// Isolated loops over single layers' public functions (traced runs only).
void RunPrimitives(const Options& o, Report* r);

}  // namespace ledger

#endif  // PREEMPTDB_BENCH_LEDGER_LEDGER_H_
