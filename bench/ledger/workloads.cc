// The ledger's four workloads and the harness that runs one of them:
// set-up (several times; setup_s is the median), warm-up, the measured
// window, drain, correctness checks, then the metrics.
//
//   paper_mix     in process, sched::Scheduler directly: the paper's Fig. 10
//   wire_mixed    loopback TCP to an in-process net::Server, in-cache KV
//   lp_bigtable   in process, StepFn interleaving over an out-of-cache table
//   wire_durable  wire_mixed's server on a redo-logged engine, write-heavy
//
// README.md says why each exists and which layers it loads.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "ledger.h"
#include "core/preemptdb.h"
#include "engine/engine.h"
#include "engine/transaction.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "sched/scheduler.h"
#include "uintr/uintr.h"
#include "util/clock.h"
#include "util/random.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace ledger {
namespace {

using namespace preemptdb;

constexpr int kWorkers = 2;
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 1.0;
constexpr uint64_t kDrainTimeoutNs = 20'000'000'000ull;
constexpr size_t kMaxSpans = 200'000;
// Request params slots the ledger owns (TPC-C uses [0,1], Q2 [0,2]).
constexpr int kParamArrival = 4;  // scheduled arrival of a requeued request
constexpr int kParamSample = 5;   // sample index + 1 (0 = not sampled)

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return FastRandom(seed * 0x9e3779b97f4a7c15ull + stream).Next();
}

void SleepUntil(uint64_t t_ns) {
  for (;;) {
    uint64_t now = MonoNanos();
    if (now >= t_ns) return;
    uint64_t delta = t_ns - now;
    if (delta > 200'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delta - 100'000));
    } else if (delta > 2'000) {
      std::this_thread::yield();
    } else {
      CpuPause();
    }
  }
}

uint64_t CounterValue(const char* name) {
  for (int i = 0; i < obs::NumCounters(); ++i) {
    const obs::Counter* c = obs::CounterAt(i);
    if (std::strcmp(c->name(), name) == 0) return c->Value();
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
double Us(double ns) { return ns / 1e3; }

// Scheduler, uintr and engine counters read around the measured run.
struct Counters {
  uint64_t uipis = 0;
  uint64_t hp_shed = 0;
  uint64_t hp_placed = 0;
  uint64_t received = 0;
  uint64_t dropped = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
};

Counters ReadCounters(sched::Scheduler& s, engine::Engine& e) {
  Counters c;
  c.uipis = s.uipis_sent();
  c.hp_shed = s.hp_dropped();
  c.hp_placed = s.hp_admitted();
  for (int i = 0; i < s.num_workers(); ++i) {
    const uintr::Receiver* r = s.worker(i).receiver();
    if (r == nullptr) continue;
    const uintr::ReceiverStats& st = uintr::StatsOf(r);
    c.received += st.received.load();
    c.dropped += st.dropped_in_switch.load() + st.dropped_in_preempt.load() +
                 st.dropped_disabled.load() + st.dropped_npreempt.load();
  }
  c.commits = e.commits.load();
  c.aborts = e.aborts.load();
  return c;
}

// Resubmission of a transaction that lost a write conflict: up to
// kMaxAttempts runs, with a pause of 1 us doubling to 64 us in between. The
// pause spins (no syscalls): HP work runs in a signal-handler frame.
constexpr int kMaxAttempts = 256;

void RetryPause(int attempt) {
  uint64_t until = MonoNanos() + (1000ull << std::min(attempt, 6));
  while (MonoNanos() < until) CpuPause();
}

sched::SchedulerConfig PaperConfig() {
  sched::SchedulerConfig cfg;
  cfg.policy = sched::Policy::kPreempt;
  cfg.num_workers = kWorkers;
  cfg.lp_queue_capacity = 1;  // paper §6.1 defaults
  cfg.hp_queue_capacity = 4;
  cfg.arrival_interval_us = 1000;
  cfg.yield_interval_records = 10000;
  cfg.tunables.starvation_enabled = false;
  return cfg;
}

// ---------------------------------------------------------------------------
// Workload base: request accounting shared by all four.
// ---------------------------------------------------------------------------

class Workload {
 public:
  Workload(const Options& o, size_t sample_capacity)
      : o_(o), log_(sample_capacity) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Once per run, untimed, before any set-up: on-disk state every set-up
  // starts from. Leaves no thread running (set-ups are forked after it).
  virtual void Prepare() {}
  // Builds tables, opens the DB, starts servers, preloads (timed).
  virtual void Setup() = 0;
  // Drives load from now until w.m1, waits until every issued request
  // finished, reads counters into before_/after_, and stops the load.
  virtual void Run(const Window& w) = 0;
  virtual void Check(Report* r) = 0;
  // Rows only this workload has (written to the detail output).
  virtual void LayerRows(Report* r) { (void)r; }

  const SampleLog& log() const { return log_; }
  const ClassCounters& counters(bool hp) const { return cls_[hp ? 1 : 0]; }
  const std::vector<uint64_t>& lateness() const { return late_ns_; }
  const Counters& before() const { return before_; }
  const Counters& after() const { return after_; }
  uint64_t lost() const {
    return issued_all_.load() - finished_all_.load(std::memory_order_acquire);
  }

 protected:
  // Accounts one generated request; returns its sample index, or -1 when
  // it is not sampled (or the log is full — Check() reports that).
  int64_t Issue(bool hp, uint64_t arrival_ns, bool sampled = true) {
    issued_all_.fetch_add(1, std::memory_order_relaxed);
    if (w_.Contains(arrival_ns)) cls_[hp].issued.fetch_add(1);
    if (!sampled) return -1;
    int64_t i = log_.Add();
    if (i < 0) return -1;
    Sample& s = log_.at(static_cast<size_t>(i));
    s.hp = hp;
    s.arrival_ns = arrival_ns;
    s.issued_ns = MonoNanos();
    s.tl.high_priority = hp;
    return i;
  }

  // Accounts one finished request. Runs on workers (also inside the
  // preemptive context) and socket receivers: atomics and stores only.
  void Finish(int64_t idx, bool hp, uint64_t arrival_ns, uint64_t done_ns,
              bool ok) {
    if (w_.Contains(arrival_ns) && !ok) cls_[hp].failed.fetch_add(1);
    if (ok && w_.Contains(done_ns)) cls_[hp].completed.fetch_add(1);
    if (idx >= 0) {
      Sample& s = log_.at(static_cast<size_t>(idx));
      s.arrival_ns = arrival_ns;
      s.done_ns = done_ns;
      if (s.tl.first_run_ns != 0 && s.tl.done_ns == 0) s.tl.done_ns = done_ns;
      s.outcome = ok ? Outcome::kOk : Outcome::kFailed;
    }
    finished_all_.fetch_add(1, std::memory_order_release);
  }

  // In-process request helpers: the sample index rides in the request.
  void Tag(sched::Request* r, bool hp, bool sampled = true) {
    int64_t i = Issue(hp, MonoNanos(), sampled);
    r->params[kParamSample] = static_cast<uint64_t>(i + 1);
    if (i >= 0 && o_.trace) r->timeline = &log_.at(static_cast<size_t>(i)).tl;
  }
  void FinishRequest(const sched::Request& r, uint64_t done_ns, bool ok) {
    uint64_t arrival =
        r.params[kParamArrival] != 0 ? r.params[kParamArrival] : r.gen_ns;
    Finish(static_cast<int64_t>(r.params[kParamSample]) - 1,
           r.priority == sched::Priority::kHigh, arrival, done_ns, ok);
  }

  // Blocks until every issued request finished (or the drain timeout).
  void WaitDrained() const {
    uint64_t deadline = MonoNanos() + kDrainTimeoutNs;
    while (finished_all_.load(std::memory_order_acquire) !=
               issued_all_.load(std::memory_order_acquire) &&
           MonoNanos() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const Options o_;
  Window w_;
  SampleLog log_;
  ClassCounters cls_[2];  // [0] = LP, [1] = HP
  std::atomic<uint64_t> issued_all_{0};
  std::atomic<uint64_t> finished_all_{0};
  std::vector<uint64_t> late_ns_;  // generator lateness, one per arrival
  Counters before_, after_;
};

// ---------------------------------------------------------------------------
// paper_mix: TPC-C NewOrder+Payment (HP, 4 per 1 ms tick) against TPC-H Q2
// (LP, closed loop, every LP queue kept full), Preempt policy, 2 workers.
// ---------------------------------------------------------------------------

// HP arrivals per tick. The paper's rule (workers x HP queue = 8) puts the
// HP median on the one-tick step here: about half the requests wait for a
// re-sent interrupt, and the median jumps between ~0.5 and ~1.0 ms from run
// to run. At 4 per tick it sits inside one step.
constexpr size_t kPaperHpPerTick = 4;

class PaperMix : public Workload {
 public:
  explicit PaperMix(const Options& o)
      : Workload(o, static_cast<size_t>((o.seconds + 5) * 12000)),
        hp_rng_(StreamSeed(o.seed, 1)),
        lp_rng_(StreamSeed(o.seed, 2)) {}

  ~PaperMix() override {
    if (sched_ != nullptr) sched_->Stop();
    engine_.StopBackgroundGc();
  }

  void Setup() override {
    workload::TpccConfig tc;
    tc.warehouses = 2;
    tc.items = o_.smoke ? 1000 : 10000;
    tc.customers_per_district = o_.smoke ? 60 : 600;
    tc.initial_orders_per_district = tc.customers_per_district;
    workload::TpchConfig hc;
    hc.parts = o_.smoke ? 500 : 6000;
    hc.suppliers = std::max(100, hc.parts / 20);
    tpcc_ = std::make_unique<workload::TpccWorkload>(&engine_, tc);
    tpch_ = std::make_unique<workload::TpchWorkload>(&engine_, hc);
    tpcc_->Load();
    tpch_->Load();
    engine_.StartBackgroundGc(50);
  }

  void Run(const Window& w) override {
    w_ = w;
    sched::Scheduler::Workload wl;
    wl.execute = &PaperMix::Execute;
    wl.exec_ctx = this;
    wl.gen_low = [this](sched::Request* out) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      *out = tpch_->GenQ2(lp_rng_);
      Tag(out, /*hp=*/false);
      return true;
    };
    wl.gen_high = [this](sched::Request* out) {
      // Shed requests come back first, with their original arrival stamp.
      if (!backlog_.empty()) {
        *out = backlog_.front();
        backlog_.pop_front();
        return true;
      }
      if (stop_.load(std::memory_order_relaxed)) return false;
      NoteTick();
      *out = tpcc_->GenHighPriority(hp_rng_);
      Tag(out, /*hp=*/true);
      return true;
    };
    wl.on_shed = [this](const sched::Request& r) {
      sched::Request again = r;
      if (again.params[kParamArrival] == 0) {
        again.params[kParamArrival] = r.gen_ns;
      }
      backlog_.push_back(again);
    };
    sched::SchedulerConfig cfg = PaperConfig();
    cfg.tunables.hp_batch_size = kPaperHpPerTick;
    sched_ = std::make_unique<sched::Scheduler>(cfg, std::move(wl));
    sched_->Start();
    before_ = ReadCounters(*sched_, engine_);
    SleepUntil(w.m1);
    stop_.store(true);
    WaitDrained();
    after_ = ReadCounters(*sched_, engine_);
    sched_->Stop();
  }

  void Check(Report* r) override {
    // TPC-C consistency conditions (aborts the process on a violation).
    r->Check(tpcc_->CheckConsistency() > 0, "paper_mix: TPC-C consistency");
  }

 private:
  static Rc Execute(const sched::Request& req, void* ctx, int worker_id) {
    auto* self = static_cast<PaperMix*>(ctx);
    if (req.type == workload::TpchWorkload::kQ2) {
      Rc rc = self->tpch_->Execute(req, worker_id);
      self->FinishRequest(req, MonoNanos(), IsOk(rc));
      return rc;
    }
    // TpccWorkload::Execute retries a conflict back to back, which loses to
    // a conflicting transaction still running on the other worker (two
    // warehouse rows take every Payment). Resubmit after a pause, as a
    // TPC-C terminal must; the retries count in the request's latency.
    Rc rc = Rc::kError;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      rc = self->tpcc_->Execute(req, worker_id);
      if (!IsRetryableAbort(rc)) break;
      RetryPause(attempt);
    }
    // NewOrder's spec-mandated 1% rollback (TPC-C 2.4.1.4) is a correct
    // outcome, not a failure.
    self->FinishRequest(req, MonoNanos(), IsOk(rc) || rc == Rc::kAbortUser);
    return rc;
  }

  // Generator lateness: how far each scheduler tick overran the 1 ms
  // arrival interval (the scheduler generates HP arrivals at its ticks).
  void NoteTick() {
    uint64_t now = MonoNanos();
    if (now - last_gen_ns_ > 500'000) {
      if (last_gen_ns_ != 0 && w_.Contains(now)) {
        uint64_t gap = now - last_gen_ns_;
        late_ns_.push_back(gap > 1'000'000 ? gap - 1'000'000 : 0);
      }
      last_gen_ns_ = now;
    }
  }

  engine::Engine engine_;
  std::unique_ptr<workload::TpccWorkload> tpcc_;
  std::unique_ptr<workload::TpchWorkload> tpch_;
  std::unique_ptr<sched::Scheduler> sched_;
  FastRandom hp_rng_;
  FastRandom lp_rng_;
  std::deque<sched::Request> backlog_;  // scheduling thread only
  uint64_t last_gen_ns_ = 0;            // scheduling thread only
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------------------
// lp_bigtable: StepFn interleaving at depth 4 over a table larger than the
// last-level cache. LP (closed loop, saturating): 8 reads + 4
// read-modify-writes. HP (open loop, 2000/s): 3 reads + 1 write.
// ---------------------------------------------------------------------------

constexpr size_t kBigValueBytes = 120;
constexpr int kBigLpReads = 8;
constexpr int kBigLpWrites = 4;
constexpr int kBigHpReads = 3;
constexpr uint64_t kBigLpSampleEvery = 16;  // LP latency sampling stride

class LpBigtable : public Workload {
 public:
  explicit LpBigtable(const Options& o)
      : Workload(o, static_cast<size_t>((o.seconds + 5) * 40000)),
        rows_(o.smoke ? 20'000 : 2'000'000),
        hp_rng_(StreamSeed(o.seed, 3)),
        lp_rng_(StreamSeed(o.seed, 4)) {}

  ~LpBigtable() override {
    if (sched_ != nullptr) sched_->Stop();
    engine_.StopBackgroundGc();
  }

  void Setup() override {
    table_ = LoadTable(&engine_, "big", rows_, kBigValueBytes);
    engine_.StartBackgroundGc(50);
  }

  void Run(const Window& w) override {
    w_ = w;
    sched::SchedulerConfig cfg = PaperConfig();
    cfg.tunables.interleave_slots = 4;
    // Saturating LP: a deep LP queue refilled every 200 us keeps all four
    // slots busy (the 1-deep paper queue would leave the dispatcher idle).
    cfg.lp_queue_capacity = 256;
    cfg.arrival_interval_us = 200;
    sched::Scheduler::Workload wl;
    wl.step = &LpBigtable::Step;
    wl.exec_ctx = this;
    wl.gen_low = [this](sched::Request* out) {
      if (stop_.load(std::memory_order_relaxed)) return false;
      sched::Request r;
      r.type = 6;
      r.params[0] = lp_rng_.Next();
      Tag(&r, /*hp=*/false, lp_seq_++ % kBigLpSampleEvery == 0);
      lp_issued_.fetch_add(1, std::memory_order_relaxed);
      *out = r;
      return true;
    };
    next_hp_ns_ = MonoNanos();
    wl.gen_high = [this](sched::Request* out) { return GenHigh(out); };
    wl.on_shed = [this](const sched::Request& r) { backlog_.push_back(r); };
    sched_ = std::make_unique<sched::Scheduler>(cfg, std::move(wl));
    ilv_before_ = ReadInterleave();
    sched_->Start();
    before_ = ReadCounters(*sched_, engine_);
    SleepUntil(w.m1);
    stop_.store(true);
    WaitDrained();
    after_ = ReadCounters(*sched_, engine_);
    sched_->Stop();
    ilv_after_ = ReadInterleave();
  }

  void Check(Report* r) override {
    uint64_t issued = lp_issued_.load();
    uint64_t ended = lp_committed_.load() + lp_gave_up_.load();
    r->Check(issued == ended,
             "lp_bigtable: committed + aborted (" + std::to_string(ended) +
                 ") != LP transactions issued (" + std::to_string(issued) +
                 ")");
  }

  void LayerRows(Report* r) override {
    double steps = static_cast<double>(ilv_after_.steps - ilv_before_.steps);
    double txns = static_cast<double>(ilv_after_.txns - ilv_before_.txns);
    double pf =
        static_cast<double>(ilv_after_.prefetch - ilv_before_.prefetch);
    r->Add("sched.interleave.steps_per_txn", Ratio(steps, txns), "count");
    r->Add("sched.interleave.prefetch_per_step", Ratio(pf, steps), "count");
  }

 private:
  struct Interleave {
    uint64_t steps = 0, txns = 0, prefetch = 0;
  };
  static Interleave ReadInterleave() {
    return Interleave{CounterValue("sched.interleave.steps"),
                      CounterValue("sched.interleave.txns"),
                      CounterValue("sched.interleave.prefetch_issued")};
  }

  // State of one in-flight LP transaction, lent to its slot through
  // StepContext::ptr[0]; slots run concurrently in one context, so each
  // owns its Transaction object (Engine::BeginOn).
  struct LpState {
    engine::Transaction txn;
    engine::Transaction::ReadHandle h;
    FastRandom rng{1};
    uint64_t seed = 0;
    int idx = 0;
    int attempts = 0;
  };

  // LpStates are recycled per worker and freed only with the workload: a
  // reader on the other worker that met this transaction's in-flight write
  // may still read its Transaction object after it commits (as with the
  // engine's own per-context Transaction objects, which Begin() reuses).
  struct LpPool {
    std::vector<std::unique_ptr<LpState>> all;
    std::vector<LpState*> free;
  };
  LpState* AcquireLp(int worker) {
    LpPool& pool = lp_pools_[static_cast<size_t>(worker)];
    if (pool.free.empty()) {
      pool.all.push_back(std::make_unique<LpState>());
      return pool.all.back().get();
    }
    LpState* st = pool.free.back();
    pool.free.pop_back();
    return st;
  }

  // Reads touch the whole table. Writes are split: LP read-modify-writes
  // take the lower half, HP writes the upper half, so an HP transaction
  // never conflicts with the LP transaction it preempted (which cannot
  // commit or abort until the HP transaction returns).
  uint64_t ReadKey(FastRandom* rng) const { return 1 + rng->Next() % rows_; }
  uint64_t LpWriteKey(FastRandom* rng) const {
    return 1 + rng->Next() % (rows_ / 2);
  }
  uint64_t HpWriteKey(FastRandom* rng) const {
    return rows_ / 2 + 1 + rng->Next() % (rows_ - rows_ / 2);
  }
  uint64_t LpKey(LpState* st) const {
    return st->idx < kBigLpReads ? ReadKey(&st->rng) : LpWriteKey(&st->rng);
  }

  // Open-loop HP arrivals: every arrival that is due joins the FIFO
  // backlog with its scheduled stamp (so generator lateness is only the
  // tick granularity), shed requests rejoin it, and the scheduler takes
  // from its front.
  bool GenHigh(sched::Request* out) {
    const uint64_t now = MonoNanos();
    while (!stop_.load(std::memory_order_relaxed) && next_hp_ns_ <= now) {
      sched::Request r;
      r.type = 6;
      r.params[0] = hp_rng_.Next();
      r.params[kParamArrival] = next_hp_ns_;
      Tag(&r, /*hp=*/true);
      if (w_.Contains(next_hp_ns_)) late_ns_.push_back(now - next_hp_ns_);
      backlog_.push_back(r);
      next_hp_ns_ += o_.smoke ? 1'000'000 : 500'000;
    }
    if (backlog_.empty()) return false;
    *out = backlog_.front();
    backlog_.pop_front();
    return true;
  }

  Rc RunHp(const sched::Request& req) {
    Rc rc = Rc::kError;
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      FastRandom rng(req.params[0] | 1);
      engine::Transaction* txn = engine_.Begin();
      rc = Rc::kOk;
      for (int i = 0; i < kBigHpReads && IsOk(rc); ++i) {
        Slice out;
        rc = txn->Read(table_, ReadKey(&rng), &out);
      }
      if (IsOk(rc)) {
        char buf[kBigValueBytes];
        std::memset(buf, 'h', sizeof(buf));
        rc = txn->Update(table_, HpWriteKey(&rng),
                         std::string_view(buf, sizeof(buf)));
      }
      if (IsOk(rc)) {
        rc = txn->Commit();
      } else {
        txn->Abort();
      }
      if (!IsRetryableAbort(rc)) break;
      RetryPause(attempt);
    }
    return rc;
  }

  // (Re)starts an LP transaction on its slot: same seed, same keys.
  void BeginLp(LpState* st) {
    st->rng = FastRandom(st->seed);
    st->idx = 0;
    ++st->attempts;
    engine_.BeginOn(&st->txn);
    st->txn.PrepareRead(table_, LpKey(st), &st->h);
  }

  sched::StepResult EndLp(const sched::Request& req, int worker,
                          sched::StepContext* sc, LpState* st, Rc rc) {
    (IsOk(rc) ? lp_committed_ : lp_gave_up_).fetch_add(1);
    lp_pools_[static_cast<size_t>(worker)].free.push_back(st);
    sc->ptr[0] = nullptr;
    FinishRequest(req, MonoNanos(), IsOk(rc));
    return {sched::StepStatus::kDone, rc};
  }

  // Per point access: PrepareRead [yield] -> PrefetchVisible [yield] ->
  // FinishRead / FinishUpdate. Aborted attempts restart on the same slot.
  static sched::StepResult Step(const sched::Request& req, void* ctx,
                                int worker_id, sched::StepContext* sc) {
    auto* self = static_cast<LpBigtable*>(ctx);
    if (req.priority == sched::Priority::kHigh) {
      Rc rc = self->RunHp(req);
      self->FinishRequest(req, MonoNanos(), IsOk(rc));
      return {sched::StepStatus::kDone, rc};
    }
    auto* st = static_cast<LpState*>(sc->ptr[0]);
    switch (sc->stage) {
      case 0:
        st = self->AcquireLp(worker_id);
        st->seed = req.params[0] | 1;
        st->attempts = 0;
        sc->ptr[0] = st;
        self->BeginLp(st);
        sc->stage = 1;
        return {sched::StepStatus::kYieldedStall, Rc::kOk};
      case 1:
        st->txn.PrefetchVisible(&st->h);
        sc->stage = 2;
        return {sched::StepStatus::kYieldedStall, Rc::kOk};
      default:
        break;
    }
    Rc rc;
    if (st->idx >= kBigLpReads) {
      char buf[kBigValueBytes];
      std::memset(buf, 'l', sizeof(buf));
      rc = st->txn.FinishUpdate(&st->h, std::string_view(buf, sizeof(buf)));
    } else {
      Slice out;
      rc = st->txn.FinishRead(&st->h, &out);
    }
    sc->prefetches += st->h.prefetches;
    if (IsOk(rc) && ++st->idx >= kBigLpReads + kBigLpWrites) {
      rc = st->txn.Commit();
      if (IsOk(rc) || !IsRetryableAbort(rc) ||
          st->attempts >= kMaxAttempts) {
        return self->EndLp(req, worker_id, sc, st, rc);
      }
    } else if (IsOk(rc)) {
      st->txn.PrepareRead(self->table_, self->LpKey(st), &st->h);
      sc->stage = 1;
      return {sched::StepStatus::kYieldedStall, Rc::kOk};
    } else {
      st->txn.Abort();
      if (!IsRetryableAbort(rc) || st->attempts >= kMaxAttempts) {
        return self->EndLp(req, worker_id, sc, st, rc);
      }
    }
    self->BeginLp(st);  // retryable abort: run the same transaction again
    sc->stage = 1;
    return {sched::StepStatus::kYieldedStall, Rc::kOk};
  }

  const uint64_t rows_;
  engine::Engine engine_;
  engine::Table* table_ = nullptr;
  std::unique_ptr<sched::Scheduler> sched_;
  FastRandom hp_rng_;
  FastRandom lp_rng_;
  std::deque<sched::Request> backlog_;  // scheduling thread only
  uint64_t next_hp_ns_ = 0;             // scheduling thread only
  uint64_t lp_seq_ = 0;                 // scheduling thread only
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> lp_issued_{0};
  std::atomic<uint64_t> lp_committed_{0};
  std::atomic<uint64_t> lp_gave_up_{0};
  Interleave ilv_before_, ilv_after_;
  LpPool lp_pools_[kWorkers];  // each touched only by its worker
};

// ---------------------------------------------------------------------------
// wire_mixed / wire_durable: open-loop Poisson traffic over two loopback
// connections to an in-process net::Server (1 shard, 2 workers, Preempt).
// ---------------------------------------------------------------------------

struct WireShape {
  uint64_t keys;
  size_t value_bytes;
  double hp_frac;
  double put_frac;  // of HP requests; the rest are GETs
  uint64_t scan_span;
  double rate;      // requests per second over both connections
  bool durable;
};

constexpr WireShape kWireMixed{10'000, 64, 0.80, 0.10, 2000, 2000, false};
constexpr WireShape kWireDurable{100'000, 128, 0.85, 0.50, 500, 2000, true};
constexpr int kConns = 2;
constexpr int kMaxPutAttempts = 8;

enum class Kind : uint8_t { kGet, kPut, kScan };

// Values carry their key and a write sequence number, so a read (and the
// post-restart durability check) can tell which write it sees.
std::string EncodeValue(uint64_t key, uint64_t seq, size_t bytes) {
  std::string v(bytes, 'v');
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &seq, 8);
  return v;
}

void DecodeValue(std::string_view v, uint64_t* key, uint64_t* seq) {
  *key = 0;
  *seq = 0;
  if (v.size() < 16) return;
  std::memcpy(key, v.data(), 8);
  std::memcpy(seq, v.data() + 8, 8);
}

struct PutRecord {
  uint64_t key;
  uint64_t seq;
  uint64_t send_ns;  // send of the attempt that got the final answer
  uint64_t ack_ns;
  bool ok;
};

class Wire : public Workload {
 public:
  Wire(const Options& o, const WireShape& shape)
      : Workload(o, static_cast<size_t>((o.seconds + 5) * shape.rate * 1.5)),
        shape_(shape),
        keys_(o.smoke ? std::min<uint64_t>(shape.keys, 5000) : shape.keys) {}

  ~Wire() override { Teardown(); }

  // wire_durable's set-up opens and recovers a log directory that Prepare
  // fills once per run: preload, then a checkpoint. Writing the 13 MB
  // preload inside the timed set-up made set-up time follow the shared disk
  // (+54% between two sets of runs); reading it back in recovery does not.
  void Prepare() override {
    if (!shape_.durable) return;
    DB::Options dbo;
    dbo.start_scheduler = false;
    dbo.gc_interval_ms = 0;
    dbo.log_dir = LogDir();
    std::unique_ptr<DB> db = DB::Open(dbo);
    db->engine().log_manager().set_sync_mode(
        engine::LogManager::SyncMode::kNone);
    Preload(db.get(), db->CreateTable(net::Server::Options().kv_table));
    PDB_CHECK_MSG(db->engine().WriteCheckpointNow(), "checkpoint failed");
  }

  void Setup() override {
    DB::Options dbo;
    dbo.scheduler.policy = sched::Policy::kPreempt;
    dbo.scheduler.num_workers = kWorkers;
    if (shape_.durable) dbo.log_dir = LogDir();
    db_ = DB::Open(dbo);
    if (shape_.durable) {
      // Commits write() their redo but skip fdatasync: on the shared disk
      // the benchmark runs on, fdatasync latency came from the neighbours
      // (HP p99 spread 35% across seeds). The fdatasync path is timed
      // apart, by the engine.commit_durable_us primitive.
      db_->engine().log_manager().set_sync_mode(
          engine::LogManager::SyncMode::kNone);
      db_->engine().StartCheckpointer(1000);
    }
    net::Server::Options so;
    so.num_shards = 1;
    server_ = std::make_unique<net::Server>(db_.get(), so);
    std::string err;
    PDB_CHECK_MSG(server_->Start(&err), err.c_str());
    if (!shape_.durable) Preload(db_.get(), db_->GetTable(so.kv_table));
  }

  void Run(const Window& w) override {
    w_ = w;
    conns_.clear();
    for (int i = 0; i < kConns; ++i) {
      auto c = std::make_unique<Conn>();
      std::string err;
      PDB_CHECK_MSG(c->client.Connect("127.0.0.1", server_->port(), &err),
                    err.c_str());
      conns_.push_back(std::move(c));
    }
    before_ = ReadCounters(db_->scheduler(), db_->engine());
    net::ListenerStats net0 = server_->stats();
    uint64_t start = MonoNanos();
    std::vector<std::thread> threads;
    for (int i = 0; i < kConns; ++i) {
      Conn* c = conns_[static_cast<size_t>(i)].get();
      uint64_t seed = StreamSeed(o_.seed, 10 + static_cast<uint64_t>(i));
      threads.emplace_back([this, c, seed, start] { Sender(c, seed, start); });
      threads.emplace_back([this, c] { Receiver(c); });
    }
    for (auto& t : threads) t.join();
    after_ = ReadCounters(db_->scheduler(), db_->engine());
    net::ListenerStats net1 = server_->stats();
    replies_per_wake_ =
        Ratio(static_cast<double>(net1.replies - net0.replies),
              static_cast<double>(net1.eventfd_wakes - net0.eventfd_wakes));
    if (db_->engine().checkpointer() != nullptr) {
      ckpts_ = db_->engine().checkpointer()->completed();
    }
    Teardown();
  }

  void Check(Report* r) override {
    const std::string name = shape_.durable ? "wire_durable" : "wire_mixed";
    uint64_t lost = 0, scan_bad = 0, get_bad = 0, status_bad = 0;
    for (auto& c : conns_) {
      lost += c->pending.size();
      scan_bad += c->scan_bad;
      get_bad += c->get_bad;
      status_bad += c->status_bad;
      r->Check(c->error.empty(), name + ": connection error: " + c->error);
    }
    r->Check(lost == 0, name + ": " + std::to_string(lost) +
                            " requests got no response");
    r->Check(scan_bad == 0, name + ": " + std::to_string(scan_bad) +
                                " ScanSum results differ from their span");
    r->Check(get_bad == 0, name + ": " + std::to_string(get_bad) +
                               " GETs returned a wrong value");
    r->Check(status_bad == 0, name + ": " + std::to_string(status_bad) +
                                  " requests failed");
    if (shape_.durable) CheckDurable(r);
  }

  void LayerRows(Report* r) override {
    std::vector<uint64_t> admit, reply, transport;
    for (size_t i = 0; i < log_.size(); ++i) {
      const Sample& s = log_.at(i);
      if (s.outcome != Outcome::kOk || !w_.Contains(s.arrival_ns) ||
          s.tl.reply_ns == 0) {
        continue;
      }
      admit.push_back(s.tl.enqueue_ns - s.tl.arrival_ns);
      reply.push_back(s.tl.reply_ns - s.tl.done_ns);
      uint64_t rtt = s.done_ns - s.issued_ns;
      transport.push_back(rtt > s.server_ns ? rtt - s.server_ns : 0);
    }
    r->Add("net.admit_us.p50", Us(Percentile(admit, 50)), "us");
    r->Add("net.admit_us.p99", Us(Percentile(admit, 99)), "us");
    r->Add("net.reply_us.p50", Us(Percentile(reply, 50)), "us");
    r->Add("net.reply_us.p99", Us(Percentile(reply, 99)), "us");
    r->Add("net.transport_us.p50", Us(Percentile(transport, 50)), "us");
    r->Add("net.replies_per_wake", replies_per_wake_, "count");
    if (shape_.durable) {
      r->Add("engine.ckpt_count", static_cast<double>(ckpts_), "count");
    }
  }

 private:
  struct Pending {
    int64_t sample;
    Kind kind;
    bool hp;
    int attempts;
    uint64_t key;  // GET / PUT key, ScanSum low bound
    uint64_t seq;  // PUT write sequence
  };

  // One pipelined connection: a sender paces the schedule, a receiver
  // matches responses by id (Client supports that split).
  struct Conn {
    net::Client client;
    std::mutex mu;  // guards pending, retry, error
    std::unordered_map<uint64_t, Pending> pending;
    std::deque<Pending> retry;  // aborted PUTs the sender resends
    std::string error;
    std::atomic<uint64_t> sent{0};
    std::atomic<bool> send_done{false};
    // Receiver-owned until joined.
    std::vector<PutRecord> puts;
    uint64_t scan_bad = 0, get_bad = 0, status_bad = 0;
  };

  void Teardown() {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_.reset();
  }

  std::string LogDir() const { return o_.scratch + "/wire_durable"; }

  void Preload(DB* db, engine::Table* t) const {
    for (uint64_t lo = 1; lo <= keys_; lo += 2000) {
      Rc rc = db->Execute([&](engine::Engine& eng) {
        engine::Transaction* txn = eng.Begin();
        for (uint64_t k = lo; k < lo + 2000 && k <= keys_; ++k) {
          Rc r = txn->Insert(t, k, EncodeValue(k, 0, shape_.value_bytes));
          if (!IsOk(r)) {
            txn->Abort();
            return r;
          }
        }
        return txn->Commit();
      });
      PDB_CHECK_MSG(IsOk(rc), "preload failed");
    }
  }

  bool Send(Conn* c, const Pending& p) {
    net::RequestHeader h;
    h.prio_class = p.hp ? 1 : 0;
    h.flags = o_.trace ? net::kReqFlagWantTimeline : 0;
    std::string payload;
    switch (p.kind) {
      case Kind::kGet:
        h.opcode = static_cast<uint8_t>(net::Op::kGet);
        h.params[0] = p.key;
        break;
      case Kind::kPut:
        h.opcode = static_cast<uint8_t>(net::Op::kPut);
        h.params[0] = p.key;
        payload = EncodeValue(p.key, p.seq, shape_.value_bytes);
        break;
      case Kind::kScan:
        h.opcode = static_cast<uint8_t>(net::Op::kScanSum);
        h.params[0] = p.key;
        h.params[1] = p.key + shape_.scan_span - 1;
        break;
    }
    log_.at(static_cast<size_t>(p.sample)).issued_ns = MonoNanos();
    // Registered before the send: the response can beat Send's return.
    const uint64_t id = c->client.next_id();
    {
      std::lock_guard<std::mutex> g(c->mu);
      c->pending.emplace(id, p);
    }
    std::string err;
    if (!c->client.Send(h, payload, &err)) {
      std::lock_guard<std::mutex> g(c->mu);
      c->pending.erase(id);
      if (c->error.empty()) c->error = "send: " + err;
      return false;
    }
    c->sent.fetch_add(1, std::memory_order_release);
    return true;
  }

  bool SendRetries(Conn* c) {
    std::deque<Pending> retry;
    {
      std::lock_guard<std::mutex> g(c->mu);
      retry.swap(c->retry);
    }
    for (const Pending& p : retry) {
      if (!Send(c, p)) return false;
    }
    return true;
  }

  void Sender(Conn* c, uint64_t seed, uint64_t start) {
    FastRandom rng(seed);
    const double mean_gap_ns = 1e9 * kConns / shape_.rate;
    uint64_t next = start;
    for (;;) {
      if (!SendRetries(c)) break;
      if (next >= w_.m1) break;
      SleepUntil(next);
      late_mu_.lock();
      if (w_.Contains(next)) late_ns_.push_back(MonoNanos() - next);
      late_mu_.unlock();
      Pending p{};
      p.hp = rng.NextDouble() < shape_.hp_frac;
      if (!p.hp) {
        p.kind = Kind::kScan;
        p.key = rng.UniformU64(1, keys_ - shape_.scan_span + 1);
      } else {
        p.kind = rng.NextDouble() < shape_.put_frac ? Kind::kPut : Kind::kGet;
        p.key = rng.UniformU64(1, keys_);
        if (p.kind == Kind::kPut) p.seq = put_seq_.fetch_add(1) + 1;
      }
      p.sample = Issue(p.hp, next);
      if (p.sample < 0 || !Send(c, p)) break;
      double u = (static_cast<double>(rng.Next() >> 11) + 1.0) /
                 9007199254740993.0;
      next += static_cast<uint64_t>(-std::log(u) * mean_gap_ns);
    }
    // Past the horizon: keep resending aborted PUTs until all answered.
    uint64_t deadline = MonoNanos() + kDrainTimeoutNs;
    while (MonoNanos() < deadline) {
      {
        std::lock_guard<std::mutex> g(c->mu);
        if (c->pending.empty() && c->retry.empty()) break;
      }
      if (!SendRetries(c)) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    c->send_done.store(true, std::memory_order_release);
  }

  void Receiver(Conn* c) {
    uint64_t received = 0;
    for (;;) {
      if (received >= c->sent.load(std::memory_order_acquire)) {
        if (c->send_done.load(std::memory_order_acquire) &&
            received >= c->sent.load(std::memory_order_acquire)) {
          return;
        }
        struct pollfd pfd {};
        pfd.fd = c->client.fd();
        pfd.events = POLLIN;
        if (::poll(&pfd, 1, 20) <= 0) continue;
      }
      net::Client::Result res;
      std::string err;
      if (!c->client.Recv(&res, &err)) {
        std::lock_guard<std::mutex> g(c->mu);
        if (c->error.empty()) c->error = "recv: " + err;
        return;
      }
      const uint64_t done = MonoNanos();
      ++received;
      Pending p{};
      {
        std::lock_guard<std::mutex> g(c->mu);
        auto it = c->pending.find(res.request_id);
        if (it == c->pending.end()) continue;
        p = it->second;
        c->pending.erase(it);
        if (res.status == net::WireStatus::kAborted && p.kind == Kind::kPut &&
            p.attempts + 1 < kMaxPutAttempts) {
          ++p.attempts;  // write-write conflict: the sender resends it
          c->retry.push_back(p);
          continue;
        }
      }
      Sample& s = log_.at(static_cast<size_t>(p.sample));
      s.server_ns = res.server_ns;
      if (res.has_timeline) {
        s.tl.arrival_ns = res.timeline.arrival_ns;
        s.tl.admit_ns = res.timeline.admit_ns;
        s.tl.enqueue_ns = res.timeline.enqueue_ns;
        s.tl.dispatch_ns = res.timeline.dispatch_ns;
        s.tl.first_run_ns = res.timeline.first_run_ns;
        s.tl.done_ns = res.timeline.done_ns;
        s.tl.reply_ns = res.timeline.reply_ns;
        s.tl.last_resume_ns = res.timeline.last_resume_ns;
        s.tl.preempts = res.timeline.preempts;
        s.tl.yields = res.timeline.yields;
      }
      const bool ok = res.status == net::WireStatus::kOk;
      if (!ok) ++c->status_bad;
      if (ok && p.kind == Kind::kScan) {
        uint64_t count = 0, bytes = 0;
        if (res.payload.size() >= 16) {
          std::memcpy(&count, res.payload.data(), 8);
          std::memcpy(&bytes, res.payload.data() + 8, 8);
        }
        if (count != shape_.scan_span ||
            bytes != shape_.scan_span * shape_.value_bytes) {
          ++c->scan_bad;
        }
      } else if (ok && p.kind == Kind::kGet) {
        uint64_t key = 0, seq = 0;
        DecodeValue(res.payload, &key, &seq);
        if (key != p.key || res.payload.size() != shape_.value_bytes) {
          ++c->get_bad;
        }
      } else if (p.kind == Kind::kPut) {
        c->puts.push_back(PutRecord{p.key, p.seq, s.issued_ns, done, ok});
      }
      Finish(p.sample, p.hp, s.arrival_ns, done, ok);
    }
  }

  // Reopens the log directory and checks that every acknowledged PUT
  // survived: each key must hold a value whose write was acknowledged no
  // earlier than the send of the latest acknowledged write to that key
  // (the last committed write acks after every earlier commit).
  void CheckDurable(Report* r) {
    std::unordered_map<uint64_t, uint64_t> latest_send;  // key -> ns
    std::unordered_map<uint64_t, const PutRecord*> by_seq;
    for (auto& c : conns_) {
      for (const PutRecord& p : c->puts) {
        by_seq[p.seq] = &p;
        if (p.ok) {
          uint64_t& l = latest_send[p.key];
          l = std::max(l, p.send_ns);
        }
      }
    }
    DB::Options dbo;
    dbo.log_dir = LogDir();
    dbo.start_scheduler = false;
    dbo.gc_interval_ms = 0;
    std::unique_ptr<DB> db = DB::Open(dbo);
    engine::Table* t = db->GetTable("netkv");
    uint64_t bad = 0;
    if (t == nullptr) {
      bad = keys_;
    } else {
      Rc rc = db->Execute([&](engine::Engine& eng) {
        engine::Transaction* txn = eng.Begin();
        for (uint64_t k = 1; k <= keys_; ++k) {
          Slice v;
          uint64_t key = 0, seq = 0;
          if (IsOk(txn->Read(t, k, &v))) {
            DecodeValue(std::string_view(v.data, v.size), &key, &seq);
          }
          auto l = latest_send.find(k);
          bool good = key == k;
          if (good && l != latest_send.end()) {
            auto w = by_seq.find(seq);
            good = seq != 0 && w != by_seq.end() && w->second->key == k &&
                   w->second->ok && w->second->ack_ns >= l->second;
          } else if (good) {
            good = seq == 0;  // never acknowledged: still the preload
          }
          bad += good ? 0 : 1;
        }
        return txn->Commit();
      });
      if (!IsOk(rc)) bad = keys_;
    }
    db.reset();
    r->Check(bad == 0, "wire_durable: " + std::to_string(bad) +
                           " keys lost an acknowledged write after reopen");
  }

  const WireShape shape_;
  const uint64_t keys_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> put_seq_{0};
  std::mutex late_mu_;  // two senders append to late_ns_
  double replies_per_wake_ = 0;
  uint64_t ckpts_ = 0;
};

std::unique_ptr<Workload> Make(const Options& o) {
  if (o.workload == "paper_mix") return std::make_unique<PaperMix>(o);
  if (o.workload == "wire_mixed") return std::make_unique<Wire>(o, kWireMixed);
  if (o.workload == "lp_bigtable") return std::make_unique<LpBigtable>(o);
  return std::make_unique<Wire>(o, kWireDurable);
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

// A p99 is the median of the p99s of ten equal sub-windows (the whole
// window below 2k samples, as in a smoke run). A burst of noise then moves
// a few sub-windows, not the reported tail.
double TailPercentile(const std::vector<uint64_t>& lat,
                      const std::vector<uint64_t>& at, const Window& w) {
  return WindowedPercentile(lat, at, w, lat.size() >= 2'000 ? 10 : 1, 99);
}

void EndToEnd(const Workload& wl, const Window& w, double setup_s,
              Report* r) {
  std::vector<uint64_t> lat[2], at[2];
  uint64_t lost_in_window = 0;
  const SampleLog& log = wl.log();
  for (size_t i = 0; i < log.size(); ++i) {
    const Sample& s = log.at(i);
    if (!w.Contains(s.arrival_ns)) continue;
    if (s.outcome == Outcome::kPending) ++lost_in_window;
    if (s.outcome != Outcome::kOk) continue;
    lat[s.hp].push_back(s.done_ns - s.arrival_ns);
    at[s.hp].push_back(s.arrival_ns);
  }
  const char* cls[2] = {"lp", "hp"};
  for (int c = 1; c >= 0; --c) {
    r->Check(!lat[c].empty(), std::string("no ") + cls[c] +
                                  " request completed in the window");
    std::string p = cls[c];
    r->Add(p + "_p50_us", Us(Percentile(lat[c], 50)), "us");
    if (c == 1) r->Add("hp_mean_us", Us(Mean(lat[c])), "us");
    r->Add(p + "_p99_us", Us(TailPercentile(lat[c], at[c], w)), "us");
  }
  r->Add("hp_tps", wl.counters(true).completed.load() / w.seconds(), "1/s");
  r->Add("lp_tps", wl.counters(false).completed.load() / w.seconds(), "1/s");
  r->Add("setup_s", setup_s, "s");
  r->Add("peak_rss_mb", PeakRssMb(), "MiB");
  r->attempted = wl.counters(true).issued.load() +
                 wl.counters(false).issued.load();
  r->failed = wl.counters(true).failed.load() +
              wl.counters(false).failed.load() + lost_in_window;
}

// Send->delivery latency of every user interrupt in the surviving trace:
// each delivery on track T pairs with the latest unmatched send to T (the
// pairing rule of obs::TraceExporter::DeriveUipiLatency, kept exact here
// instead of bucketed).
std::vector<uint64_t> InRunDeliveries() {
  obs::TraceExporter exp;
  std::vector<uint64_t> last_send(obs::kMaxTracks, 0), out;
  for (const obs::TraceEvent& e : exp.events()) {
    auto type = static_cast<obs::EventType>(e.type);
    if (type == obs::EventType::kUipiSent && e.a32 < obs::kMaxTracks) {
      last_send[e.a32] = e.ts_ns;
    } else if (type == obs::EventType::kUipiDelivered &&
               last_send[e.track] != 0 && e.ts_ns >= last_send[e.track]) {
      out.push_back(e.ts_ns - last_send[e.track]);
      last_send[e.track] = 0;
    }
  }
  return out;
}

void PerLayer(Workload& wl, const Window& w, Report* r) {
  std::vector<uint64_t> queue[2], run[2];
  uint64_t lp_preempts = 0, lp_runs = 0, hp_done = 0, split_bad = 0;
  const SampleLog& log = wl.log();
  for (size_t i = 0; i < log.size(); ++i) {
    const Sample& s = log.at(i);
    if (s.outcome != Outcome::kOk) continue;
    hp_done += s.hp;
    const obs::TxnTimeline& tl = s.tl;
    if (!w.Contains(s.arrival_ns) || tl.first_run_ns == 0) continue;
    // In process the request queues from its arrival; on the wire from
    // the submission enqueue (admission is net's share).
    uint64_t queued_from = tl.enqueue_ns != 0 ? tl.enqueue_ns : s.arrival_ns;
    queue[s.hp].push_back(tl.first_run_ns - queued_from);
    run[s.hp].push_back(tl.done_ns - tl.first_run_ns);
    if (!s.hp) {
      lp_preempts += tl.preempts;
      ++lp_runs;
    }
    if (tl.reply_ns != 0) {
      // The four server stages partition the server total exactly.
      uint64_t sum = (tl.enqueue_ns - tl.arrival_ns) +
                     (tl.first_run_ns - tl.enqueue_ns) +
                     (tl.done_ns - tl.first_run_ns) +
                     (tl.reply_ns - tl.done_ns);
      split_bad += sum == s.server_ns ? 0 : 1;
    }
  }
  r->Check(split_bad == 0, std::to_string(split_bad) +
                               " wire requests whose stages do not sum to "
                               "server_ns");
  r->Add("sched.queue_wait_hp_us.p50", Us(Percentile(queue[1], 50)), "us");
  r->Add("sched.queue_wait_hp_us.p99", Us(Percentile(queue[1], 99)), "us");
  r->Add("sched.queue_wait_lp_us.p50", Us(Percentile(queue[0], 50)), "us");
  r->Add("sched.run_hp_us.p50", Us(Percentile(run[1], 50)), "us");
  r->Add("sched.run_hp_us.p99", Us(Percentile(run[1], 99)), "us");
  r->Add("sched.run_lp_us.p50", Us(Percentile(run[0], 50)), "us");
  r->Add("sched.run_lp_us.p99", Us(Percentile(run[0], 99)), "us");
  const Counters& a = wl.before();
  const Counters& b = wl.after();
  double shed = static_cast<double>(b.hp_shed - a.hp_shed);
  double placed = static_cast<double>(b.hp_placed - a.hp_placed);
  r->Add("sched.hp_shed_frac", Ratio(shed, shed + placed), "frac");
  r->Add("sched.uipis_per_hp",
         Ratio(static_cast<double>(b.uipis - a.uipis),
               static_cast<double>(hp_done)),
         "count");
  r->Add("sched.preempts_per_lp",
         Ratio(static_cast<double>(lp_preempts), static_cast<double>(lp_runs)),
         "count");
  std::vector<uint64_t> deliveries = InRunDeliveries();
  r->Add("uintr.delivery_inrun_us.p50", Us(Percentile(deliveries, 50)), "us");
  r->Add("uintr.delivery_inrun_us.p99", Us(Percentile(deliveries, 99)), "us");
  r->Add("uintr.dropped_frac",
         Ratio(static_cast<double>(b.dropped - a.dropped),
               static_cast<double>(b.received - a.received)),
         "frac");
  double commits = static_cast<double>(b.commits - a.commits);
  double aborts = static_cast<double>(b.aborts - a.aborts);
  r->Add("engine.abort_frac", Ratio(aborts, commits + aborts), "frac");
  r->Add("loadgen.late_us.p99", Us(Percentile(wl.lateness(), 99)), "us");
  if (Percentile(wl.lateness(), 99) > 1'000'000) {
    std::fprintf(stderr, "# WARNING: the generator ran >1 ms late at p99; "
                         "latency rows of this run are not valid\n");
  }
  wl.LayerRows(r);
}

// Per-request spans as Chrome trace JSON: client.request with its layer
// children, one track per request.
void WriteSpans(const Workload& wl, const Window& w, const std::string& path,
                Report* r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    r->Check(false, "cannot write spans to " + path);
    return;
  }
  size_t spans = 0;
  uint64_t overflow = 0;
  bool first = true;
  auto span = [&](const char* name, size_t tid, uint64_t b, uint64_t e) {
    if (b == 0 || e < b) return;
    if (spans >= kMaxSpans) {
      ++overflow;
      return;
    }
    ++spans;
    std::fprintf(f, "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 first ? "" : ",\n", name, tid, b / 1e3, (e - b) / 1e3);
    first = false;
  };
  std::fprintf(f, "{\"traceEvents\":[\n");
  const SampleLog& log = wl.log();
  for (size_t i = 0; i < log.size(); ++i) {
    const Sample& s = log.at(i);
    const obs::TxnTimeline& tl = s.tl;
    if (s.outcome != Outcome::kOk || !w.Contains(s.arrival_ns)) continue;
    span(s.hp ? "client.request.hp" : "client.request.lp", i, s.arrival_ns,
         s.done_ns);
    if (tl.reply_ns != 0) span("net.admit", i, tl.arrival_ns, tl.enqueue_ns);
    span("sched.queue_wait", i,
         tl.enqueue_ns != 0 ? tl.enqueue_ns : s.arrival_ns, tl.first_run_ns);
    span("sched.run", i, tl.first_run_ns, tl.done_ns);
    if (tl.reply_ns != 0) span("net.reply", i, tl.done_ns, tl.reply_ns);
  }
  std::fprintf(f, "\n],\"otherData\":{\"spans\":%zu,\"overflow\":%llu}}\n",
               spans, static_cast<unsigned long long>(overflow));
  r->Check(std::fclose(f) == 0, "cannot write spans to " + path);
}

// Times one set-up in a forked child, which tears it down and exits.
// Returns seconds, or -1 if the child failed. Call only while this process
// has a single thread.
double SetupInChild(const Options& o) {
  int fds[2];
  if (::pipe(fds) != 0) return -1;
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(fds[0]);
    double s = 0;
    {
      uint64_t t0 = MonoNanos();
      std::unique_ptr<Workload> wl = Make(o);
      wl->Setup();
      s = static_cast<double>(MonoNanos() - t0) / 1e9;
    }  // torn down (threads joined, on-disk state removed) before exiting
    bool sent = ::write(fds[1], &s, sizeof(s)) == sizeof(s);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  double s = -1;
  ssize_t n;
  do {
    n = ::read(fds[0], &s, sizeof(s));
  } while (n < 0 && errno == EINTR);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  bool ok = n == sizeof(s) && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return ok ? s : -1;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "paper_mix", "wire_mixed", "lp_bigtable", "wire_durable"};
  return kNames;
}

void RunWorkload(const Options& options, Report* r) {
  (void)TscCyclesPerUs();  // calibrate before anything is timed
  // On-disk state of this run lives in its own directory, removed at the end.
  Options o = options;
  o.scratch += "/" + o.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(o.scratch, ec);
  std::filesystem::create_directories(o.scratch, ec);
  r->Check(!ec, "cannot create " + o.scratch);
  Make(o)->Prepare();

  // Untraced runs set up at least kMinSetups times, and go on (up to
  // kMaxSetups) until kSetupBudgetS of set-up has been timed, then report
  // the median: work moved into set-up shows, one slow set-up does not, and
  // a cheap set-up is repeated until its median is steady. All but the
  // last, measured, instance are set up in forked children, so they leave
  // this process's memory and peak RSS alone. A traced run reports no
  // setup_s and sets up once, with tracing on before its threads start
  // (threads register their trace rings at start-up only).
  std::vector<double> setup_s;
  double setup_total = 0;
  while (!o.trace && !o.smoke && setup_s.size() + 1 < kMaxSetups &&
         (setup_s.size() + 1 < kMinSetups || setup_total < kSetupBudgetS)) {
    double s = SetupInChild(o);
    if (s < 0) {
      r->Check(false, "a set-up in a child process failed");
      break;
    }
    setup_s.push_back(s);
    setup_total += s;
  }
  if (o.trace) {
    obs::SetTraceEnabled(true);
    obs::RegisterThisThread("ledger");
  }
  uint64_t t0 = MonoNanos();
  std::unique_ptr<Workload> wl = Make(o);
  wl->Setup();
  setup_s.push_back(static_cast<double>(MonoNanos() - t0) / 1e9);
  std::fprintf(stderr, "# %s: %zu set-ups, %.3f s in total\n",
               o.workload.c_str(), setup_s.size(), setup_total + setup_s.back());
  std::sort(setup_s.begin(), setup_s.end());

  const double warmup_s = o.smoke ? 0.3 : 2.0;
  Window w;
  w.m0 = MonoNanos() + static_cast<uint64_t>(warmup_s * 1e9);
  w.m1 = w.m0 + static_cast<uint64_t>(o.seconds * 1e9);
  wl->Run(w);
  if (o.trace) obs::SetTraceEnabled(false);

  wl->Check(r);
  r->Check(wl->lost() == 0,
           std::to_string(wl->lost()) + " requests never finished");
  r->Check(wl->log().overflow() == 0, "sample log overflowed");
  EndToEnd(*wl, w, setup_s[setup_s.size() / 2], r);
  if (o.trace) {
    PerLayer(*wl, w, r);
    if (!o.spans.empty()) WriteSpans(*wl, w, o.spans, r);
  }
  wl.reset();
  std::filesystem::remove_all(o.scratch, ec);
}

}  // namespace ledger
