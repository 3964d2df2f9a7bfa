// Primitives: isolated loops over single layers' public functions, timed
// apart from any application or API overhead (the Zephyr scheduler
// microbenchmark idea). Every traced run measures all of them after its
// workload has stopped, so a per-layer regression shows on every workload
// whether or not that workload crosses the layer.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/preemptdb.h"
#include "engine/engine.h"
#include "engine/transaction.h"
#include "index/btree.h"
#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "sync/mpmc_queue.h"
#include "sync/spsc_queue.h"
#include "uintr/uintr.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"

namespace ledger {
namespace {

using namespace preemptdb;

// Times `batches` calls of fn(ops), each performing `ops` operations, and
// returns the median nanoseconds per operation.
template <typename Fn>
double NsPerOp(int batches, int ops, Fn&& fn) {
  std::vector<uint64_t> per_batch;
  per_batch.reserve(static_cast<size_t>(batches));
  for (int b = 0; b < batches; ++b) {
    uint64_t t0 = MonoNanos();
    fn(ops);
    per_batch.push_back(MonoNanos() - t0);
  }
  return static_cast<double>(Percentile(per_batch, 50)) / ops;
}

// Distinct pseudo-random keys: multiplication by an odd constant is a
// bijection on 64-bit integers.
uint64_t KeyAt(uint64_t i) { return (i + 1) * 0x9e3779b97f4a7c15ull; }

volatile uint64_t g_sink = 0;

// --- uintr: SendUipi -> handler delivery, and the context switch ---

std::atomic<uint64_t> g_sent_ns{0};
std::atomic<uint64_t> g_delivered{0};
uint64_t* g_deltas = nullptr;
size_t g_deltas_cap = 0;

void DeliveryEntry(void*) {
  for (;;) {
    uint64_t sent = g_sent_ns.exchange(0, std::memory_order_acq_rel);
    if (sent != 0) {
      uint64_t d = MonoNanos() - sent;
      uint64_t n = g_delivered.load(std::memory_order_relaxed);
      if (n < g_deltas_cap) g_deltas[n] = d;
      g_delivered.store(n + 1, std::memory_order_release);
    }
    uintr::SwapToMain();
  }
}

void IdlePreemptLoop(void*) {
  for (;;) uintr::SwapToMain();
}

void Uintr(const Options& o, Report* r) {
  const int rounds = o.smoke ? 2000 : 20000;
  std::vector<uint64_t> deltas(static_cast<size_t>(rounds), 0);
  g_deltas = deltas.data();
  g_deltas_cap = deltas.size();
  g_delivered.store(0);
  std::atomic<uintr::Receiver*> recv{nullptr};
  std::atomic<bool> stop{false};
  std::thread target([&] {
    recv.store(uintr::RegisterReceiver(&DeliveryEntry, nullptr));
    while (!stop.load(std::memory_order_acquire)) g_sink = g_sink + 1;
    uintr::UnregisterReceiver();
  });
  while (recv.load() == nullptr) std::this_thread::yield();
  uint64_t timeouts = 0;
  for (int i = 0; i < rounds; ++i) {
    uint64_t want = g_delivered.load(std::memory_order_acquire) + 1;
    g_sent_ns.store(MonoNanos(), std::memory_order_release);
    uintr::SendUipi(recv.load());
    uint64_t deadline = MonoNanos() + 50'000'000;
    while (g_delivered.load(std::memory_order_acquire) < want) {
      if (MonoNanos() > deadline) {
        ++timeouts;
        break;
      }
      std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  target.join();
  deltas.resize(std::min<size_t>(g_delivered.load(), deltas.size()));
  r->Check(timeouts == 0, std::to_string(timeouts) +
                              " uipi deliveries timed out in the primitive");
  r->Add("uintr.delivery_us.p50", Percentile(deltas, 50) / 1e3, "us");
  r->Add("uintr.delivery_us.p99", Percentile(deltas, 99) / 1e3, "us");
  r->Add("uintr.delivery_us.max",
         (deltas.empty() ? 0 : *std::max_element(deltas.begin(), deltas.end())) /
             1e3,
         "us");

  uintr::RegisterReceiver(&IdlePreemptLoop, nullptr, 64 * 1024);
  r->Add("uintr.switch_ns.p50", NsPerOp(50, 2000, [](int n) {
           for (int i = 0; i < n; ++i) uintr::SwapToPreempt();
         }),
         "ns");
  uintr::UnregisterReceiver();
}

// --- sync / util / obs ---

void SyncUtilObs(const Options& o, Report* r) {
  const int batches = o.smoke ? 10 : 50;
  SpscQueue<uint64_t> spsc(1024);
  r->Add("sync.spsc_pushpop_ns", NsPerOp(batches, 10000, [&](int n) {
           uint64_t v = 0;
           for (int i = 0; i < n; ++i) {
             spsc.TryPush(static_cast<uint64_t>(i));
             spsc.TryPop(&v);
           }
           g_sink = v;
         }),
         "ns");
  MpmcQueue<uint64_t> mpmc(1024);
  r->Add("sync.mpmc_pushpop_ns", NsPerOp(batches, 10000, [&](int n) {
           uint64_t v = 0;
           for (int i = 0; i < n; ++i) {
             mpmc.TryPush(static_cast<uint64_t>(i));
             mpmc.TryPop(&v);
           }
           g_sink = v;
         }),
         "ns");

  // One shared histogram, one writer vs four concurrent writers.
  LatencyHistogram hist;
  auto record = [&](int n) {
    for (int i = 0; i < n; ++i) {
      hist.RecordNanos(1000 + static_cast<uint64_t>(i & 1023));
    }
  };
  r->Add("util.hist_record_ns.w1", NsPerOp(batches, 20000, record), "ns");
  std::atomic<int> ready{0};
  std::vector<double> per_thread(4);
  std::vector<std::thread> writers;
  for (size_t t = 0; t < per_thread.size(); ++t) {
    writers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < static_cast<int>(per_thread.size())) CpuPause();
      per_thread[t] = NsPerOp(batches, 20000, record);
    });
  }
  for (auto& w : writers) w.join();
  std::sort(per_thread.begin(), per_thread.end());
  r->Add("util.hist_record_ns.w4", (per_thread[1] + per_thread[2]) / 2, "ns");

  std::vector<char> buf(64 * 1024);
  FastRandom rng(o.seed);
  for (char& c : buf) c = static_cast<char>(rng.Next());
  r->Add("util.crc32c_ns_per_kib", NsPerOp(batches, 1, [&](int) {
           g_sink = util::Crc32c(0, buf.data(), buf.size());
         }) / 64.0,
         "ns");

  const bool was_on = obs::TraceEnabled();
  obs::SetTraceEnabled(false);
  auto trace = [](int n) {
    for (int i = 0; i < n; ++i) {
      obs::Trace(obs::EventType::kTxnStart, 1, static_cast<uint64_t>(i));
    }
  };
  r->Add("obs.trace_ns.off", NsPerOp(batches, 100000, trace), "ns");
  obs::SetTraceEnabled(true);
  obs::RegisterThisThread("ledger");
  r->Add("obs.trace_ns.on", NsPerOp(batches, 20000, trace), "ns");
  obs::SetTraceEnabled(was_on);
}

// --- index ---

void Index(const Options& o, Report* r) {
  const uint64_t small_keys = 10'000;
  const uint64_t big_keys = o.smoke ? 50'000 : 2'000'000;
  const int batches = o.smoke ? 10 : 50;
  index::BTree small;
  for (uint64_t i = 0; i < small_keys; ++i) small.Insert(KeyAt(i), i);
  FastRandom rng(o.seed);
  auto lookups = [&](const index::BTree& t, uint64_t n_keys) {
    return [&t, &rng, n_keys](int n) {
      index::Value v = 0;
      for (int i = 0; i < n; ++i) t.Lookup(KeyAt(rng.Next() % n_keys), &v);
      g_sink = v;
    };
  };
  r->Add("index.lookup_ns.small",
         NsPerOp(batches, 2000, lookups(small, small_keys)), "ns");

  // The big tree is built in random key order; its build is the insert
  // primitive.
  index::BTree big;
  uint64_t next = 0;
  const int insert_batch = 10000;
  r->Add("index.insert_ns",
         NsPerOp(static_cast<int>(big_keys / insert_batch), insert_batch,
                 [&](int n) {
                   for (int i = 0; i < n; ++i, ++next) big.Insert(KeyAt(next), next);
                 }),
         "ns");
  r->Add("index.lookup_ns.big", NsPerOp(batches, 2000, lookups(big, next)),
         "ns");
}

// --- engine ---

constexpr size_t kValueBytes = 120;

void EngineOps(const Options& o, Report* r) {
  const uint64_t small_rows = 10'000;
  const uint64_t big_rows = o.smoke ? 20'000 : 1'000'000;
  const int batches = o.smoke ? 10 : 50;
  engine::Engine e;
  engine::Table* small = LoadTable(&e, "small", small_rows, kValueBytes);
  engine::Table* big = LoadTable(&e, "big", big_rows, kValueBytes);
  FastRandom rng(o.seed);
  const std::string value(kValueBytes, 'u');

  auto reads = [&](engine::Table* t, uint64_t rows) {
    engine::Transaction* txn = e.Begin();
    double ns = NsPerOp(batches, 64, [&](int n) {
      Slice s;
      for (int i = 0; i < n; ++i) txn->Read(t, 1 + rng.Next() % rows, &s);
      g_sink = s.size;
    });
    txn->Commit();
    return ns;
  };
  auto updates = [&](engine::Table* t, uint64_t rows) {
    std::vector<uint64_t> per_batch;
    for (int b = 0; b < batches; ++b) {
      engine::Transaction* txn = e.Begin();
      uint64_t t0 = MonoNanos();
      for (int i = 0; i < 16; ++i) txn->Update(t, 1 + rng.Next() % rows, value);
      per_batch.push_back(MonoNanos() - t0);
      txn->Commit();
    }
    return Percentile(per_batch, 50) / 16.0;
  };
  r->Add("engine.read_ns.small", reads(small, small_rows), "ns");
  r->Add("engine.read_ns.big", reads(big, big_rows), "ns");
  r->Add("engine.update_ns.small", updates(small, small_rows), "ns");
  r->Add("engine.update_ns.big", updates(big, big_rows), "ns");

  {
    engine::Transaction* txn = e.Begin();
    r->Add("engine.scan_row_ns", NsPerOp(o.smoke ? 3 : 20, 1, [&](int) {
             uint64_t rows = 0;
             txn->Scan(small, 1, small_rows, [&](index::Key, Slice) {
               ++rows;
               return true;
             });
             g_sink = rows;
           }) / static_cast<double>(small_rows),
           "ns");
    txn->Commit();
  }

  std::vector<uint64_t> ro, rw;
  for (int b = 0; b < batches * 4; ++b) {
    engine::Transaction* txn = e.Begin();
    Slice s;
    txn->Read(small, 1 + rng.Next() % small_rows, &s);
    uint64_t t0 = MonoNanos();
    txn->Commit();
    ro.push_back(MonoNanos() - t0);
    txn = e.Begin();
    for (int i = 0; i < 4; ++i) {
      txn->Update(small, 1 + rng.Next() % small_rows, value);
    }
    t0 = MonoNanos();
    txn->Commit();
    rw.push_back(MonoNanos() - t0);
  }
  r->Add("engine.commit_ro_ns", static_cast<double>(Percentile(ro, 50)), "ns");
  r->Add("engine.commit_rw_ns", static_cast<double>(Percentile(rw, 50)), "ns");
}

// Group-committed durable commits from two threads on disjoint keys, then
// foreground checkpoints, against a redo log in the scratch directory.
void Durable(const Options& o, Report* r) {
  const std::string dir =
      o.scratch + "/primitive-durable-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  constexpr size_t kDurableValue = 128;
  const uint64_t rows = o.smoke ? 2000 : 20000;
  const int commits_per_thread = o.smoke ? 50 : 500;
  std::vector<uint64_t> lat[2];
  uint64_t fsyncs = 0, bytes = 0;
  std::vector<uint64_t> ckpt;
  {
    engine::Engine e;
    std::string err;
    if (!e.EnableDurability(dir, &err)) {
      r->Check(false, "durable primitive: " + err);
      return;
    }
    engine::Table* t = LoadTable(&e, "dur", rows, kDurableValue);
    const uint64_t fsyncs0 = e.log_manager().fsyncs();
    const uint64_t bytes0 = e.log_manager().total_bytes();
    std::vector<std::thread> threads;
    for (uint64_t th = 0; th < 2; ++th) {
      threads.emplace_back([&, th] {
        FastRandom rng(o.seed + th);
        const std::string value(kDurableValue, 'd');
        for (int i = 0; i < commits_per_thread; ++i) {
          uint64_t key = 1 + th + 2 * (rng.Next() % (rows / 2));
          engine::Transaction* txn = e.Begin();
          PDB_CHECK(IsOk(txn->Update(t, key, value)));
          uint64_t t0 = MonoNanos();
          PDB_CHECK(IsOk(txn->Commit()));
          lat[th].push_back(MonoNanos() - t0);
        }
      });
    }
    for (auto& th : threads) th.join();
    fsyncs = e.log_manager().fsyncs() - fsyncs0;
    bytes = e.log_manager().total_bytes() - bytes0;
    for (int i = 0; i < (o.smoke ? 2 : 5); ++i) {
      uint64_t t0 = MonoNanos();
      r->Check(e.WriteCheckpointNow(), "durable primitive: checkpoint failed");
      ckpt.push_back(MonoNanos() - t0);
    }
  }
  std::filesystem::remove_all(dir, ec);
  lat[0].insert(lat[0].end(), lat[1].begin(), lat[1].end());
  const double commits = static_cast<double>(lat[0].size());
  r->Add("engine.commit_durable_us.p50", Percentile(lat[0], 50) / 1e3, "us");
  r->Add("engine.commit_durable_us.p99", Percentile(lat[0], 99) / 1e3, "us");
  r->Add("engine.fsyncs_per_commit", fsyncs / commits, "count");
  r->Add("engine.log_bytes_per_user_byte", bytes / (commits * kDurableValue),
         "ratio");
  r->Add("engine.ckpt_ms.p50", Percentile(ckpt, 50) / 1e6, "ms");
}

// --- core facade and the wire on an idle DB ---

void CoreAndNet(const Options& o, Report* r) {
  DB::Options dbo;
  dbo.scheduler.policy = sched::Policy::kPreempt;
  dbo.scheduler.num_workers = 2;
  std::unique_ptr<DB> db = DB::Open(dbo);
  const TxnFn empty = [](engine::Engine&) { return Rc::kOk; };

  // 2560 submissions stay below the 4096-deep submission queue, so no
  // Submit is refused and none waits for the workers to drain.
  std::vector<uint64_t> submit;
  for (int b = 0; b < (o.smoke ? 10 : 40); ++b) {
    uint64_t t0 = MonoNanos();
    for (int i = 0; i < 64; ++i) {
      r->Check(db->Submit(sched::Priority::kHigh, empty) ==
                   SubmitResult::kAccepted,
               "core primitive: Submit refused");
    }
    submit.push_back(MonoNanos() - t0);
  }
  db->Drain();
  r->Add("core.submit_ns.p50", Percentile(submit, 50) / 64.0, "ns");

  std::vector<uint64_t> wait;
  for (int i = 0; i < (o.smoke ? 50 : 300); ++i) {
    uint64_t t0 = MonoNanos();
    db->SubmitAndWait(sched::Priority::kHigh, empty);
    wait.push_back(MonoNanos() - t0);
  }
  r->Add("core.submit_wait_us.p50", Percentile(wait, 50) / 1e3, "us");

  net::Server server(db.get(), net::Server::Options{});
  std::string err;
  if (!server.Start(&err)) {
    r->Check(false, "net primitive: " + err);
    return;
  }
  net::Client client;
  std::vector<uint64_t> rtt;
  if (client.Connect("127.0.0.1", server.port(), &err)) {
    for (int i = 0; i < (o.smoke ? 200 : 2000); ++i) {
      net::Client::Result res;
      uint64_t t0 = MonoNanos();
      if (!client.Ping(&res, &err)) break;
      rtt.push_back(MonoNanos() - t0);
    }
  }
  r->Check(!rtt.empty(), "net primitive: ping failed: " + err);
  r->Add("net.ping_rtt_us.p50", Percentile(rtt, 50) / 1e3, "us");
  client.Close();
  server.Stop();
}

}  // namespace

engine::Table* LoadTable(engine::Engine* e, const char* name, uint64_t rows,
                         size_t value_bytes) {
  engine::Table* t = e->CreateTable(name);
  std::string v(value_bytes, 'v');
  engine::Transaction* txn = e->Begin();
  for (uint64_t k = 1; k <= rows; ++k) {
    PDB_CHECK(IsOk(txn->Insert(t, k, v)));
    if (k % 2000 == 0) {
      PDB_CHECK(IsOk(txn->Commit()));
      txn = e->Begin();
    }
  }
  PDB_CHECK(IsOk(txn->Commit()));
  return t;
}

void RunPrimitives(const Options& o, Report* r) {
  Uintr(o, r);
  SyncUtilObs(o, r);
  Index(o, r);
  EngineOps(o, r);
  Durable(o, r);
  CoreAndNet(o, r);
}

}  // namespace ledger
