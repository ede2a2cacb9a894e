// The `update` and `serve` workloads: a seeded 40/30/20/10 insert /
// subtree-delete / subtree-move / rename stream against a durable XMark
// store whose write-ahead log sits on local disk under the default
// group-commit SyncPolicy.
//
//   update: one closed-loop writer, a Checkpoint() after every fixed
//           number of ops, SyncWal() at the end, then Recover() of the log.
//   serve:  one client interleaves a reader and the same op stream
//           (no checkpoints): open a fresh snapshot, apply ten mutations
//           while it stays open, run one XPathMark query on it, close
//           it. Reader threads racing a writer thread for the store lock
//           swing every figure by 15-70% from run to run on a shared
//           4-vCPU guest, so the interleaving is fixed instead. The run
//           is a fixed number of units of whole shuffled Q1-Q7 sweeps,
//           so the store a unit sees depends on the seed alone, not on
//           how fast the host got there.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "decorators.h"
#include "ops.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/reference_evaluator.h"
#include "query/xpathmark.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr double kXmarkScale = 0.1;
/// update: ops between checkpoints, and the floor on measured ops.
constexpr size_t kCheckpointEvery = 10000;
constexpr size_t kMinUpdateOps = 10000;
/// serve: writer ops applied while each reader snapshot is open, whole
/// Q1-Q7 sweeps per measured unit, units per second of --seconds (about
/// what a 4-vCPU Xeon guest runs, so a run there lasts about --seconds),
/// and oracle-checked reader answers per run.
constexpr size_t kOpsPerQuery = 10;
constexpr size_t kSweepsPerUnit = 3;
constexpr double kUnitsPerSecond = 3;
constexpr int kSampledAnswers = 3;
/// CPU of the WAL flusher thread (the measured thread runs on CPU 0).
constexpr unsigned kFlusherCpu = 1;

/// Builds the XMark store and makes it durable with a fresh log at
/// `wal_path` (wrapped in the timing decorator on traced phases).
natix::Status SetUpDurable(const Args& args, const std::string& wal_path,
                           BackendCounters* io, bool traced,
                           XmarkFixture* fx) {
  NATIX_RETURN_NOT_OK(
      BuildXmarkFixture(args.seed, kXmarkScale * args.size, fx));
  std::remove(wal_path.c_str());
  auto file = natix::PosixFileBackend::Open(wal_path);
  if (!file.ok()) return file.status();
  std::unique_ptr<natix::FileBackend> backend = *std::move(file);
  if (traced) backend = std::make_unique<TimedBackend>(std::move(backend), io);
  // The WAL flusher starts here and inherits this pin: it gets a CPU of
  // its own, apart from the measured thread on CPU 0.
  const CpuPin pin(kFlusherCpu);
  return fx->store->EnableDurability(std::move(backend), natix::SyncPolicy());
}

/// Repeats the set-up (see MoreSetups); returns the median in seconds
/// (negative on failure).
double SetUpRepeated(const Args& args, const Phase& phase,
                     const std::string& wal_path, BackendCounters* io,
                     XmarkFixture* fx, Checker* checker) {
  std::vector<double> setup_s;
  while (MoreSetups(phase, setup_s)) {
    *fx = XmarkFixture();  // joins the previous store's WAL flusher
    const uint64_t t0 = NowNs();
    const natix::Status st = SetUpDurable(args, wal_path, io, phase.traced, fx);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    checker->CheckStatus(st, "durable store set-up");
    if (!st.ok()) return -1;
  }
  io->Reset();
  return Median(setup_s);
}

size_t KindIndex(OpKind kind) { return static_cast<size_t>(kind); }

/// Applies one op, recording its latency; failures count.
void ApplyOp(const Op& op, OpStream* gen, natix::NatixStore* store,
             MutationLedger* ledger, Checker* checker) {
  SetTraceOp(NewTraceOp());
  uint64_t ns = 0;
  const natix::Status st = gen->Apply(store, op, &ns);
  checker->CheckStatus(st, "mutation");
  if (st.ok()) ledger->Add(KindIndex(op.kind), ns);
}

void RunOp(OpStream* gen, natix::NatixStore* store, MutationLedger* ledger,
           Checker* checker) {
  ApplyOp(gen->Next(), gen, store, ledger, checker);
}

/// Compares two answer sets query by query.
void CheckAnswers(const std::vector<std::vector<natix::NodeId>>& got,
                  const std::vector<std::vector<natix::NodeId>>& want,
                  const char* what, Checker* checker) {
  const std::vector<natix::XPathMarkQuery>& queries = natix::XPathMarkQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    checker->Check(got[q] == want[q],
                   std::string(queries[q].id) + ": " + what);
  }
}

}  // namespace

Outcome RunUpdate(const Args& args, const Phase& phase, Checker* checker) {
  const std::string wal_path = args.workdir + "/update.wal";
  BackendCounters io;
  XmarkFixture fx;
  const double setup_s =
      SetUpRepeated(args, phase, wal_path, &io, &fx, checker);
  if (setup_s < 0) return {};
  natix::NatixStore* store = &*fx.store;
  const size_t every =
      std::max<size_t>(1, static_cast<size_t>(kCheckpointEvery * args.size));
  const size_t min_ops =
      std::max<size_t>(every, static_cast<size_t>(kMinUpdateOps * args.size));
  OpStream gen(fx.doc.tree.Clone(), args.seed);

  const natix::UpdateStats u0 = store->update_stats();
  const natix::WalStats w0 = store->wal_stats();
  MutationLedger ledger;
  std::vector<double> checkpoint_ms, checkpoint_bytes;
  // Per round (ops plus their checkpoint): rate, p50 and p99. The run
  // reports their medians, so a round disturbed by other load on the host
  // does not move the figures.
  std::vector<double> round_rate, round_p50, round_p99;
  uint64_t sync_ns = 0;

  ResetPeakRss();
  ClearTrace();
  EnableTracing(phase.traced);
  {
    const CpuPin pin(0);
    TraceWindow window;
    const uint64_t start = NowNs();
    while (ledger.all_us.size() < min_ops ||
           static_cast<double>(NowNs() - start) < phase.seconds * 1e9) {
      const size_t first = ledger.all_us.size();
      const uint64_t busy0 = ledger.busy_ns;
      for (size_t i = 0; i < every; ++i) {
        RunOp(&gen, store, &ledger, checker);
      }
      const uint64_t bytes0 = store->wal_stats().checkpoint_bytes;
      uint64_t ns = 0;
      const natix::Status st = TimedCall("storage.checkpoint:checkpoint", &ns,
                                         [&] { return store->Checkpoint(); });
      checker->CheckStatus(st, "checkpoint");
      checkpoint_ms.push_back(static_cast<double>(ns) / 1e6);
      checkpoint_bytes.push_back(static_cast<double>(
          store->wal_stats().checkpoint_bytes - bytes0));
      const std::vector<double> round(ledger.all_us.begin() + first,
                                      ledger.all_us.end());
      round_rate.push_back(static_cast<double>(round.size()) * 1e9 /
                           static_cast<double>(ledger.busy_ns - busy0 + ns));
      round_p50.push_back(Percentile(round, 50));
      round_p99.push_back(Percentile(round, 99));
    }
    // Half a round after the last checkpoint, so recovery replays a tail.
    for (size_t i = 0; i < every / 2; ++i) {
      RunOp(&gen, store, &ledger, checker);
    }
    const natix::Status st = TimedCall("storage.wal:sync", &sync_ns,
                                       [&] { return store->SyncWal(); });
    checker->CheckStatus(st, "final SyncWal");
  }
  EnableTracing(false);

  const double rss_mb = PeakRssMb();
  const natix::UpdateStats u1 = store->update_stats();
  const natix::WalStats w1 = store->wal_stats();
  const double space_amp = static_cast<double>(store->TotalDiskBytes()) /
                           static_cast<double>(fx.xml.size());
  // Oracles, untimed: the live store against the shadow document.
  std::vector<std::vector<natix::NodeId>> live = StoreAnswers(*store, checker);
  std::vector<std::vector<natix::NodeId>> shadow =
      ReferenceAnswers(gen.shadow(), checker);
  checker->MaybePerturb(&shadow[0]);
  CheckAnswers(live, shadow, "live store differs from the shadow document",
               checker);
  fx.store.reset();  // joins the WAL flusher before the log is reopened

  natix::RecoveryInfo info;
  uint64_t recover_ns = 0;
  EnableTracing(phase.traced);
  {
    TraceWindow window;
    auto file = natix::PosixFileBackend::Open(wal_path);
    checker->CheckStatus(file.status(), "reopen log");
    if (file.ok()) {
      std::unique_ptr<natix::FileBackend> backend = *std::move(file);
      if (phase.traced) {
        backend = std::make_unique<TimedBackend>(std::move(backend), &io);
      }
      const CpuPin pin(kFlusherCpu);
      natix::Result<natix::NatixStore> recovered =
          TimedCall("storage.recovery:recover", &recover_ns, [&] {
            return natix::NatixStore::Recover(std::move(backend), &info);
          });
      EnableTracing(false);
      checker->CheckStatus(recovered.status(), "recover");
      if (recovered.ok()) {
        CheckAnswers(StoreAnswers(*recovered, checker), live,
                     "recovered store differs from the live store", checker);
      }
    }
  }
  EnableTracing(false);

  Outcome out;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["rss_mb"] = rss_mb;
  out.end_to_end["ops_per_s"] = Median(round_rate);
  out.end_to_end["p50_us"] = Median(round_p50);
  out.end_to_end["tail_us"] = Median(round_p99);
  out.end_to_end["bytes_per_op"] =
      static_cast<double>(w1.wal_bytes - w0.wal_bytes) /
      static_cast<double>(std::max<size_t>(1, ledger.all_us.size()));
  out.end_to_end["space_amp"] = space_amp;
  out.named["update.ops_per_s"] = out.end_to_end["ops_per_s"];
  out.named["update.op_p50_us"] = out.end_to_end["p50_us"];
  out.named["update.op_p99_us"] = out.end_to_end["tail_us"];
  out.named["update.bytes_per_op"] = out.end_to_end["bytes_per_op"];
  out.named["update.recover_ms"] = static_cast<double>(recover_ns) / 1e6;
  out.named["update.ops"] = static_cast<double>(ledger.all_us.size());
  out.named["update.checkpoints"] = static_cast<double>(checkpoint_ms.size());
  out.named["update.nodes"] = static_cast<double>(fx.doc.tree.size());

  if (phase.traced) {
    FillFixtureLayers(fx, &out);
    ledger.FillLayers(&out);
    FillStoreLayers(u0, u1, w0, w1, ledger.all_us.size(), &out);
    out.layers["storage.wal.final_sync_ms"] =
        static_cast<double>(sync_ns) / 1e6;
    out.layers["storage.checkpoint.ms"] = Median(checkpoint_ms);
    out.layers["storage.checkpoint.bytes"] = Median(checkpoint_bytes);
    out.layers["storage.recovery.ms"] = static_cast<double>(recover_ns) / 1e6;
    out.layers["storage.recovery.entries_scanned"] =
        static_cast<double>(info.entries_scanned);
    out.layers["storage.recovery.replayed_ops"] =
        static_cast<double>(info.replayed_ops);
    FillBackendLayers(io, &out);
    AddTraceLayers(&out);
  }
  return out;
}

namespace {

/// The serve oracle: `got` must equal the reference evaluator over the
/// snapshot's MaterializeDocument().
void CheckSnapshotAnswer(const natix::StoreSnapshot& snap, size_t q,
                         const std::vector<natix::NodeId>& got,
                         Checker* checker) {
  Span oracle("bench:oracle");
  natix::Result<natix::ImportedDocument> doc = snap.MaterializeDocument();
  checker->CheckStatus(doc.status(), "materialize snapshot");
  if (!doc.ok()) return;
  natix::Result<std::vector<natix::NodeId>> want =
      natix::EvaluateOnTree(doc->tree, ParsedQueries()[q]);
  checker->CheckStatus(want.status(), "reference evaluator");
  if (!want.ok()) return;
  checker->MaybePerturb(&*want);
  checker->Check(*want == got,
                 std::string(natix::XPathMarkQueries()[q].id) +
                     ": snapshot answer differs from the reference evaluator");
}

}  // namespace

Outcome RunServe(const Args& args, const Phase& phase, Checker* checker) {
  const std::string wal_path = args.workdir + "/serve.wal";
  BackendCounters io;
  XmarkFixture fx;
  const double setup_s =
      SetUpRepeated(args, phase, wal_path, &io, &fx, checker);
  if (setup_s < 0) return {};
  natix::NatixStore* store = &*fx.store;
  OpStream gen(fx.doc.tree.Clone(), args.seed);
  const std::vector<natix::XPathMarkQuery>& texts = natix::XPathMarkQueries();
  natix::Rng rng(args.seed);
  std::vector<size_t> order(texts.size());
  std::iota(order.begin(), order.end(), 0);
  // Seeded sample of the reader answers the oracle checks.
  std::vector<uint64_t> sample;
  for (int i = 0; i < kSampledAnswers; ++i) {
    sample.push_back(static_cast<uint64_t>(i) * 40 + rng.NextBounded(40));
  }

  const natix::UpdateStats u0 = store->update_stats();
  const natix::WalStats w0 = store->wal_stats();
  const natix::MvccStats m0 = store->mvcc_stats();
  MutationLedger ledger;
  QueryLedger queries;
  std::vector<double> open_us;
  // Per unit: reader queries per second of reader time (open, parse,
  // evaluate, close), writer ops per second of mutation-call time, and
  // the p50 / p95 of those calls. The run reports their medians, so a unit
  // disturbed by other load on the host (or by an oracle check) does not
  // move the figures.
  const size_t units = std::max<size_t>(
      3, static_cast<size_t>(std::lround(phase.seconds * kUnitsPerSecond)));
  std::vector<double> unit_reader_rate, unit_writer_rate, unit_p50, unit_p95;
  uint64_t held_peak = 0, sync_ns = 0;

  ResetPeakRss();
  ClearTrace();
  EnableTracing(phase.traced);
  {
    const CpuPin pin(0);
    TraceWindow window;
    uint64_t served = 0;
    for (size_t unit = 0; unit < units; ++unit) {
      const size_t first_op = ledger.all_us.size();
      const uint64_t busy0 = ledger.busy_ns;
      uint64_t reader_ns = 0;
      size_t unit_queries = 0;
      for (size_t sweep = 0; sweep < kSweepsPerUnit; ++sweep) {
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1], order[rng.NextBounded(i)]);
        }
        for (const size_t q : order) {
          SetTraceOp(NewTraceOp());
          uint64_t open_ns = 0, parse_ns = 0, eval_ns = 0, close_ns = 0;
          std::optional<natix::StoreSnapshot> snap;
          TimedCall("storage.mvcc:open", &open_ns, [&] {
            snap.emplace(store->OpenSnapshot());
            return 0;
          });
          // The writer goes on while the snapshot is open: every page it
          // dirties is retired copy-on-write, and the query below reads
          // those pages as of the snapshot.
          for (size_t i = 0; i < kOpsPerQuery; ++i) {
            RunOp(&gen, store, &ledger, checker);
          }
          natix::Result<natix::PathExpr> path =
              TimedCall("query:parse", &parse_ns,
                        [&] { return natix::ParseXPath(texts[q].text); });
          natix::AccessStats stats;
          natix::Result<std::vector<natix::NodeId>> got =
              natix::Status::Internal("not evaluated");
          if (path.ok()) {
            natix::StoreQueryEvaluator eval(&*snap, &stats);
            got = TimedCall("query:eval", &eval_ns,
                            [&] { return eval.Evaluate(*path); });
          } else {
            got = path.status();
          }
          checker->CheckStatus(got.status(), "reader query");
          if (got.ok() && std::find(sample.begin(), sample.end(), served) !=
                              sample.end()) {
            CheckSnapshotAnswer(*snap, q, *got, checker);
          }
          ++served;
          held_peak = std::max(held_peak, store->mvcc_stats().held_bytes);
          TimedCall("storage.mvcc:close", &close_ns, [&] {
            snap.reset();
            return 0;
          });
          if (!got.ok()) continue;
          const uint64_t latency_ns = open_ns + parse_ns + eval_ns + close_ns;
          open_us.push_back(static_cast<double>(open_ns) / 1e3);
          queries.Add(q, parse_ns, eval_ns, latency_ns, stats, got->size());
          reader_ns += latency_ns;
          ++unit_queries;
        }
      }
      const std::vector<double> writes(ledger.all_us.begin() + first_op,
                                       ledger.all_us.end());
      if (reader_ns > 0) {
        unit_reader_rate.push_back(static_cast<double>(unit_queries) * 1e9 /
                                   static_cast<double>(reader_ns));
      }
      if (ledger.busy_ns > busy0) {
        unit_writer_rate.push_back(static_cast<double>(writes.size()) * 1e9 /
                                   static_cast<double>(ledger.busy_ns - busy0));
        unit_p50.push_back(Percentile(writes, 50));
        unit_p95.push_back(Percentile(writes, 95));
      }
    }
    const natix::Status st = TimedCall("storage.wal:sync", &sync_ns,
                                       [&] { return store->SyncWal(); });
    checker->CheckStatus(st, "final SyncWal");
  }
  EnableTracing(false);
  const double rss_mb = PeakRssMb();

  checker->Check(store->open_snapshot_count() == 0, "snapshots left open");
  const natix::MvccStats m1 = store->mvcc_stats();
  checker->Check(m1.held_bytes == 0,
                 "retired page images held with no snapshot open");
  CheckAnswers(StoreAnswers(*store, checker),
               ReferenceAnswers(gen.shadow(), checker),
               "live store differs from the shadow document", checker);
  const natix::UpdateStats u1 = store->update_stats();
  const natix::WalStats w1 = store->wal_stats();

  const double writer_ops = static_cast<double>(ledger.all_us.size());
  Outcome out;
  out.end_to_end["setup_s"] = setup_s;
  out.end_to_end["rss_mb"] = rss_mb;
  out.end_to_end["ops_per_s"] = Median(unit_reader_rate);
  out.end_to_end["p50_us"] = Median(unit_p50);
  out.end_to_end["tail_us"] = Median(unit_p95);
  out.end_to_end["bytes_per_op"] =
      writer_ops > 0
          ? static_cast<double>(w1.wal_bytes - w0.wal_bytes) / writer_ops
          : 0;
  out.end_to_end["space_amp"] = static_cast<double>(store->TotalDiskBytes()) /
                                static_cast<double>(fx.xml.size());
  out.named["serve.reader_queries_per_s"] = out.end_to_end["ops_per_s"];
  out.named["serve.reader_query_p50_us"] = Percentile(queries.latency_us, 50);
  out.named["serve.writer_ops_per_s"] = Median(unit_writer_rate);
  out.named["serve.write_p50_us"] = out.end_to_end["p50_us"];
  out.named["serve.write_p95_us"] = out.end_to_end["tail_us"];
  out.named["serve.write_p99_us"] = Percentile(ledger.all_us, 99);
  out.named["serve.writer_ops"] = writer_ops;
  out.named["serve.reader_queries"] = static_cast<double>(queries.count());
  fx.store.reset();  // joins the WAL flusher before its spans are read

  if (phase.traced) {
    FillFixtureLayers(fx, &out);
    ledger.FillLayers(&out);
    queries.FillLayers(&out);
    FillStoreLayers(u0, u1, w0, w1, ledger.all_us.size(), &out);
    out.layers["storage.wal.final_sync_ms"] =
        static_cast<double>(sync_ns) / 1e6;
    out.layers["storage.mvcc.open_snapshot_p50_us"] = Percentile(open_us, 50);
    out.layers["storage.mvcc.open_snapshot_p99_us"] = Percentile(open_us, 99);
    out.layers["storage.mvcc.retired_bytes"] =
        static_cast<double>(m1.retired_bytes - m0.retired_bytes);
    out.layers["storage.mvcc.held_bytes_peak"] =
        static_cast<double>(held_peak);
    out.layers["storage.mvcc.snapshot_reads"] =
        static_cast<double>(m1.snapshot_reads - m0.snapshot_reads);
    FillBackendLayers(io, &out);
    AddTraceLayers(&out);
  }
  return out;
}

}  // namespace perfbench
