// The `query` workload: one closed-loop client runs the read-only
// XPathMark queries Q1-Q7 against an EKM-partitioned XMark store (record
// format v3). Queries go through an LruBufferPool holding about an eighth
// of the pages; misses read sealed cells through FilePageSource from a
// page file on local disk. Each sweep runs the seven queries in a seeded
// shuffled order, so the query mix is exact.
#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "decorators.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/xpathmark.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr double kXmarkScale = 0.1;
/// Floor on measured queries per run (30 sweeps), so the p95 has at
/// least ten samples beyond it.
constexpr size_t kMinQueries = 210;
/// Pool frames = pages / kPoolFraction: the working set exceeds the pool.
constexpr size_t kPoolFraction = 8;

}  // namespace

Outcome RunQuery(const Args& args, const Phase& phase, Checker* checker) {
  const std::string page_path = args.workdir + "/query.pages";
  XmarkFixture fx;
  std::vector<double> setup_s;
  double flush_ms = 0;
  while (MoreSetups(phase, setup_s)) {
    fx = XmarkFixture();
    const uint64_t t0 = NowNs();
    natix::Status st =
        BuildXmarkFixture(args.seed, kXmarkScale * args.size, &fx);
    const uint64_t t1 = NowNs();
    if (st.ok()) {
      auto file = natix::PosixFileBackend::Open(page_path);
      st = file.ok() ? fx.store->FlushPagesTo(file->get()) : file.status();
    }
    const uint64_t t2 = NowNs();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    flush_ms = static_cast<double>(t2 - t1) / 1e6;
    checker->CheckStatus(st, "query set-up");
    if (!st.ok()) return {};
  }
  // Oracle: the reference evaluator on the imported document.
  std::vector<std::vector<natix::NodeId>> expected =
      ReferenceAnswers(fx.doc.tree, checker);
  checker->MaybePerturb(&expected[0]);

  const natix::NatixStore& store = *fx.store;
  BackendCounters io;
  auto opened = natix::PosixFileBackend::Open(page_path);
  checker->CheckStatus(opened.status(), "open page file");
  if (!opened.ok()) return {};
  std::unique_ptr<natix::FileBackend> file = *std::move(opened);
  if (phase.traced) {
    file = std::make_unique<TimedBackend>(std::move(file), &io);
  }
  natix::FilePageSource source(file.get(), store.page_size(),
                               store.page_provider());
  TimedPageSource timed_source(&source);
  const natix::PageProvider* provider =
      phase.traced ? static_cast<const natix::PageProvider*>(&timed_source)
                   : &source;
  const size_t frames =
      std::max<size_t>(4, store.regular_page_count() / kPoolFraction);
  natix::Result<natix::LruBufferPool> pool =
      natix::LruBufferPool::Create(frames);
  checker->CheckStatus(pool.status(), "create pool");
  if (!pool.ok()) return {};
  const natix::StoreSnapshot snap = store.OpenSnapshot();
  natix::AccessStats stats;
  natix::StoreQueryEvaluator eval(&snap, &stats, &*pool, provider);
  const std::vector<natix::XPathMarkQuery>& queries = natix::XPathMarkQueries();

  // One unmeasured sweep fills the pool and the evaluator's caches.
  for (const natix::PathExpr& path : ParsedQueries()) {
    checker->CheckStatus(eval.Evaluate(path).status(), "warm-up query");
  }
  const natix::BufferStats pool0 = pool->stats();
  const natix::IntegrityStats source0 = source.stats();
  io.Reset();

  natix::Rng order_rng(args.seed);
  std::vector<size_t> order(queries.size());
  std::iota(order.begin(), order.end(), 0);
  QueryLedger ledger;
  // Queries per second of each sweep; their median is the run's rate.
  std::vector<double> sweep_rates;
  const size_t min_queries =
      std::max<size_t>(queries.size(),
                       static_cast<size_t>(kMinQueries * std::min(1.0, args.size)));

  ResetPeakRss();
  ClearTrace();
  EnableTracing(phase.traced);
  {
    const CpuPin pin(0);
    TraceWindow window;
    const uint64_t start = NowNs();
    while (ledger.count() < min_queries ||
           static_cast<double>(NowNs() - start) < phase.seconds * 1e9) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.NextBounded(i)]);
      }
      uint64_t sweep_ns = 0;
      for (const size_t q : order) {
        SetTraceOp(NewTraceOp());
        const natix::AccessStats before = stats;
        uint64_t parse_ns = 0, eval_ns = 0;
        natix::Result<natix::PathExpr> path = TimedCall(
            "query:parse", &parse_ns, [&] { return natix::ParseXPath(queries[q].text); });
        if (!path.ok()) {
          checker->CheckStatus(path.status(), "parse");
          continue;
        }
        natix::Result<std::vector<natix::NodeId>> got =
            TimedCall("query:eval", &eval_ns, [&] { return eval.Evaluate(*path); });
        sweep_ns += parse_ns + eval_ns;
        Span oracle("bench:oracle");
        if (!got.ok()) {
          checker->CheckStatus(got.status(), "evaluate");
          continue;
        }
        checker->Check(*got == expected[q],
                       std::string(queries[q].id) + " answer differs from the "
                                                    "reference evaluator");
        natix::AccessStats delta;
        delta.intra_moves = stats.intra_moves - before.intra_moves;
        delta.record_crossings = stats.record_crossings - before.record_crossings;
        delta.page_switches = stats.page_switches - before.page_switches;
        ledger.Add(q, parse_ns, eval_ns, parse_ns + eval_ns, delta, got->size());
      }
      sweep_rates.push_back(static_cast<double>(order.size()) * 1e9 /
                            static_cast<double>(std::max<uint64_t>(1, sweep_ns)));
    }
  }
  EnableTracing(false);
  const double rss_mb = PeakRssMb();

  const natix::BufferStats pool1 = pool->stats();
  const natix::IntegrityStats source1 = source.stats();
  const double n = static_cast<double>(std::max<size_t>(1, ledger.count()));
  Outcome out;
  out.end_to_end["setup_s"] = Median(setup_s);
  out.end_to_end["rss_mb"] = rss_mb;
  out.end_to_end["ops_per_s"] = Median(sweep_rates);
  out.end_to_end["p50_us"] = Percentile(ledger.latency_us, 50);
  out.end_to_end["tail_us"] = Percentile(ledger.latency_us, 95);
  out.end_to_end["bytes_per_op"] =
      static_cast<double>(pool1.bytes_read - pool0.bytes_read) / n;
  out.end_to_end["space_amp"] = static_cast<double>(store.TotalDiskBytes()) /
                                static_cast<double>(fx.xml.size());
  out.named["query.queries_per_s"] = out.end_to_end["ops_per_s"];
  out.named["query.p50_ms"] = out.end_to_end["p50_us"] / 1e3;
  out.named["query.p95_ms"] = out.end_to_end["tail_us"] / 1e3;
  out.named["query.queries"] = static_cast<double>(ledger.count());
  out.named["query.pages"] = static_cast<double>(store.regular_page_count());
  out.named["query.pool_frames"] = static_cast<double>(frames);
  out.named["query.nodes"] = static_cast<double>(fx.doc.tree.size());

  if (phase.traced) {
    ledger.FillLayers(&out);
    const uint64_t accesses = pool1.accesses - pool0.accesses;
    out.layers["storage.pool.hit_ratio"] =
        accesses == 0 ? 0.0
                      : static_cast<double>(pool1.hits - pool0.hits) /
                            static_cast<double>(accesses);
    out.layers["storage.pool.misses_per_query"] =
        static_cast<double>(pool1.misses - pool0.misses) / n;
    out.layers["storage.pool.evictions"] =
        static_cast<double>(pool1.evictions - pool0.evictions);
    out.layers["storage.page_source.reads"] =
        static_cast<double>(source1.pages_read - source0.pages_read);
    out.layers["storage.page_source.retries"] =
        static_cast<double>(source1.transient_retries -
                            source0.transient_retries);
    FillFixtureLayers(fx, &out);
    out.layers["storage.flush_ms"] = flush_ms;
    FillBackendLayers(io, &out);
    AddTraceLayers(&out);
  }
  return out;
}

}  // namespace perfbench
