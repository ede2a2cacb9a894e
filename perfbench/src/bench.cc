#include "bench.h"

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "core/heuristics.h"
#include "datagen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/reference_evaluator.h"
#include "query/xpathmark.h"
#include "decorators.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Layers whose self time the traced run reports (span name prefixes).
const std::vector<std::string>& TracedLayers() {
  static const std::vector<std::string> layers = {
      "core",           "xml",
      "storage.build",  "storage.flush",
      "query",          "storage.page_source",
      "storage.backend", "storage.store",
      "storage.checkpoint", "storage.wal",
      "storage.recovery", "storage.mvcc",
      "bench"};
  return layers;
}

constexpr int kMaxReportedFailures = 5;

}  // namespace

void Checker::Check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= kMaxReportedFailures) {
    std::fprintf(stderr, "perfbench: check failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

bool Checker::PlantFault() {
  if (!plant_fault_ || planted_) return false;
  planted_ = true;
  return true;
}

void Checker::MaybePerturb(std::vector<natix::NodeId>* want) {
  if (PlantFault()) want->push_back(natix::kInvalidNode - 1);
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},       {"rss_mb", "MB"},
      {"ops_per_s", "1/s"},   {"p50_us", "us"},
      {"tail_us", "us"},      {"bytes_per_op", "B"},
      {"space_amp", "ratio"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> m;
    const auto add = [&m](std::string name, const char* unit) {
      m.push_back({std::move(name), unit});
    };
    for (const char* p : {"setup", "leaf", "solve", "extract"}) {
      add(std::string("core.dhw_") + p + "_ms", "ms");
    }
    for (const std::string& doc : CorpusNames()) {
      add("core.dhw_solve_ms." + doc, "ms");
    }
    for (const std::string& doc : CorpusNames()) {
      add("core.partitions." + doc, "count");
    }
    add("xml.import_ms", "ms");
    add("storage.build_ms", "ms");
    add("storage.flush_ms", "ms");
    add("storage.pages", "count");
    add("storage.records", "count");
    add("storage.disk_bytes", "B");
    add("query.count", "count");
    add("query.parse_us", "us");
    for (const natix::XPathMarkQuery& q : natix::XPathMarkQueries()) {
      add("query.eval_ms." + std::string(q.id), "ms");
    }
    for (const char* what : {"crossings", "intra_moves", "results"}) {
      for (const natix::XPathMarkQuery& q : natix::XPathMarkQueries()) {
        add(std::string("query.") + what + "." + std::string(q.id), "count");
      }
    }
    add("query.page_switches", "count");
    add("storage.pool.hit_ratio", "ratio");
    add("storage.pool.misses_per_query", "count");
    add("storage.pool.evictions", "count");
    add("storage.page_source.reads", "count");
    add("storage.page_source.read_us", "us");
    add("storage.page_source.retries", "count");
    for (const char* io : {"read", "append", "write", "sync"}) {
      add(std::string("storage.backend.") + io + "_calls", "count");
      add(std::string("storage.backend.") + io + "_bytes", "B");
      add(std::string("storage.backend.") + io + "_us", "us");
    }
    for (const char* op : {"insert", "delete", "move", "rename"}) {
      add(std::string("storage.store.") + op + "_p50_us", "us");
      add(std::string("storage.store.") + op + "_p99_us", "us");
    }
    for (const char* c : {"splits", "merges", "records_rewritten",
                          "records_created", "relocations", "compactions"}) {
      add(std::string("updates.") + c + "_per_1k", "count");
    }
    add("storage.wal.fsyncs", "count");
    add("storage.wal.mean_batch_ops", "count");
    add("storage.wal.op_bytes", "B");
    add("storage.wal.append_retries", "count");
    add("storage.wal.final_sync_ms", "ms");
    add("storage.checkpoint.ms", "ms");
    add("storage.checkpoint.bytes", "B");
    add("storage.recovery.ms", "ms");
    add("storage.recovery.entries_scanned", "count");
    add("storage.recovery.replayed_ops", "count");
    add("storage.mvcc.open_snapshot_p50_us", "us");
    add("storage.mvcc.open_snapshot_p99_us", "us");
    add("storage.mvcc.retired_bytes", "B");
    add("storage.mvcc.held_bytes_peak", "B");
    add("storage.mvcc.snapshot_reads", "count");
    for (const std::string& layer : TracedLayers()) {
      add("self_ms." + layer, "ms");
    }
    add("gap_ms", "ms");
    add("trace.overhead_pct", "%");
    return m;
  }();
  return metrics;
}

const std::vector<std::string>& CorpusNames() {
  static const std::vector<std::string> names = {
      "sigmod", "mondial", "partsupp", "uwm", "orders", "xmark"};
  return names;
}

const std::vector<natix::PathExpr>& ParsedQueries() {
  static const std::vector<natix::PathExpr> parsed = [] {
    std::vector<natix::PathExpr> out;
    for (const natix::XPathMarkQuery& q : natix::XPathMarkQueries()) {
      natix::Result<natix::PathExpr> p = natix::ParseXPath(q.text);
      p.status().CheckOK();
      out.push_back(*std::move(p));
    }
    return out;
  }();
  return parsed;
}

bool MoreSetups(const Phase& phase, const std::vector<double>& setup_s) {
  const int n = static_cast<int>(setup_s.size());
  if (n < phase.setups) return true;
  double total = 0;
  for (const double s : setup_s) total += s;
  return phase.setups > 1 && total < 1.0 && n < 50;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = pct / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

CpuPin::CpuPin(unsigned cpu) {
  CPU_ZERO(&saved_);
  if (std::thread::hardware_concurrency() <= cpu ||
      pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) != 0) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
}

void ResetPeakRss() {
  malloc_trim(0);  // hand set-up's freed memory back first
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

natix::WeightModel CorpusWeightModel() {
  natix::WeightModel model;
  model.max_node_slots = static_cast<uint32_t>(kLimit);
  return model;
}

natix::Status BuildXmarkFixture(uint64_t seed, double scale, XmarkFixture* fx) {
  uint64_t t0 = NowNs();
  natix::Result<std::string> xml = natix::GenerateDocument("xmark", seed, scale);
  if (!xml.ok()) return xml.status();
  fx->xml = *std::move(xml);
  natix::Result<natix::ImportedDocument> imp =
      natix::ImportXml(fx->xml, CorpusWeightModel());
  if (!imp.ok()) return imp.status();
  fx->doc = *std::move(imp);
  fx->import_ms = static_cast<double>(NowNs() - t0) / 1e6;
  t0 = NowNs();
  const natix::Result<natix::Partitioning> ekm =
      natix::EkmPartition(fx->doc.tree, kLimit);
  if (!ekm.ok()) return ekm.status();
  natix::Result<natix::NatixStore> store =
      natix::NatixStore::Build(fx->doc.Clone(), *ekm, kLimit);
  if (!store.ok()) return store.status();
  fx->store.emplace(*std::move(store));
  fx->build_ms = static_cast<double>(NowNs() - t0) / 1e6;
  fx->pages = static_cast<double>(fx->store->page_count());
  fx->records = static_cast<double>(fx->store->record_count());
  fx->disk_bytes = static_cast<double>(fx->store->TotalDiskBytes());
  return natix::Status::OK();
}

void FillFixtureLayers(const XmarkFixture& fx, Outcome* out) {
  out->layers["xml.import_ms"] = fx.import_ms;
  out->layers["storage.build_ms"] = fx.build_ms;
  out->layers["storage.pages"] = fx.pages;
  out->layers["storage.records"] = fx.records;
  out->layers["storage.disk_bytes"] = fx.disk_bytes;
}

void AddTraceLayers(Outcome* out) {
  const TraceSummary summary = SummarizeTrace();
  for (const std::string& layer : TracedLayers()) {
    const auto it = summary.self_ms.find(layer);
    out->layers["self_ms." + layer] =
        it == summary.self_ms.end() ? 0.0 : it->second;
  }
  out->layers["gap_ms"] = summary.gap_ms;
  // Page-source self time per read: the decorator span minus the backend
  // read nested in it (cell CRC check and copy included).
  const auto reads = summary.count.find("storage.page_source:read");
  if (reads != summary.count.end() && reads->second > 0) {
    out->layers["storage.page_source.read_us"] =
        summary.self_ms.at("storage.page_source") * 1e3 /
        static_cast<double>(reads->second);
  }
}

void QueryLedger::Add(size_t q, uint64_t parse_ns, uint64_t eval_ns,
                      uint64_t latency_ns, const natix::AccessStats& delta,
                      size_t result_count) {
  eval_ms[q].push_back(static_cast<double>(eval_ns) / 1e6);
  parse_us.push_back(static_cast<double>(parse_ns) / 1e3);
  latency_us.push_back(static_cast<double>(latency_ns) / 1e3);
  crossings[q] += delta.record_crossings;
  intra_moves[q] += delta.intra_moves;
  results[q] += result_count;
  page_switches += delta.page_switches;
}

void QueryLedger::FillLayers(Outcome* out) const {
  const auto per_run = [](uint64_t total, size_t runs) {
    return runs == 0 ? 0.0
                     : static_cast<double>(total) / static_cast<double>(runs);
  };
  out->layers["query.count"] = static_cast<double>(count());
  out->layers["query.parse_us"] = Median(parse_us);
  const std::vector<natix::XPathMarkQuery>& queries = natix::XPathMarkQueries();
  for (size_t q = 0; q < queries.size(); ++q) {
    const std::string id(queries[q].id);
    const size_t runs = eval_ms[q].size();
    out->layers["query.eval_ms." + id] = Median(eval_ms[q]);
    out->layers["query.crossings." + id] = per_run(crossings[q], runs);
    out->layers["query.intra_moves." + id] = per_run(intra_moves[q], runs);
    out->layers["query.results." + id] = per_run(results[q], runs);
  }
  out->layers["query.page_switches"] = per_run(page_switches, count());
}

void MutationLedger::Add(size_t kind, uint64_t ns) {
  const double us = static_cast<double>(ns) / 1e3;
  all_us.push_back(us);
  by_kind_us[kind].push_back(us);
  busy_ns += ns;
}

void MutationLedger::FillLayers(Outcome* out) const {
  const char* kinds[] = {"insert", "delete", "move", "rename"};
  for (size_t k = 0; k < 4; ++k) {
    const std::string base = std::string("storage.store.") + kinds[k];
    out->layers[base + "_p50_us"] = Percentile(by_kind_us[k], 50);
    out->layers[base + "_p99_us"] = Percentile(by_kind_us[k], 99);
  }
}

void FillBackendLayers(const BackendCounters& io, Outcome* out) {
  const std::pair<const char*, const IoCounter*> kinds[] = {
      {"read", &io.read},
      {"append", &io.append},
      {"write", &io.write},
      {"sync", &io.sync}};
  for (const auto& [name, c] : kinds) {
    const std::string base = std::string("storage.backend.") + name;
    out->layers[base + "_calls"] = static_cast<double>(c->calls.load());
    out->layers[base + "_bytes"] = static_cast<double>(c->bytes.load());
    out->layers[base + "_us"] = static_cast<double>(c->ns.load()) / 1e3;
  }
}

void FillStoreLayers(const natix::UpdateStats& u0,
                     const natix::UpdateStats& u1, const natix::WalStats& w0,
                     const natix::WalStats& w1, uint64_t ops, Outcome* out) {
  const double per_1k = ops == 0 ? 0.0 : 1000.0 / static_cast<double>(ops);
  const auto rate = [per_1k](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a) * per_1k;
  };
  out->layers["updates.splits_per_1k"] = rate(u0.splits, u1.splits);
  out->layers["updates.merges_per_1k"] = rate(u0.merges, u1.merges);
  out->layers["updates.records_rewritten_per_1k"] =
      rate(u0.records_rewritten, u1.records_rewritten);
  out->layers["updates.records_created_per_1k"] =
      rate(u0.records_created, u1.records_created);
  out->layers["updates.relocations_per_1k"] =
      rate(u0.relocations, u1.relocations);
  out->layers["updates.compactions_per_1k"] =
      rate(u0.compactions, u1.compactions);
  out->layers["storage.wal.fsyncs"] = static_cast<double>(w1.fsyncs - w0.fsyncs);
  const uint64_t batches = w1.sync_batches - w0.sync_batches;
  out->layers["storage.wal.mean_batch_ops"] =
      batches == 0 ? 0.0
                   : static_cast<double>(w1.synced_entries - w0.synced_entries) /
                         static_cast<double>(batches);
  out->layers["storage.wal.op_bytes"] =
      static_cast<double>(w1.op_bytes - w0.op_bytes);
  out->layers["storage.wal.append_retries"] =
      static_cast<double>(w1.append_retries - w0.append_retries);
}

std::vector<std::vector<natix::NodeId>> ReferenceAnswers(
    const natix::Tree& tree, Checker* checker) {
  std::vector<std::vector<natix::NodeId>> out;
  for (const natix::PathExpr& path : ParsedQueries()) {
    natix::Result<std::vector<natix::NodeId>> got =
        natix::EvaluateOnTree(tree, path);
    if (!got.ok()) checker->CheckStatus(got.status(), "reference evaluator");
    out.push_back(got.ok() ? *std::move(got) : std::vector<natix::NodeId>{});
  }
  return out;
}

std::vector<std::vector<natix::NodeId>> StoreAnswers(
    const natix::NatixStore& store, Checker* checker) {
  std::vector<std::vector<natix::NodeId>> out;
  natix::AccessStats stats;
  natix::StoreQueryEvaluator eval(&store, &stats);
  for (const natix::PathExpr& path : ParsedQueries()) {
    natix::Result<std::vector<natix::NodeId>> got = eval.Evaluate(path);
    if (!got.ok()) checker->CheckStatus(got.status(), "store evaluator");
    out.push_back(got.ok() ? *std::move(got) : std::vector<natix::NodeId>{});
  }
  return out;
}

}  // namespace perfbench
