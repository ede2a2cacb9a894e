// The `load` workload: the paper's six-document corpus (Table 1), each
// document imported, partitioned by sequential DHW, built into a v3 store
// and flushed to a sealed page file on local disk. DHW does most of the
// work here and none in the other workloads.
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "core/exact_algorithms.h"
#include "core/heuristics.h"
#include "datagen/generator.h"
#include "decorators.h"
#include "storage/page_integrity.h"
#include "trace.h"

namespace perfbench {

namespace {

/// Corpus scale: at this size the flat `partsupp` and `orders` documents
/// still take about 84% of DHW's solve time per round (perfbench/README.md
/// gives the measured split), and a round fits several times in a run.
constexpr double kCorpusScale = 0.02;
/// Seeded instances of each document: a round loads all of them, so one
/// instance's shape does not decide the run's figures.
constexpr uint64_t kInstances = 4;

struct CorpusDoc {
  /// Index into CorpusNames().
  size_t kind = 0;
  std::string name;
  std::string xml;
  /// EKM's partition count: DHW (optimal) must never exceed it.
  size_t ekm_partitions = 0;
};

}  // namespace

Outcome RunLoad(const Args& args, const Phase& phase, Checker* checker) {
  const double scale = kCorpusScale * args.size;
  std::vector<CorpusDoc> corpus;
  std::vector<double> setup_s;
  while (MoreSetups(phase, setup_s)) {
    corpus.clear();
    const uint64_t t0 = NowNs();
    for (uint64_t instance = 0; instance < kInstances; ++instance) {
      for (size_t kind = 0; kind < CorpusNames().size(); ++kind) {
        const std::string& name = CorpusNames()[kind];
        natix::Result<std::string> xml = natix::GenerateDocument(
            name, args.seed * kInstances + instance, scale);
        checker->CheckStatus(xml.status(), "generate " + name);
        if (!xml.ok()) return {};
        corpus.push_back({kind, name, *std::move(xml), 0});
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  // Oracle input, outside every timed interval.
  for (CorpusDoc& doc : corpus) {
    natix::Result<natix::ImportedDocument> imp =
        natix::ImportXml(doc.xml, CorpusWeightModel());
    if (!imp.ok()) continue;  // the timed import reports it
    const natix::Result<natix::Partitioning> ekm =
        natix::EkmPartition(imp->tree, kLimit);
    checker->CheckStatus(ekm.status(), "EKM on " + doc.name);
    doc.ekm_partitions = ekm.ok() ? ekm->size() : 0;
  }

  const std::string page_path = args.workdir + "/load.pages";
  BackendCounters io;
  natix::DhwOptions dhw;
  dhw.num_threads = 1;
  natix::Rng order_rng(args.seed);
  std::vector<size_t> order(corpus.size());
  std::iota(order.begin(), order.end(), 0);

  // Pipeline time of each document, per round: its median over the rounds
  // keeps a round disturbed by other load on the host out of the figures.
  std::vector<std::vector<double>> doc_us(corpus.size());
  std::vector<size_t> doc_nodes(corpus.size(), 0);
  uint64_t file_bytes = 0, nodes = 0;
  uint64_t import_ns = 0, build_ns = 0, flush_ns = 0;
  uint64_t disk_bytes = 0, source_bytes = 0;
  natix::DhwPhaseTimings dhw_total;
  // Per document kind, summed over its instances.
  std::vector<double> solve_ms(CorpusNames().size(), 0);
  std::vector<size_t> partitions(CorpusNames().size(), 0);
  size_t rounds = 0;
  // One round's layout (the corpus is the same every round).
  double pages = 0, records = 0, round_disk_bytes = 0;

  ResetPeakRss();
  ClearTrace();
  EnableTracing(phase.traced);
  {
    const CpuPin pin(0);
    TraceWindow window;
    const uint64_t start = NowNs();
    // Whole rounds only, so every document weighs the same in the sample.
    while (rounds == 0 ||
           static_cast<double>(NowNs() - start) < phase.seconds * 1e9) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.NextBounded(i)]);
      }
      for (const size_t d : order) {
        const CorpusDoc& doc = corpus[d];
        SetTraceOp(NewTraceOp());
        uint64_t t_import = 0, t_dhw = 0, t_build = 0, t_flush = 0;
        natix::Result<natix::ImportedDocument> imp =
            TimedCall("xml:import", &t_import, [&] {
              return natix::ImportXml(doc.xml, CorpusWeightModel());
            });
        checker->CheckStatus(imp.status(), "import " + doc.name);
        if (!imp.ok()) continue;
        natix::DhwPhaseTimings timings;
        natix::Result<natix::Partitioning> part =
            TimedCall("core:dhw", &t_dhw, [&] {
              return natix::DhwPartition(imp->tree, kLimit, dhw, nullptr,
                                         &timings);
            });
        checker->CheckStatus(part.status(), "DHW on " + doc.name);
        if (!part.ok()) continue;
        {
          Span oracle("bench:oracle");
          natix::Partitioning checked = *part;
          if (checker->PlantFault()) {
            // Drop the root interval: the partitioning is then infeasible.
            checked = natix::Partitioning();
            for (size_t k = 1; k < part->size(); ++k) checked.Add((*part)[k]);
          }
          checker->CheckStatus(
              natix::CheckFeasible(imp->tree, checked, kLimit),
              "DHW feasibility on " + doc.name);
          checker->Check(part->size() <= doc.ekm_partitions,
                         "DHW count above EKM's on " + doc.name);
        }
        doc_nodes[d] = imp->tree.size();
        natix::Result<natix::NatixStore> store =
            TimedCall("storage.build:build", &t_build, [&] {
              return natix::NatixStore::Build(*std::move(imp), *part, kLimit);
            });
        checker->CheckStatus(store.status(), "build " + doc.name);
        if (!store.ok()) continue;
        const natix::Status flushed =
            TimedCall("storage.flush:flush", &t_flush, [&]() -> natix::Status {
              auto file = natix::PosixFileBackend::Open(page_path);
              if (!file.ok()) return file.status();
              std::unique_ptr<natix::FileBackend> backend = *std::move(file);
              if (phase.traced) {
                backend = std::make_unique<TimedBackend>(std::move(backend),
                                                         &io);
              }
              return store->FlushPagesTo(backend.get());
            });
        checker->CheckStatus(flushed, "flush " + doc.name);

        const uint64_t doc_ns = t_import + t_dhw + t_build + t_flush;
        doc_us[d].push_back(static_cast<double>(doc_ns) / 1e3);
        nodes += doc_nodes[d];
        import_ns += t_import;
        build_ns += t_build;
        flush_ns += t_flush;
        file_bytes += store->regular_page_count() *
                      (store->page_size() + natix::kPageCellOverhead);
        disk_bytes += store->TotalDiskBytes();
        source_bytes += doc.xml.size();
        dhw_total.setup_ms += timings.setup_ms;
        dhw_total.leaf_ms += timings.leaf_ms;
        dhw_total.solve_ms += timings.solve_ms;
        dhw_total.extract_ms += timings.extract_ms;
        solve_ms[doc.kind] += timings.solve_ms;
        if (rounds == 0) {
          partitions[doc.kind] += part->size();
          pages += static_cast<double>(store->page_count());
          records += static_cast<double>(store->record_count());
          round_disk_bytes += static_cast<double>(store->TotalDiskBytes());
        }
      }
      ++rounds;
    }
  }
  EnableTracing(false);

  Outcome out;
  out.end_to_end["rss_mb"] = PeakRssMb();
  std::vector<double> median_us;
  double corpus_us = 0, corpus_nodes = 0;
  for (size_t d = 0; d < corpus.size(); ++d) {
    median_us.push_back(Median(doc_us[d]));
    corpus_us += median_us.back();
    corpus_nodes += static_cast<double>(doc_nodes[d]);
  }
  out.end_to_end["setup_s"] = Median(setup_s);
  out.end_to_end["ops_per_s"] = corpus_us > 0 ? corpus_nodes / corpus_us * 1e6 : 0;
  out.end_to_end["p50_us"] = Percentile(median_us, 50);
  out.end_to_end["tail_us"] = Percentile(median_us, 95);
  out.end_to_end["bytes_per_op"] =
      nodes > 0 ? static_cast<double>(file_bytes) / static_cast<double>(nodes)
                : 0;
  out.end_to_end["space_amp"] =
      source_bytes > 0 ? static_cast<double>(disk_bytes) /
                             static_cast<double>(source_bytes)
                       : 0;
  out.named["load.nodes_per_s"] = out.end_to_end["ops_per_s"];
  out.named["load.space_amp"] = out.end_to_end["space_amp"];
  out.named["load.doc_p50_us"] = out.end_to_end["p50_us"];
  out.named["load.doc_p95_us"] = out.end_to_end["tail_us"];
  out.named["load.documents"] = static_cast<double>(corpus.size());
  out.named["load.rounds"] = static_cast<double>(rounds);

  if (phase.traced) {
    const double r = static_cast<double>(rounds);
    out.layers["core.dhw_setup_ms"] = dhw_total.setup_ms / r;
    out.layers["core.dhw_leaf_ms"] = dhw_total.leaf_ms / r;
    out.layers["core.dhw_solve_ms"] = dhw_total.solve_ms / r;
    out.layers["core.dhw_extract_ms"] = dhw_total.extract_ms / r;
    for (size_t k = 0; k < CorpusNames().size(); ++k) {
      out.layers["core.dhw_solve_ms." + CorpusNames()[k]] = solve_ms[k] / r;
      out.layers["core.partitions." + CorpusNames()[k]] =
          static_cast<double>(partitions[k]);
    }
    out.layers["xml.import_ms"] = static_cast<double>(import_ns) / 1e6 / r;
    out.layers["storage.build_ms"] = static_cast<double>(build_ns) / 1e6 / r;
    out.layers["storage.flush_ms"] = static_cast<double>(flush_ns) / 1e6 / r;
    out.layers["storage.pages"] = pages;
    out.layers["storage.records"] = records;
    out.layers["storage.disk_bytes"] = round_disk_bytes;
    FillBackendLayers(io, &out);
    AddTraceLayers(&out);
  }
  return out;
}

}  // namespace perfbench
