#ifndef NATIX_PERFBENCH_BENCH_H_
#define NATIX_PERFBENCH_BENCH_H_

#include <sched.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "storage/store.h"
#include "xml/importer.h"

// Shared pieces of the four workloads: arguments, the metric catalogue,
// the correctness ledger, sample statistics and document generation.
namespace perfbench {

/// The paper's weight limit K (Table 1), in slots.
inline constexpr natix::TotalWeight kLimit = 256;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Multiplies every document scale and op-count floor (the self-tests
  /// run at a small size).
  double size = 1.0;
  /// Perturbs one expected answer per workload, so the oracles must
  /// report failures (self-test of the checks themselves).
  bool plant_fault = false;
  /// Directory for page files, logs and the span dump.
  std::string workdir = ".";
};

/// How one measured phase runs: traced phases install the decorators and
/// record spans; untraced phases time the bare library.
struct Phase {
  bool traced = false;
  double seconds = 10;
  /// Times the set-up is at least repeated; setup_s is their median.
  int setups = 1;
};

/// True while another set-up repetition is due: fewer than
/// `phase.setups` so far or, when the phase repeats at all, less than a
/// second spent in them (cheap set-ups repeat more, up to 50).
bool MoreSetups(const Phase& phase, const std::vector<double>& setup_s);

/// Counts attempted ops, queries and checks against failed calls and
/// wrong answers. Reasons for the first few failures go to stderr.
class Checker {
 public:
  explicit Checker(bool plant_fault) : plant_fault_(plant_fault) {}

  /// Counts one attempt; a false `ok` counts a failure.
  void Check(bool ok, std::string_view what);
  void CheckStatus(const natix::Status& st, std::string_view what) {
    Check(st.ok(), st.ok() ? what : std::string(what) + ": " + st.ToString());
  }
  /// True exactly once when the run was asked to plant a fault: the
  /// caller then perturbs one expected answer.
  bool PlantFault();
  /// Appends a node no answer contains to `want` if PlantFault().
  void MaybePerturb(std::vector<natix::NodeId>* want);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool plant_fault_;
  bool planted_ = false;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// What one measured phase of a workload produced.
struct Outcome {
  /// The workload's end-to-end figures under the generic names of
  /// BENCHMARK.json (ops_per_s, p50_us, tail_us, bytes_per_op, space_amp,
  /// setup_s).
  std::map<std::string, double> end_to_end;
  /// The same figures and the workload's other user-visible figures under
  /// their workload-specific names (update.recover_ms, ...).
  std::map<std::string, double> named;
  /// Per-layer figures; only filled by traced phases.
  std::map<std::string, double> layers;
};

struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

/// The paper's six corpus documents (Table 1 order).
const std::vector<std::string>& CorpusNames();
/// Q1..Q7 parsed once (for oracles; timed paths parse the text).
const std::vector<natix::PathExpr>& ParsedQueries();

/// Percentile (0..100) with linear interpolation between closest ranks;
/// 0 for an empty sample.
double Percentile(std::vector<double> samples, double pct);
double Median(std::vector<double> samples);

/// Pins the calling thread to one CPU for the object's lifetime, so a
/// measured thread neither migrates nor shares a CPU with the others
/// (no-op on hosts with too few CPUs). Threads started while it is held
/// inherit the pin, so the store's WAL flusher must start outside it.
class CpuPin {
 public:
  explicit CpuPin(unsigned cpu);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Returns freed heap memory to the system and restarts the process's
/// peak-resident-set watermark at the current resident set (Linux
/// clear_refs), so set-up and oracle transients stay out of the next
/// reading.
void ResetPeakRss();
/// Peak resident set since the last ResetPeakRss() (or process start),
/// in MB.
double PeakRssMb();

natix::WeightModel CorpusWeightModel();

/// An XMark document and the EKM-partitioned v3 store built from it: the
/// starting point of the query, update and serve workloads.
struct XmarkFixture {
  std::string xml;
  /// The imported document; the store was built from a copy of it.
  natix::ImportedDocument doc;
  std::optional<natix::NatixStore> store;
  double import_ms = 0;
  double build_ms = 0;
  /// The store's layout right after the build.
  double pages = 0;
  double records = 0;
  double disk_bytes = 0;
};
natix::Status BuildXmarkFixture(uint64_t seed, double scale, XmarkFixture* fx);
/// xml.import_ms, storage.build_ms, storage.pages/records/disk_bytes of
/// the fixture's set-up.
void FillFixtureLayers(const XmarkFixture& fx, Outcome* out);

/// Fills the trace-derived per-layer figures: self_ms.<layer>, gap_ms,
/// storage.page_source.read_us.
void AddTraceLayers(Outcome* out);

/// Per-query samples of the query and serve workloads, by query index
/// (0..6 = Q1..Q7).
struct QueryLedger {
  std::vector<std::vector<double>> eval_ms{7};
  std::vector<double> parse_us;
  std::vector<double> latency_us;
  std::vector<uint64_t> crossings = std::vector<uint64_t>(7, 0);
  std::vector<uint64_t> intra_moves = std::vector<uint64_t>(7, 0);
  std::vector<uint64_t> results = std::vector<uint64_t>(7, 0);
  uint64_t page_switches = 0;

  void Add(size_t q, uint64_t parse_ns, uint64_t eval_ns,
           uint64_t latency_ns, const natix::AccessStats& delta,
           size_t result_count);
  size_t count() const { return latency_us.size(); }
  /// query.count, query.parse_us, query.eval_ms.Qn, query.crossings.Qn,
  /// query.intra_moves.Qn, query.results.Qn, query.page_switches.
  void FillLayers(Outcome* out) const;
};

/// Latencies of the store's mutation calls (update and serve workloads).
struct MutationLedger {
  std::vector<double> all_us;
  std::vector<std::vector<double>> by_kind_us{4};  // insert/delete/move/rename
  uint64_t busy_ns = 0;

  void Add(size_t kind, uint64_t ns);
  /// storage.store.<kind>_p50_us / _p99_us.
  void FillLayers(Outcome* out) const;
};

struct BackendCounters;
/// storage.backend.{read,append,write,sync}_{calls,bytes,us}.
void FillBackendLayers(const BackendCounters& io, Outcome* out);

/// updates.*_per_1k and storage.wal.* from the store's stats structs,
/// as deltas over the measured phase.
void FillStoreLayers(const natix::UpdateStats& u0,
                     const natix::UpdateStats& u1, const natix::WalStats& w0,
                     const natix::WalStats& w1, uint64_t ops, Outcome* out);

/// Evaluates Q1..Q7 on an in-memory tree with the reference evaluator.
std::vector<std::vector<natix::NodeId>> ReferenceAnswers(
    const natix::Tree& tree, Checker* checker);
/// Evaluates Q1..Q7 on a store (auto-refresh evaluator, no pool).
std::vector<std::vector<natix::NodeId>> StoreAnswers(
    const natix::NatixStore& store, Checker* checker);

Outcome RunLoad(const Args& args, const Phase& phase, Checker* checker);
Outcome RunQuery(const Args& args, const Phase& phase, Checker* checker);
Outcome RunUpdate(const Args& args, const Phase& phase, Checker* checker);
Outcome RunServe(const Args& args, const Phase& phase, Checker* checker);

}  // namespace perfbench

#endif  // NATIX_PERFBENCH_BENCH_H_
