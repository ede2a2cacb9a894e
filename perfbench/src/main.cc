// natix-tsp benchmark: the command-line entry point.
//
//   perfbench --workload <load|query|update|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>] [--size <f>]
//             [--plant-fault]
//
// Prints one line of workload-specific figures, then, as the last line,
// the result object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// run measures an untraced phase and a traced phase of --seconds/2 each
// and reports the per-layer metrics of the traced one (plus the tracing
// overhead between the two). perfbench/README.md documents every metric.
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "trace.h"

namespace {

using perfbench::Args;
using perfbench::MetricDef;
using perfbench::Outcome;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload load|query|update|serve "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] "
               "[--size F] [--plant-fault]\n",
               why);
  return 2;
}

/// Formats a metric value with every significant digit.
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// True when `dir` is on tmpfs, where fdatasync costs next to nothing and
/// the log figures would stop measuring the durable path.
bool OnTmpfs(const std::string& dir) {
  constexpr long kTmpfsMagic = 0x01021994;
  struct statfs fs;
  return statfs(dir.c_str(), &fs) == 0 &&
         static_cast<long>(fs.f_type) == kTmpfsMagic;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--plant-fault") {
      args->plant_fault = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--size") {
      args->size = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->size > 0 && args->size <= 1)) {
        *error = "--size must be in (0, 1]";
        return false;
      }
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds (> 0) and --trace (0|1) are required";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error.c_str());
  Outcome (*run)(const Args&, const perfbench::Phase&, perfbench::Checker*) =
      nullptr;
  if (args.workload == "load") run = perfbench::RunLoad;
  if (args.workload == "query") run = perfbench::RunQuery;
  if (args.workload == "update") run = perfbench::RunUpdate;
  if (args.workload == "serve") run = perfbench::RunServe;
  if (run == nullptr) return Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) return Usage(("cannot create workdir: " + ec.message()).c_str());
  const bool tmpfs = OnTmpfs(args.workdir);
  if (tmpfs) {
    std::fprintf(stderr,
                 "perfbench: warning: %s is on tmpfs; log syncs there cost "
                 "next to nothing\n",
                 args.workdir.c_str());
  }

  perfbench::Checker checker(args.plant_fault);
  Outcome out;
  if (!args.trace) {
    out = run(args, {/*traced=*/false, args.seconds, /*setups=*/5}, &checker);
  } else {
    const Outcome plain =
        run(args, {/*traced=*/false, args.seconds / 2, /*setups=*/1}, &checker);
    out = run(args, {/*traced=*/true, args.seconds / 2, /*setups=*/1},
              &checker);
    // Tracing overhead: how much slower the traced phase ran, as a share
    // of the untraced phase's throughput.
    const double plain_rate = plain.end_to_end.count("ops_per_s")
                                  ? plain.end_to_end.at("ops_per_s")
                                  : 0;
    const double traced_rate = out.end_to_end.count("ops_per_s")
                                   ? out.end_to_end.at("ops_per_s")
                                   : 0;
    out.layers["trace.overhead_pct"] =
        traced_rate > 0 ? (plain_rate / traced_rate - 1) * 100 : 0;
    const std::string trace_path =
        args.workdir + "/trace-" + args.workload + ".csv";
    if (!perfbench::WriteTrace(trace_path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
    }
    out.named = plain.named;
  }

  // Workload-specific figures and host facts (informational line).
  out.named["error_rate"] =
      static_cast<double>(checker.failed()) /
      static_cast<double>(std::max<uint64_t>(1, checker.attempted()));
  std::printf("{\"workload\": %s, \"seed\": %llu, \"host\": {\"nproc\": %u, "
              "\"build_type\": %s, \"compiler\": %s, \"workdir_tmpfs\": %s}, "
              "\"figures\": {",
              JsonString(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed),
              std::thread::hardware_concurrency(),
              JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(PERFBENCH_COMPILER).c_str(),
              tmpfs ? "true" : "false");
  bool first = true;
  for (const auto& [name, value] : out.named) {
    std::printf("%s%s: %s", first ? "" : ", ", JsonString(name).c_str(),
                Number(value).c_str());
    first = false;
  }
  std::printf("}}\n");

  // The result line.
  const std::vector<MetricDef>& metrics =
      args.trace ? perfbench::PerLayerMetrics() : perfbench::EndToEndMetrics();
  const std::map<std::string, double>& values =
      args.trace ? out.layers : out.end_to_end;
  std::string body;
  for (const MetricDef& m : metrics) {
    const auto it = values.find(m.name);
    // A per-layer metric of a layer this workload does not run reads 0;
    // a missing end-to-end metric means the workload could not run.
    if (it == values.end() && !args.trace) {
      checker.Check(false, "no value for " + m.name);
    }
    const double v = it == values.end() ? 0.0 : it->second;
    body += (body.empty() ? "" : ", ") + JsonString(m.name) +
            ": {\"value\": " + Number(v) + ", \"unit\": " +
            JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              checker.failed() == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, checker.attempted())),
              static_cast<unsigned long long>(checker.failed()), body.c_str());
  return 0;
}
