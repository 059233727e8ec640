// perfbench: the repository benchmark. One invocation runs one workload
// for --seconds and prints, as its last stdout line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// with spans around every call into the library and reports the
// per-layer metrics. Exits 1 on any correctness mismatch, 2 on bad usage.
//
//   perfbench --workload train_transformer --seed 1 --seconds 10 --trace 0

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <system_error>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricDef kEndToEnd[] = {
    {"samples_per_s", "1/s"},   {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},  {"slo_attainment", "share"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
};

// Metrics a workload does not produce read 0 (e.g. net.* on the
// in-process backend, serve.* on training).
const MetricDef kPerLayer[] = {
    {"kernels.fb_ms", "ms"},
    {"kernels.fb_gflops", "GFLOP/s"},
    {"train.iteration_ms", "ms"},
    {"train.gather_ms", "ms"},
    {"train.reduce_ms", "ms"},
    {"train.step_ms", "ms"},
    {"train.loss_sync_ms", "ms"},
    {"train.data_ms", "ms"},
    {"train.comm_share", "share"},
    {"train.rank_skew_ms", "ms"},
    {"train.phase_coverage", "share"},
    {"train.single_rank_samples_per_s", "1/s"},
    {"train.scaling_efficiency", "share"},
    {"comm.all_gather.bytes_per_iter", "B"},
    {"comm.reduce_scatter.bytes_per_iter", "B"},
    {"comm.all_reduce.bytes_per_iter", "B"},
    {"comm.inter_node_bytes_per_iter", "B"},
    {"comm.calls_per_iter", "count"},
    {"comm.gather_gbps", "GB/s"},
    {"comm.reduce_gbps", "GB/s"},
    {"net.bytes_sent_per_iter", "B"},
    {"net.bytes_sent_intra_per_iter", "B"},
    {"net.bytes_sent_inter_per_iter", "B"},
    {"net.frames_per_iter", "count"},
    {"net.wire_gbps", "GB/s"},
    {"net.recv_deadline_exceeded", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_tail", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.batch_samples_mean", "count"},
    {"serve.gathers_per_batch", "count"},
    {"comm.all_gather.bytes_per_batch", "B"},
    {"serve.failed_batches", "count"},
    {"serve.rejected", "count"},
    {"loadgen.lag_ms_p99", "ms"},
    {"env.cpu_steal_share", "share"},
    {"trace.overhead_share", "share"},
};

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload "
               "train_transformer|train_wide_socket|serve_open_loop "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

/// Prints the report lines and the JSON summary; returns the exit code.
int Emit(const RunConfig& config, RunResult result) {
  std::map<std::string, Metric> got;
  for (const Metric& m : result.metrics) got[m.name] = m;

  std::string json = "{\"correct\": ";
  std::string metrics;
  auto add = [&](const MetricDef& def) {
    double value = 0.0;
    auto it = got.find(def.name);
    if (it != got.end()) {
      if (it->second.unit != def.unit) {
        result.Mismatch(std::string("metric ") + def.name + " reported in " +
                        it->second.unit + ", declared " + def.unit);
      }
      value = it->second.value;
      got.erase(it);
    }
    if (!std::isfinite(value)) {
      result.Mismatch(std::string("metric ") + def.name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " +
               FormatDouble(value) + ", \"unit\": \"" + def.unit + "\"}";
    std::printf("  %-36s %20s %s\n", def.name, FormatDouble(value).c_str(),
                def.unit);
  };
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("metrics (%s):\n", config.trace ? "per layer, traced run"
                                              : "end to end, untraced run");
  if (result.correct || !result.metrics.empty()) {
    if (config.trace) {
      for (const MetricDef& d : kPerLayer) add(d);
    } else {
      for (const MetricDef& d : kEndToEnd) add(d);
    }
  }
  for (const auto& [name, m] : got) {
    result.Mismatch("undeclared metric " + name);
  }
  for (const std::string& line : result.mismatches) {
    std::printf("MISMATCH: %s\n", line.c_str());
  }
  if (!result.latencies_ms.empty()) {
    const std::string path = config.out_dir + "/" + config.workload +
                             ".seed" + std::to_string(config.seed) +
                             ".trace" + (config.trace ? "1" : "0") +
                             ".latency_ms.txt";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      for (double v : result.latencies_ms) {
        std::fprintf(f, "%s\n", FormatDouble(v).c_str());
      }
      std::fclose(f);
    }
  }
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted) +
          ", \"failed\": " + std::to_string(result.failed) +
          ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed must be an integer");
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0) || config.seconds > 600.0) {
        return Usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace must be 0 or 1");
      config.trace = value == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  RunResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "train_transformer") run = RunTrainTransformer;
  if (config.workload == "train_wide_socket") run = RunTrainWideSocket;
  if (config.workload == "serve_open_loop") run = RunServeOpenLoop;
  if (run == nullptr) return Usage("unknown workload");
  std::error_code ec;
  std::filesystem::create_directories(config.out_dir, ec);
  if (ec) return Usage(("cannot create " + config.out_dir).c_str());

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              FormatDouble(config.seconds).c_str(), config.trace ? 1 : 0);
  return Emit(config, run(config));
}
