// perfbench: one command for the repository's benchmark workloads.
//
//   perfbench --workload round_wide|round_masked|fl_train --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//
// Prints one human-readable line per metric, then, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exits 1 when any correctness check failed, 2 on a usage
// or set-up error.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"round_p50_ms", "ms"},
    {"round_tail_ms", "ms"},
    {"rounds_per_s", "1/s"},
    {"setup_s", "s"},
    {"uplink_bytes_per_client", "bytes"},
    {"sum_rmse", "rms"},
    {"test_accuracy", "frac"},
    {"epsilon", "eps"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"mechanisms.encode_ms", "ms"},
    {"mechanisms.encode_mcoords_per_s", "Mcoord/s"},
    {"mechanisms.decode_ms", "ms"},
    {"mechanisms.overflows", "count"},
    {"secagg.prepare_ms", "ms"},
    {"secagg.frame_encode_ms", "ms"},
    {"secagg.frame_bytes", "bytes"},
    {"secagg.handle_frames_ms", "ms"},
    {"secagg.finalize_ms", "ms"},
    {"secagg.dropouts_recovered", "count"},
    {"secagg.rejected_frames", "count"},
    {"secagg.duplicate_frames", "count"},
    {"secagg.keygen_s", "s"},
    {"accounting.calibrate_s", "s"},
    {"net.open_ms", "ms"},
    {"net.send_ms", "ms"},
    {"net.read_sum_ms", "ms"},
    {"net.server_wait_ms", "ms"},
    {"net.server_overhead_ms", "ms"},
    {"net.frames_delivered", "count"},
    {"net.frames_rejected", "count"},
    {"net.bytes_read", "bytes"},
    {"net.bytes_written", "bytes"},
    {"net.connections_dropped", "count"},
    {"net.delivered_ratio", "frac"},
    {"nn.grad_ms", "ms"},
    {"nn.update_ms", "ms"},
    {"fl.create_s", "s"},
    {"fl.train_s", "s"},
    {"fl.eval_s", "s"},
    {"fl.failed_rounds", "count"},
    {"fl.total_overflows", "count"},
    {"unaccounted_frac", "frac"},
    {"trace_overhead_frac", "frac"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "round_wide|round_masked|fl_train --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n",
               why);
  return 2;
}

template <size_t N>
void Report(const MetricDef (&defs)[N], const RunResult& result) {
  for (const MetricDef& d : defs) {
    const auto it = result.values.find(d.name);
    // A layer this workload never calls reads 0.
    const double value = it == result.values.end() ? 0.0 : it->second;
    std::printf("%-34s %16.6f %s\n", d.name, value, d.unit);
  }
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& error : result.errors) {
    std::printf("# CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = result.errors.empty() && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              correct ? "true" : "false", result.attempted, result.failed);
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = result.values.find(d.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                first ? "" : ", ", d.name, value, d.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  RunResult result;
  smm::Status status;
  if (options.workload == "round_wide") {
    status = RunRoundWide(options, &result);
  } else if (options.workload == "round_masked") {
    status = RunRoundMasked(options, &result);
  } else if (options.workload == "fl_train") {
    status = RunFlTrain(options, &result);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", error.c_str());
    }
    return 2;
  }
  const double fail_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("# workload %s seed %" PRIu64 " trace %d\n",
              options.workload.c_str(), options.seed, options.trace ? 1 : 0);
  std::printf("%-34s %16.6f %s\n", "round_fail_frac", fail_frac, "frac");
  if (options.trace) {
    Report(kPerLayer, result);
  } else {
    Report(kEndToEnd, result);
  }
  std::fflush(stdout);
  return result.errors.empty() && result.failed == 0 ? 0 : 1;
}
