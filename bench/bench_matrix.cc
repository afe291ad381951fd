// bench_matrix: the scenario-matrix benchmark driver.
//
//   bench_matrix [--fast|--full] [--filter SUBSTR] [--repeats N]
//                [--json PATH] [--list] [--help]
//
// Enumerates every registered scenario's axis matrix (optionally
// name-filtered), prints one line per enumerated point, and with --json
// writes the schema-versioned artifact that bench/check_bench_regression.py
// diffs and bench/validate_bench_artifact.py validates. Exit status is 1 if
// any point's bit-identity verdict failed, and 2 on a usage error: an
// unknown flag, a flag missing its value, or a --filter that selects no
// scenario (so a renamed scenario cannot turn a CI gate into a no-op).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"
#include "runner.h"

namespace smm::bench {
namespace {

constexpr const char* kUsage =
    "usage: bench_matrix [--fast|--full] [--filter SUBSTR] [--repeats N] "
    "[--json PATH] [--list] [--help]\n";

struct Flags {
  bool help = false;
  bool list = false;
  const char* filter = "";
  const char* json_path = nullptr;
  const char* repeats = nullptr;
};

/// Parses argv into `flags`. Returns false (after printing why) on an
/// unknown flag or a value flag at the end of argv. --fast / --full are
/// accepted here and read by ParseScale.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char** value = nullptr;
    if (std::strcmp(arg, "--filter") == 0) {
      value = &flags->filter;
    } else if (std::strcmp(arg, "--json") == 0) {
      value = &flags->json_path;
    } else if (std::strcmp(arg, "--repeats") == 0) {
      value = &flags->repeats;
    } else if (std::strcmp(arg, "--help") == 0) {
      flags->help = true;
      continue;
    } else if (std::strcmp(arg, "--list") == 0) {
      flags->list = true;
      continue;
    } else if (std::strcmp(arg, "--fast") == 0 ||
               std::strcmp(arg, "--full") == 0) {
      continue;
    } else {
      std::fprintf(stderr, "bench_matrix: unknown flag '%s'\n", arg);
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "bench_matrix: %s needs a value\n", arg);
      return false;
    }
    *value = argv[++i];
  }
  return true;
}

int ListScenarios() {
  std::printf("registered scenarios:\n");
  for (const auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    std::printf("  %-16s %s%s\n", scenario->name(),
                scenario->description(),
                scenario->stable() ? " [stable: gates CI]" : "");
  }
  return 0;
}

bool FilterSelectsAny(const std::string& filter) {
  for (const auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    if (std::string(scenario->name()).find(filter) != std::string::npos) {
      return true;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  RegisterAllScenarios();
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  if (flags.help) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (flags.list) return ListScenarios();
  if (!FilterSelectsAny(flags.filter)) {
    std::printf("--filter '%s' selects no scenario; ", flags.filter);
    ListScenarios();
    return 2;
  }

  RunOptions options;
  options.scale = ParseScale(argc, argv);
  if (flags.repeats != nullptr) options.repeats = std::atoi(flags.repeats);

  std::printf("bench_matrix (%s). Hardware threads: %d, dispatch: %s\n",
              ScaleName(options.scale), ThreadPool::HardwareThreads(),
              simd::Active().name);
  auto report = RunMatrix(flags.filter, options);
  if (!report.ok()) {
    std::printf("matrix run failed: %s\n",
                report.status().ToString().c_str());
    return 1;
  }
  if (flags.json_path != nullptr) {
    const Status written = WriteMatrixJson(*report, flags.json_path);
    if (!written.ok()) {
      std::printf("%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("wrote JSON report to %s\n", flags.json_path);
  }
  size_t points = 0;
  for (const auto& scenario : report->scenarios) {
    points += scenario.runs.size();
  }
  std::printf("matrix complete: %zu scenarios, %zu points, "
              "bit-identity %s\n",
              report->scenarios.size(), points,
              report->AllBitIdentical() ? "clean" : "VIOLATED (bug!)");
  return report->AllBitIdentical() ? 0 : 1;
}

}  // namespace
}  // namespace smm::bench

int main(int argc, char** argv) { return smm::bench::Main(argc, argv); }
