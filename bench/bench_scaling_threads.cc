// Thread-scaling benchmark — compatibility wrapper over the scenario-matrix
// runner (bench/runner.h). The sections this binary historically hard-coded
// (batched encode, batched rotation, streaming aggregation, masked secagg,
// framed sessions, the TCP server sweep, SIMD kernels) now live in
// bench/scenarios.cc and are enumerated by bench_matrix; this wrapper
// replays the full matrix at the legacy axis values and re-emits the
// historical outputs so existing CI plumbing keeps working unchanged:
//
//   - the per-section `SPEEDUP_SUMMARY ...` lines CI greps,
//   - the per-kernel `SIMD_KERNEL ...` lines CI greps,
//   - the legacy `--json <path>` artifact shape
//     bench/check_bench_regression.py diffs against cached baselines,
//   - exit status 1 on any bit-identity violation.
//
// New matrix-only capability (extra axis values, --filter, the
// schema-versioned artifact) lives in bench_matrix.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "runner.h"

namespace smm::bench {
namespace {

const char* ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return nullptr;
}

/// The legacy thread-scaling table: one row group per (label) with the
/// threads axis widened into columns.
struct LegacySection {
  std::string name;
  size_t dim = 0;
  size_t participants = 0;
  std::vector<int> threads;
  std::vector<double> seconds;
  bool bit_identical = true;

  double speedup(size_t idx) const { return seconds[0] / seconds[idx]; }
};

/// Groups a thread-scaling scenario's runs by label, preserving label
/// first-seen order and the per-label threads order.
std::vector<LegacySection> GroupByLabel(const ScenarioReport& report) {
  std::vector<LegacySection> sections;
  std::map<std::string, size_t> index;
  for (const RunRecord& run : report.runs) {
    auto [it, inserted] = index.emplace(run.label, sections.size());
    if (inserted) {
      LegacySection section;
      section.name = run.label;
      section.dim = run.params.dim;
      section.participants = run.params.participants;
      sections.push_back(std::move(section));
    }
    LegacySection& section = sections[it->second];
    section.threads.push_back(run.params.threads);
    section.seconds.push_back(run.seconds);
    section.bit_identical = section.bit_identical && run.bit_identical;
  }
  return sections;
}

void PrintLegacySection(const LegacySection& section, double work_items) {
  std::printf("%s: dim=%zu, participants=%zu\n", section.name.c_str(),
              section.dim, section.participants);
  std::vector<std::string> thread_cells, throughput_cells, speedup_cells;
  for (size_t t = 0; t < section.seconds.size(); ++t) {
    thread_cells.push_back(std::to_string(section.threads[t]));
    throughput_cells.push_back(FormatSci(work_items / section.seconds[t]));
    speedup_cells.push_back(FormatSci(section.speedup(t)));
  }
  PrintRow("  threads", thread_cells, 14, 12);
  PrintRow("  items/sec", throughput_cells, 14, 12);
  PrintRow("  speedup", speedup_cells, 14, 12);
  std::printf("  thread-count invariance: %s\n",
              section.bit_identical ? "bit-identical" : "MISMATCH (bug!)");
  std::printf("SPEEDUP_SUMMARY section=%s dim=%zu participants=%zu "
              "speedup_8t=%.2fx\n",
              section.name.c_str(), section.dim, section.participants,
              section.speedup(section.seconds.size() - 1));
}

/// Work-item count per section, matching the historical throughput model.
double SectionWorkItems(const LegacySection& s) {
  if (s.name == "masked_secagg") {
    // Survivors * participants * dim mask draws dominate (2 dropouts).
    return static_cast<double>(s.participants - 2) *
           static_cast<double>(s.participants) * static_cast<double>(s.dim);
  }
  if (s.name == "session_masked") {
    return static_cast<double>(s.participants - 2) *
           static_cast<double>(s.participants) * static_cast<double>(s.dim);
  }
  return static_cast<double>(s.participants) * static_cast<double>(s.dim);
}

void WriteLegacyJson(const char* path, Scale scale,
                     const std::vector<LegacySection>& sections,
                     const MatrixReport& report) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("cannot open %s for the JSON report\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_scaling_threads\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n",
               scale == Scale::kFast ? "fast"
               : scale == Scale::kFull ? "full" : "default");
  std::fprintf(f, "  \"hardware_threads\": %d,\n",
               ThreadPool::HardwareThreads());
  std::fprintf(f, "  \"sections\": [\n");
  for (size_t s = 0; s < sections.size(); ++s) {
    const LegacySection& section = sections[s];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"dim\": %zu, \"participants\": "
                 "%zu,\n     \"threads\": [",
                 section.name.c_str(), section.dim, section.participants);
    for (size_t t = 0; t < section.threads.size(); ++t) {
      std::fprintf(f, "%s%d", t == 0 ? "" : ", ", section.threads[t]);
    }
    std::fprintf(f, "],\n     \"seconds\": [");
    for (size_t t = 0; t < section.seconds.size(); ++t) {
      std::fprintf(f, "%s%.6e", t == 0 ? "" : ", ", section.seconds[t]);
    }
    std::fprintf(f, "],\n     \"speedup\": [");
    for (size_t t = 0; t < section.seconds.size(); ++t) {
      std::fprintf(f, "%s%.3f", t == 0 ? "" : ", ", section.speedup(t));
    }
    std::fprintf(f, "],\n     \"bit_identical\": %s}%s\n",
                 section.bit_identical ? "true" : "false",
                 s + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"server_sessions\": [\n");
  const ScenarioReport* server = report.Find("server_sessions");
  if (server != nullptr && !server->runs.empty()) {
    const RunRecord& first = server->runs.front();
    bool sums_exact = true;
    for (const RunRecord& r : server->runs) {
      sums_exact = sums_exact && r.bit_identical;
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"sessions\": %zu, "
                 "\"contributions_per_session\": %zu, \"dim\": %zu,\n"
                 "     \"threads\": [",
                 first.label.c_str(), first.params.participants,
                 static_cast<size_t>(
                     first.Metric("contributions_per_session")),
                 first.params.dim);
    for (size_t t = 0; t < server->runs.size(); ++t) {
      std::fprintf(f, "%s%d", t == 0 ? "" : ", ",
                   server->runs[t].params.threads);
    }
    std::fprintf(f, "],\n     \"seconds\": [");
    for (size_t t = 0; t < server->runs.size(); ++t) {
      std::fprintf(f, "%s%.6e", t == 0 ? "" : ", ",
                   server->runs[t].seconds);
    }
    std::fprintf(f, "],\n     \"sessions_per_sec\": [");
    for (size_t t = 0; t < server->runs.size(); ++t) {
      std::fprintf(f, "%s%.6e", t == 0 ? "" : ", ",
                   server->runs[t].Metric("sessions_per_sec"));
    }
    std::fprintf(f, "],\n     \"frames_per_sec\": [");
    for (size_t t = 0; t < server->runs.size(); ++t) {
      std::fprintf(f, "%s%.6e", t == 0 ? "" : ", ",
                   server->runs[t].Metric("frames_per_sec"));
    }
    std::fprintf(f, "],\n     \"sums_exact\": %s}\n",
                 sums_exact ? "true" : "false");
  }
  std::fprintf(f, "  ],\n");

  std::fprintf(f, "  \"simd_dispatch\": \"%s\",\n", smm::simd::Active().name);
  std::fprintf(f, "  \"simd_kernels\": [\n");
  const ScenarioReport* simd_report = report.Find("simd_kernels");
  const size_t kernel_count =
      simd_report != nullptr ? simd_report->runs.size() : 0;
  for (size_t s = 0; s < kernel_count; ++s) {
    const RunRecord& r = simd_report->runs[s];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"elements\": %zu,\n"
                 "     \"scalar_seconds\": %.6e, \"dispatch_seconds\": "
                 "%.6e,\n     \"scalar_eps\": %.6e, \"dispatch_eps\": %.6e,\n"
                 "     \"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 r.label.c_str(), r.params.dim, r.Metric("scalar_seconds"),
                 r.Metric("dispatch_seconds"), r.Metric("scalar_eps"),
                 r.Metric("dispatch_eps"), r.Metric("speedup"),
                 r.bit_identical ? "true" : "false",
                 s + 1 < kernel_count ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote JSON report to %s\n", path);
}

int Main(int argc, char** argv) {
  RegisterAllScenarios();
  const Scale scale = ParseScale(argc, argv);
  const char* json_path = ParseJsonPath(argc, argv);

  std::printf("Aggregation thread scaling (%s). Hardware threads: %d\n",
              ScaleName(scale), ThreadPool::HardwareThreads());
  std::printf(
      "Note: speedups > 1 require as many physical cores as threads.\n\n");

  RunOptions options;
  options.scale = scale;
  auto report = RunMatrix(/*filter=*/"", options);
  if (!report.ok()) {
    std::printf("benchmark failed: %s\n",
                report.status().ToString().c_str());
    return 1;
  }

  // Legacy per-section tables + SPEEDUP_SUMMARY lines, in the historical
  // section order.
  std::vector<LegacySection> sections;
  for (const char* name : {"encode", "rotation_batch", "streaming_ideal",
                           "masked_secagg", "session_masked"}) {
    const ScenarioReport* scenario = report->Find(name);
    if (scenario == nullptr) continue;
    for (LegacySection& section : GroupByLabel(*scenario)) {
      std::printf("\n");
      PrintLegacySection(section, SectionWorkItems(section));
      sections.push_back(std::move(section));
    }
  }

  const ScenarioReport* server = report->Find("server_sessions");
  if (server != nullptr && !server->runs.empty()) {
    const RunRecord& first = server->runs.front();
    const RunRecord& last = server->runs.back();
    std::printf("\nTCP server sessions (ideal rounds over loopback): "
                "sessions=%zu, contributions/session=%zu, dim=%zu\n",
                first.params.participants,
                static_cast<size_t>(
                    first.Metric("contributions_per_session")),
                first.params.dim);
    std::vector<std::string> loop_cells, session_cells, frame_cells;
    bool sums_exact = true;
    for (const RunRecord& r : server->runs) {
      loop_cells.push_back(std::to_string(r.params.threads));
      session_cells.push_back(FormatSci(r.Metric("sessions_per_sec")));
      frame_cells.push_back(FormatSci(r.Metric("frames_per_sec")));
      sums_exact = sums_exact && r.bit_identical;
    }
    PrintRow("  event loops", loop_cells, 14, 12);
    PrintRow("  sessions/sec", session_cells, 14, 12);
    PrintRow("  frames/sec", frame_cells, 14, 12);
    std::printf("  broadcast sums: %s\n",
                sums_exact ? "exact" : "MISMATCH (bug!)");
    std::printf("SPEEDUP_SUMMARY section=server_sessions sessions=%zu "
                "dim=%zu speedup_8loops=%.2fx\n",
                first.params.participants, first.params.dim,
                first.seconds / last.seconds);
  }

  const ScenarioReport* simd_report = report->Find("simd_kernels");
  if (simd_report != nullptr) {
    std::printf("\nSIMD kernels: single-thread scalar reference vs "
                "dispatched (%s)\n",
                smm::simd::Active().name);
    PrintRow("  kernel",
             {"scalar el/s", "dispatch el/s", "speedup", "identical"}, 22,
             14);
    for (const RunRecord& r : simd_report->runs) {
      PrintRow("  " + r.label,
               {FormatSci(r.Metric("scalar_eps")),
                FormatSci(r.Metric("dispatch_eps")),
                FormatSci(r.Metric("speedup")),
                r.bit_identical ? "yes" : "MISMATCH"},
               22, 14);
      std::printf("SIMD_KERNEL name=%s elements=%zu speedup=%.2fx "
                  "identical=%s\n",
                  r.label.c_str(), r.params.dim, r.Metric("speedup"),
                  r.bit_identical ? "yes" : "no");
    }
  }

  if (json_path != nullptr) {
    WriteLegacyJson(json_path, scale, sections, *report);
  }
  if (!report->AllBitIdentical()) {
    std::printf("bit-identity violation (see MISMATCH above)\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace smm::bench

int main(int argc, char** argv) { return smm::bench::Main(argc, argv); }
