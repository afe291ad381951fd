#include "runner.h"

#include <cstdio>

#include "common/parallel.h"
#include "common/simd.h"

namespace smm::bench {

namespace {

using Clock = std::chrono::steady_clock;

const char* ScaleJsonName(Scale scale) {
  switch (scale) {
    case Scale::kFast:
      return "fast";
    case Scale::kFull:
      return "full";
    case Scale::kDefault:
      break;
  }
  return "default";
}

/// Minimal JSON string escaping for the few free-form strings the artifact
/// carries (labels, axis values): quotes, backslashes, and
/// control bytes. Axis names and scenario names are fixed identifiers.
void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fprintf(f, "\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

double RunRecord::Metric(const std::string& name, double fallback) const {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return fallback;
}

bool ScenarioReport::AllBitIdentical() const {
  for (const auto& run : runs) {
    if (!run.bit_identical) return false;
  }
  return true;
}

bool MatrixReport::AllBitIdentical() const {
  for (const auto& scenario : scenarios) {
    if (!scenario.AllBitIdentical()) return false;
  }
  return true;
}

const ScenarioReport* MatrixReport::Find(const std::string& name) const {
  for (const auto& scenario : scenarios) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

double TimeSeconds(const std::function<void()>& body) {
  const auto start = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double BestOfN(int repeats, const std::function<void()>& body,
               const std::function<void()>& reset) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    if (reset) reset();
    const double seconds = TimeSeconds(body);
    if (seconds < best) best = seconds;
  }
  return best;
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry* registry = new ScenarioRegistry();
  return *registry;
}

void ScenarioRegistry::Register(
    std::function<std::unique_ptr<Scenario>()> factory) {
  factories_.push_back(std::move(factory));
}

std::vector<std::unique_ptr<Scenario>> ScenarioRegistry::Instantiate() const {
  std::vector<std::unique_ptr<Scenario>> scenarios;
  scenarios.reserve(factories_.size());
  for (const auto& factory : factories_) scenarios.push_back(factory());
  return scenarios;
}

StatusOr<MatrixReport> RunMatrix(const std::string& filter,
                                 const RunOptions& options) {
  MatrixReport report;
  report.scale = options.scale;
  for (auto& scenario : ScenarioRegistry::Global().Instantiate()) {
    const std::string name = scenario->name();
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    ScenarioReport scenario_report;
    scenario_report.name = name;
    scenario_report.description = scenario->description();
    scenario_report.stable = scenario->stable();

    const ScenarioAxes axes = scenario->Axes(options);
    if (axes.threads.empty()) {
      if (options.verbose) {
        std::printf("scenario %s: skipped (no runnable points on this "
                    "host)\n",
                    name.c_str());
      }
      continue;
    }
    // Fixed nesting, threads innermost: the 1-thread run of each outer
    // combination lands first and anchors the bit-identity cross-check.
    for (const auto& mechanism : axes.mechanisms) {
      for (const auto& [modulus_class, modulus] : axes.moduli) {
        for (const size_t dim : axes.dims) {
          for (const size_t participants : axes.participants) {
            for (const double dropout : axes.dropout_rates) {
              for (const double corrupt : axes.corrupt_frame_rates) {
                for (const auto& dispatch : axes.dispatch) {
                  for (const size_t shards : axes.shards) {
                    for (const int threads : axes.threads) {
                      ScenarioPoint point;
                      point.mechanism = mechanism;
                      point.modulus_class = modulus_class;
                      point.modulus = modulus;
                      point.dim = dim;
                      point.participants = participants;
                      point.dropout_rate = dropout;
                      point.corrupt_frame_rate = corrupt;
                      point.dispatch = dispatch;
                      point.shards = shards;
                      point.threads = threads;
                      auto results = scenario->RunPoint(point, options);
                      if (!results.ok()) {
                        return Status(results.status().code(),
                                      "scenario " + name + " failed: " +
                                          results.status().ToString());
                      }
                      for (auto& result : *results) {
                        RunRecord record;
                        record.label = std::move(result.label);
                        record.params = point;
                        record.seconds = result.seconds;
                        record.items_per_sec =
                            result.seconds > 0.0
                                ? result.items / result.seconds
                                : 0.0;
                        record.bit_identical = result.bit_identical;
                        record.metrics = std::move(result.metrics);
                        if (options.verbose) {
                          std::printf(
                              "  %s/%s shards=%zu threads=%d dim=%zu "
                              "participants=%zu modulus=%s dropout=%g "
                              "corrupt=%g seconds=%.3e items/s=%.3e "
                              "identical=%s\n",
                              name.c_str(), record.label.c_str(),
                              point.shards, point.threads, point.dim,
                              point.participants,
                              point.modulus_class.empty()
                                  ? "none"
                                  : point.modulus_class.c_str(),
                              point.dropout_rate, point.corrupt_frame_rate,
                              record.seconds,
                              record.items_per_sec,
                              record.bit_identical ? "yes" : "NO");
                        }
                        scenario_report.runs.push_back(std::move(record));
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    report.scenarios.push_back(std::move(scenario_report));
  }
  return report;
}

Status WriteMatrixJson(const MatrixReport& report, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError("cannot open " + path + " for the JSON report");
  }
  std::fprintf(f, "{\n  \"schema_version\": %d,\n", kMatrixSchemaVersion);
  std::fprintf(f, "  \"bench\": \"bench_matrix\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", ScaleJsonName(report.scale));
  std::fprintf(f,
               "  \"host\": {\"hardware_threads\": %d, "
               "\"simd_dispatch\": \"%s\"},\n",
               ThreadPool::HardwareThreads(), simd::Active().name);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t s = 0; s < report.scenarios.size(); ++s) {
    const ScenarioReport& scenario = report.scenarios[s];
    std::fprintf(f, "    {\"name\": \"%s\", \"stable\": %s,\n",
                 scenario.name.c_str(), scenario.stable ? "true" : "false");
    std::fprintf(f, "     \"runs\": [\n");
    for (size_t r = 0; r < scenario.runs.size(); ++r) {
      const RunRecord& run = scenario.runs[r];
      const ScenarioPoint& p = run.params;
      std::fprintf(f, "      {\"label\": ");
      WriteJsonString(f, run.label);
      std::fprintf(f, ",\n       \"params\": {");
      std::fprintf(f, "\"mechanism\": ");
      WriteJsonString(f, p.mechanism);
      std::fprintf(f, ", \"modulus_class\": ");
      WriteJsonString(f, p.modulus_class);
      // A scenario without a modulus axis has no modulus: null, not 0.
      if (p.modulus_class.empty()) {
        std::fprintf(f, ", \"modulus\": null,\n");
      } else {
        std::fprintf(f, ", \"modulus\": %llu,\n",
                     static_cast<unsigned long long>(p.modulus));
      }
      std::fprintf(f,
                   "                  \"dim\": %zu, \"participants\": %zu, "
                   "\"dropout_rate\": %.6f,\n",
                   p.dim, p.participants, p.dropout_rate);
      std::fprintf(f,
                   "                  \"corrupt_frame_rate\": %.6f, "
                   "\"dispatch\": ",
                   p.corrupt_frame_rate);
      WriteJsonString(f, p.dispatch);
      std::fprintf(f, ", \"shards\": %zu, \"threads\": %d},\n", p.shards,
                   p.threads);
      std::fprintf(f,
                   "       \"seconds\": %.6e, \"items_per_sec\": %.6e, "
                   "\"bit_identical\": %s,\n",
                   run.seconds, run.items_per_sec,
                   run.bit_identical ? "true" : "false");
      std::fprintf(f, "       \"metrics\": {");
      for (size_t m = 0; m < run.metrics.size(); ++m) {
        std::fprintf(f, "%s\"%s\": %.6e", m == 0 ? "" : ", ",
                     run.metrics[m].first.c_str(), run.metrics[m].second);
      }
      std::fprintf(f, "}}%s\n", r + 1 < scenario.runs.size() ? "," : "");
    }
    std::fprintf(f, "     ]}%s\n",
                 s + 1 < report.scenarios.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return OkStatus();
}

}  // namespace smm::bench
