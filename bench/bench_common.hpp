// Shared helpers for the table/figure bench binaries.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/amc.hpp"
#include "core/cost_model.hpp"
#include "hsi/synthetic.hpp"
#include "util/rng.hpp"

namespace hs::bench {

/// The image sizes (in sensor MB, 2 bytes/sample, 216 bands) of the
/// paper's Tables 4/5. The largest is the full Indian Pines scene.
inline const std::vector<int>& paper_sizes_mb() {
  static const std::vector<int> sizes{68, 136, 205, 273, 410, 547};
  return sizes;
}

inline constexpr int kPaperBands = 216;

/// Pixel count of a scene of `mb` sensor megabytes at 216 int16 bands.
inline std::uint64_t pixels_for_mb(int mb) {
  return static_cast<std::uint64_t>(mb) * 1000ull * 1000ull /
         (2ull * kPaperBands);
}

/// Width/height with the Indian Pines aspect ratio (2166 x 614).
inline void scene_dims_for_mb(int mb, int& width, int& height) {
  const double px = static_cast<double>(pixels_for_mb(mb));
  const double aspect = 2166.0 / 614.0;
  width = static_cast<int>(std::lround(std::sqrt(px * aspect)));
  height = static_cast<int>(std::lround(px / width));
}

/// A random reflectance cube for GPU calibration runs (content does not
/// matter for timing; only the counters do).
inline hsi::HyperCube calibration_cube(int w, int h, int bands,
                                       std::uint64_t seed = 97) {
  util::Xoshiro256 rng(seed);
  hsi::HyperCube cube(w, h, bands);
  for (auto& v : cube.raw()) v = static_cast<float>(rng.uniform(0.05, 1.0));
  return cube;
}

/// Runs the functional GPU simulator on a small scene with `profile` and
/// returns the report for cost-model extrapolation. The calibration uses
/// the full 216 bands so the per-fragment stage mix matches paper-scale
/// workloads exactly.
inline core::AmcGpuReport calibrate_gpu(const gpusim::DeviceProfile& profile,
                                        int bands = kPaperBands,
                                        int size = 40) {
  core::AmcGpuOptions opt;
  opt.profile = profile;
  // Keep the *simulated* pipe count for the timing model but let the
  // calibration chunk freely; counters per fragment are unaffected.
  const auto cube = calibration_cube(size, size, bands);
  return core::morphology_gpu(cube, core::StructuringElement::square(1), opt);
}

/// The paper's published Tables 4/5 (milliseconds as printed), kept for
/// side-by-side shape comparison. Columns: P4-C, Prescott, FX5950U, 7800GTX.
struct PaperRow {
  int mb;
  double p4, prescott, fx5950, gtx7800;
};

inline const std::vector<PaperRow>& paper_table4_gcc() {
  static const std::vector<PaperRow> rows{
      {68, 91.7453, 84.0052, 6.79324, 1.55211},
      {136, 183.32, 167.852, 19.572, 3.067},
      {205, 274.818, 251.427, 29.2864, 4.57477},
      {273, 367.485, 336.239, 39.0221, 6.0956},
      {410, 550.158, 502.935, 40.4066, 9.16738},
      {547, 734.243, 671.157, 53.9204, 12.1771},
  };
  return rows;
}

inline const std::vector<PaperRow>& paper_table5_icc() {
  static const std::vector<PaperRow> rows{
      {68, 55.5, 46.7, 6.79324, 1.55211},
      {136, 110.7, 93.2, 19.572, 3.067},
      {205, 166.2, 139.7, 29.2864, 4.57477},
      {273, 222.2, 186.4, 39.0221, 6.0956},
      {410, 332.6, 279.4, 40.4066, 9.16738},
      {547, 444.1, 372.8, 53.9204, 12.1771},
  };
  return rows;
}

/// Modeled execution times (seconds) for one table row.
struct ModelRow {
  int mb;
  double p4, prescott, fx5950, gtx7800;
  double gtx7800_compute;  ///< GPU passes only, excluding bus transfers
  double fx5950_compute;
};

/// Computes the modeled Table 4/5 rows: analytic CPU model (scalar or
/// vectorized build) plus calibrated GPU extrapolation for both devices.
std::vector<ModelRow> modeled_exec_rows(bool vectorized);

/// CPUs the host offers (std::thread::hardware_concurrency). Host wall
/// times mean little without it, so every JsonReport records it.
unsigned host_cpus();

/// Machine-readable benchmark results. Each named benchmark accumulates
/// (key, value) pairs; write() serializes everything as
/// `BENCH_<name>.json`, stamped with `host_cpus`, so sweep scripts can
/// diff runs without scraping table output.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  /// Records `key = value` under the row named `bench` (created on first
  /// use; insertion order is preserved in the output).
  void add(const std::string& bench, const std::string& key, double value);

  /// Writes the report. `path` is either a directory (the file becomes
  /// `<path>/BENCH_<name>.json`) or an exact destination when it already
  /// ends in ".json". An empty path is a no-op. Returns true when a file
  /// was written.
  bool write(const std::string& path) const;

  const std::string& name() const { return name_; }

 private:
  struct Row {
    std::string bench;
    std::vector<std::pair<std::string, double>> values;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// Extracts the `--json <path>` flag, removing it (and its argument) from
/// argv so downstream parsers never see it. Returns the path, or an empty
/// string when the flag is absent.
std::string json_output_path(int& argc, char** argv);

/// Prints a regenerated Table 4/5 next to the paper's published values.
/// `name` keys the optional JSON emission (BENCH_<name>.json under
/// `json_path`, empty = table output only) with per-size modeled times and
/// the calibration wall time.
void print_exec_time_tables(const std::string& name, const std::string& caption,
                            bool vectorized,
                            const std::vector<PaperRow>& paper,
                            const std::string& json_path = {});

}  // namespace hs::bench
