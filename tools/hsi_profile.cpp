// Pipeline profiler CLI.
//
// Runs the stream AMC pipeline (paper Section 3.2 / Figure 4) on a
// synthetic Indian-Pines-like scene or a user-supplied ENVI cube with
// tracing enabled, then writes:
//   * a Chrome trace-event JSON (--trace out.json) -- load it in
//     chrome://tracing or https://ui.perfetto.dev to see the nested
//     pipeline -> chunk -> stage -> pass spans;
//   * a flat metrics JSON (--metrics out.json) in the shared BENCH_*.json
//     schema;
//   * a Figure-4-style per-stage table plus the trace span summary on
//     stdout.
//
// Both JSON outputs are re-read and validated with the bundled parser
// before exit, so a zero exit status certifies well-formed documents.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/amc_gpu.hpp"
#include "hsi/envi_io.hpp"
#include "hsi/synthetic.hpp"
#include "trace/json_check.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

bool validate_file(const std::string& path, bool chrome) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    std::cerr << "hsi-profile: cannot re-open " << path << " for validation\n";
    return false;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::string error;
  const bool ok = chrome ? hs::trace::json::validate_chrome_trace(text, &error)
                         : hs::trace::json::validate_metrics_json(text, &error);
  if (!ok) {
    std::cerr << "hsi-profile: " << path << " failed validation: " << error
              << "\n";
  }
  return ok;
}

/// Strict integer flag parse: the whole value must be a number >= `min`.
/// Cli::get_int's strtoll silently maps garbage to 0, which here would
/// turn a typo into a degenerate scene instead of an error.
bool parse_int_flag(const hs::util::Cli& cli, const std::string& name,
                    long long min_value, long long fallback, long long* out) {
  *out = fallback;
  if (!cli.has(name)) return true;
  const std::string text = cli.get(name, "");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0' || v < min_value) {
    std::cerr << "hsi-profile: invalid --" << name << " '" << text
              << "' (integer >= " << min_value << " expected)\n";
    return false;
  }
  *out = v;
  return true;
}

int run(int argc, char** argv) {
  using namespace hs;

  util::Cli cli;
  cli.add_flag("synthetic", "profile a synthetic Indian-Pines-like scene");
  cli.add_flag("envi", "profile an ENVI cube (path to the .hdr file)");
  cli.add_flag("size", "synthetic scene edge length", "64");
  cli.add_flag("bands", "synthetic scene spectral bands", "32");
  cli.add_flag("se", "structuring element radius", "1");
  cli.add_flag("budget", "chunk texel budget (0 = auto)", "0");
  cli.add_flag("half", "half-precision stream textures", "false");
  cli.add_flag("engine", "fragment engine: soa | interpreter",
               gpusim::exec_engine_name(gpusim::SimConfig{}.exec_engine));
  cli.add_flag("workers", "chunk-parallel workers (0 = one per host cpu)", "1");
  cli.add_flag("trace", "Chrome trace-event JSON output path", "");
  cli.add_flag("metrics", "metrics JSON output path", "");
  if (!cli.parse(argc, argv)) return 1;
  if (!cli.positional().empty()) {
    std::cerr << "hsi-profile: unexpected argument '" << cli.positional()[0]
              << "'\n";
    return 1;
  }

  const std::string envi_path = cli.get("envi", "");
  if (!cli.get_bool("synthetic", false) && envi_path.empty()) {
    std::cerr << "hsi-profile: pass --synthetic or --envi <cube.hdr>\n";
    cli.print_usage("hsi-profile");
    return 1;
  }

  long long size = 0, bands = 0, se = 0, budget = 0, workers = 0;
  if (!parse_int_flag(cli, "size", 1, 64, &size) ||
      !parse_int_flag(cli, "bands", 1, 32, &bands) ||
      !parse_int_flag(cli, "se", 0, 1, &se) ||
      !parse_int_flag(cli, "budget", 0, 0, &budget) ||
      !parse_int_flag(cli, "workers", 0, 1, &workers)) {
    return 1;
  }

  trace::reset();
  trace::set_enabled(true);
#if !HS_TRACE_ENABLED
  std::cerr << "hsi-profile: note: built with HS_TRACE=OFF -- span/metric "
               "collection is compiled out; outputs will be empty\n";
#endif

  hsi::HyperCube cube;
  if (!envi_path.empty()) {
    try {
      cube = hsi::read_envi(envi_path);
    } catch (const hsi::EnviError& e) {
      std::cerr << "hsi-profile: " << e.what() << "\n";
      return 1;
    }
  } else {
    hsi::SceneConfig scene;
    scene.width = static_cast<int>(size);
    scene.height = scene.width;
    scene.bands = static_cast<int>(bands);
    cube = hsi::generate_indian_pines_scene(scene).cube;
  }

  core::AmcGpuOptions opt;
  opt.chunk_texel_budget = static_cast<std::uint64_t>(budget);
  opt.half_precision = cli.get_bool("half", false);
  opt.workers = static_cast<std::size_t>(workers);
  const std::string engine =
      cli.get("engine", gpusim::exec_engine_name(opt.sim.exec_engine));
  if (!gpusim::parse_exec_engine(engine, opt.sim.exec_engine)) {
    std::cerr << "hsi-profile: unknown --engine '" << engine << "'\n";
    return 1;
  }
  const int se_radius = static_cast<int>(se);

  util::Timer wall;
  const core::AmcGpuReport report = core::morphology_gpu(
      cube, core::StructuringElement::square(se_radius), opt);
  const double wall_s = wall.seconds();

  // ---- Figure-4-style stage report ----------------------------------------
  double stage_total = 0;
  for (const auto& [name, stats] : report.stages) {
    stage_total += stats.modeled_seconds;
  }
  util::Table table({"Stage", "Passes", "Fragments", "ALU instr",
                     "Tex fetches", "Modeled time", "Share"});
  for (const auto& [name, stats] : report.stages) {
    table.add_row(
        {name, std::to_string(stats.passes), std::to_string(stats.fragments),
         std::to_string(stats.alu_instructions),
         std::to_string(stats.tex_fetches),
         util::format_duration(stats.modeled_seconds),
         util::Table::num(100.0 * stats.modeled_seconds / stage_total, 1) +
             "%"});
  }
  table.print(std::cout, "AMC stage breakdown (" +
                             std::to_string(cube.width()) + "x" +
                             std::to_string(cube.height()) + "x" +
                             std::to_string(cube.bands()) + ")");
  std::cout << "\nchunks: " << report.chunk_count
            << ", workers: " << report.workers_used
            << ", total passes: " << report.totals.passes
            << ", modeled end-to-end: "
            << util::format_duration(report.modeled_seconds)
            << ", wall: " << util::format_duration(wall_s) << "\n\n";

  trace::print_summary(std::cout);

  // ---- sinks + self-validation --------------------------------------------
  bool ok = true;
  const std::string trace_path = cli.get("trace", "");
  if (!trace_path.empty()) {
    if (!trace::write_chrome_trace_file(trace_path)) {
      std::cerr << "hsi-profile: cannot write " << trace_path << "\n";
      ok = false;
    } else if (!validate_file(trace_path, /*chrome=*/true)) {
      ok = false;
    } else {
      std::cout << "trace: " << trace_path << " (" << trace::event_count()
                << " spans; open in https://ui.perfetto.dev)\n";
    }
  }
  const std::string metrics_path = cli.get("metrics", "");
  if (!metrics_path.empty()) {
    if (!trace::write_metrics_json_file(metrics_path, "hsi-profile")) {
      std::cerr << "hsi-profile: cannot write " << metrics_path << "\n";
      ok = false;
    } else if (!validate_file(metrics_path, /*chrome=*/false)) {
      ok = false;
    } else {
      std::cout << "metrics: " << metrics_path << "\n";
    }
  }
  return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Every failure mode is a one-line error and a nonzero exit, never an
  // uncaught exception backtrace (the CLI tests in tools/CMakeLists.txt
  // pin this down).
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "hsi-profile: " << e.what() << "\n";
    return 1;
  }
}
