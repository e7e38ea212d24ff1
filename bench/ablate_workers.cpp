// Ablation: chunk-parallel worker count vs wall clock and modeled schedule.
//
// The paper's chunking scheme makes chunks independent; the scheduler
// (stream/scheduler.hpp) exploits that with one simulated device per
// worker. This bench sweeps the worker count on a fixed many-chunk scene
// and reports, per count: simulator wall-clock time (host parallelism --
// meaningful only when the host has cores to spare; the report records
// host_cpus), the modeled parallel schedule (wave-max compute plus the
// serialized bus, the number a multi-device deployment of the paper's
// pipeline would see), and a bit-identity check against the sequential
// run, since speed is only interesting if the answer is unchanged.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hs;

  const std::string json_path = bench::json_output_path(argc, argv);

  util::Cli cli;
  cli.add_flag("size", "scene edge length", "64");
  cli.add_flag("bands", "spectral bands", "64");
  cli.add_flag("chunks", "approximate chunk count to force", "16");
  cli.add_flag("repeat", "timed repetitions per worker count", "3");
  if (!cli.parse(argc, argv)) return 1;
  const int size = static_cast<int>(cli.get_int("size", 64));
  const int bands = static_cast<int>(cli.get_int("bands", 64));
  const int chunks = static_cast<int>(cli.get_int("chunks", 16));
  const int repeat = static_cast<int>(cli.get_int("repeat", 3));

  const auto cube = bench::calibration_cube(size, size, bands);
  const core::StructuringElement se = core::StructuringElement::square(1);
  const std::uint64_t full =
      static_cast<std::uint64_t>(size) * static_cast<std::uint64_t>(size);

  auto options_for = [&](std::size_t workers) {
    core::AmcGpuOptions opt;
    opt.chunk_texel_budget =
        std::max<std::uint64_t>(256, full / static_cast<std::uint64_t>(chunks));
    opt.workers = workers;
    return opt;
  };

  const core::AmcGpuReport base = core::morphology_gpu(cube, se, options_for(1));

  bench::JsonReport json("parallel_chunks");
  json.add("scene", "chunks", static_cast<double>(base.chunk_count));
  json.add("scene", "pixels", static_cast<double>(full));
  json.add("scene", "bands", static_cast<double>(bands));

  double wall_1 = 0;
  const double modeled_1 = base.modeled_seconds;

  util::Table table({"Workers", "Wall", "Wall speedup", "Modeled schedule",
                     "Modeled speedup", "Bit-identical"});
  for (std::size_t workers : {1u, 2u, 4u, 8u}) {
    // Best-of-repeat wall time: scheduling noise only ever adds.
    double wall = 0;
    core::AmcGpuReport report;
    for (int r = 0; r < repeat; ++r) {
      util::Timer timer;
      report = core::morphology_gpu(cube, se, options_for(workers));
      const double t = timer.seconds();
      if (r == 0 || t < wall) wall = t;
    }
    if (workers == 1) wall_1 = wall;

    bool identical = report.morph.mei == base.morph.mei &&
                     report.morph.db == base.morph.db &&
                     report.morph.erosion_index == base.morph.erosion_index &&
                     report.morph.dilation_index == base.morph.dilation_index &&
                     report.totals.passes == base.totals.passes &&
                     report.modeled_seconds == base.modeled_seconds;

    const double modeled = base.modeled_parallel_seconds(workers);
    const double wall_speedup = wall > 0 ? wall_1 / wall : 0;
    const double modeled_speedup = modeled > 0 ? modeled_1 / modeled : 0;

    table.add_row({std::to_string(workers), util::format_duration(wall),
                   util::Table::num(wall_speedup, 2) + "x",
                   util::format_duration(modeled),
                   util::Table::num(modeled_speedup, 2) + "x",
                   identical ? "yes" : "NO"});

    const std::string row = "workers_" + std::to_string(workers);
    json.add(row, "workers_used", static_cast<double>(report.workers_used));
    json.add(row, "wall_s", wall);
    json.add(row, "wall_speedup", wall_speedup);
    json.add(row, "modeled_schedule_s", modeled);
    json.add(row, "modeled_speedup", modeled_speedup);
    json.add(row, "bit_identical", identical ? 1.0 : 0.0);
  }

  table.print(std::cout,
              "Ablation: chunk-parallel workers (" + std::to_string(size) + "x" +
                  std::to_string(size) + "x" + std::to_string(bands) + ", " +
                  std::to_string(base.chunk_count) + " chunks, host_cpus=" +
                  std::to_string(bench::host_cpus()) + ")");
  json.write(json_path);
  return 0;
}
