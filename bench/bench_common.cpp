#include "bench_common.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "util/table.hpp"
#include "util/timer.hpp"

namespace hs::bench {

unsigned host_cpus() { return std::thread::hardware_concurrency(); }

void JsonReport::add(const std::string& bench, const std::string& key,
                     double value) {
  for (Row& row : rows_) {
    if (row.bench == bench) {
      row.values.emplace_back(key, value);
      return;
    }
  }
  rows_.push_back(Row{bench, {{key, value}}});
}

bool JsonReport::write(const std::string& path) const {
  if (path.empty()) return false;
  std::string file = path;
  const std::string suffix = ".json";
  if (file.size() < suffix.size() ||
      file.compare(file.size() - suffix.size(), suffix.size(), suffix) != 0) {
    if (!file.empty() && file.back() != '/') file += '/';
    file += "BENCH_" + name_ + ".json";
  }
  std::ofstream os(file);
  if (!os) {
    std::cerr << "warning: cannot write " << file << "\n";
    return false;
  }
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  os << "{\n  \"name\": \"" << name_ << "\",\n  \"host_cpus\": "
     << host_cpus() << ",\n  \"results\": [\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    os << "    {\"bench\": \"" << rows_[r].bench << "\"";
    for (const auto& [key, value] : rows_[r].values) {
      os << ", \"" << key << "\": " << num(value);
    }
    os << "}" << (r + 1 < rows_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  std::cerr << "wrote " << file << "\n";
  return true;
}

std::string json_output_path(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      const std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return {};
}

std::vector<ModelRow> modeled_exec_rows(bool vectorized) {
  const auto p4 = gpusim::pentium4_northwood();
  const auto prescott = gpusim::pentium4_prescott();
  const auto nv38 = gpusim::geforce_fx5950_ultra();
  const auto g70 = gpusim::geforce_7800_gtx();

  std::cerr << "calibrating GPU cost model (functional simulator runs)...\n";
  const core::AmcGpuReport cal_nv38 = calibrate_gpu(nv38);
  const core::AmcGpuReport cal_g70 = calibrate_gpu(g70);

  std::vector<ModelRow> rows;
  for (int mb : paper_sizes_mb()) {
    int w, h;
    scene_dims_for_mb(mb, w, h);
    const std::uint64_t px = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
    const core::CpuCost cost = core::cpu_morphology_cost(px, 9, kPaperBands);

    ModelRow row;
    row.mb = mb;
    row.p4 = core::model_cpu_morphology_seconds(p4, cost, vectorized);
    row.prescott = core::model_cpu_morphology_seconds(prescott, cost, vectorized);

    const core::GpuExtrapolation e_nv38 = core::extrapolate_gpu_morphology(
        cal_nv38, nv38, w, h, kPaperBands, 1, true);
    const core::GpuExtrapolation e_g70 = core::extrapolate_gpu_morphology(
        cal_g70, g70, w, h, kPaperBands, 1, true);
    row.fx5950 = e_nv38.total_seconds();
    row.gtx7800 = e_g70.total_seconds();
    row.fx5950_compute = e_nv38.pass_seconds;
    row.gtx7800_compute = e_g70.pass_seconds;
    rows.push_back(row);
  }
  return rows;
}

void print_exec_time_tables(const std::string& name, const std::string& caption,
                            bool vectorized,
                            const std::vector<PaperRow>& paper,
                            const std::string& json_path) {
  util::Timer wall;
  const std::vector<ModelRow> rows = modeled_exec_rows(vectorized);
  const double wall_seconds = wall.seconds();

  util::Table table({"Size (MB)", "P4 C", "Prescott", "FX5950 U", "7800 GTX",
                     "FX5950 (compute)", "7800 (compute)"});
  for (const ModelRow& r : rows) {
    table.add_row({std::to_string(r.mb), util::format_duration(r.p4),
                   util::format_duration(r.prescott),
                   util::format_duration(r.fx5950),
                   util::format_duration(r.gtx7800),
                   util::format_duration(r.fx5950_compute),
                   util::format_duration(r.gtx7800_compute)});
  }
  table.print(std::cout, caption + " -- modeled on this library's cost model");

  util::Table ptable({"Size (MB)", "P4 C", "Prescott", "FX5950 U", "7800 GTX"});
  for (const PaperRow& r : paper) {
    ptable.add_row({std::to_string(r.mb), util::Table::num(r.p4, 2),
                    util::Table::num(r.prescott, 2),
                    util::Table::num(r.fx5950, 3), util::Table::num(r.gtx7800, 3)});
  }
  std::cout << "\n";
  ptable.print(std::cout,
               "Paper's published values (ms as printed; see EXPERIMENTS.md "
               "on the units)");

  // Shape summary: the relations the reproduction targets.
  const ModelRow& last = rows.back();
  util::Table shape({"Relation", "modeled", "paper"});
  const PaperRow& plast = paper.back();
  shape.add_row({"Prescott / P4 (gen. gain)",
                 util::Table::num(last.prescott / last.p4, 3),
                 util::Table::num(plast.prescott / plast.p4, 3)});
  shape.add_row({"FX5950 / 7800 (GPU gen.)",
                 util::Table::num(last.fx5950 / last.gtx7800, 2) + "x",
                 util::Table::num(plast.fx5950 / plast.gtx7800, 2) + "x"});
  shape.add_row({"P4 / 7800 (total)",
                 util::Table::num(last.p4 / last.gtx7800, 1) + "x",
                 util::Table::num(plast.p4 / plast.gtx7800, 1) + "x"});
  shape.add_row({"P4 / 7800 (compute only)",
                 util::Table::num(last.p4 / last.gtx7800_compute, 1) + "x", "-"});
  shape.add_row({"Linear scaling 547/68 vs 8.04x",
                 util::Table::num(last.gtx7800 / rows.front().gtx7800, 2) + "x",
                 util::Table::num(plast.gtx7800 / paper.front().gtx7800, 2) + "x"});
  std::cout << "\n";
  shape.print(std::cout, "Shape comparison (largest size)");

  if (!json_path.empty()) {
    JsonReport report(name);
    report.add("calibration", "wall_seconds", wall_seconds);
    for (const ModelRow& r : rows) {
      const std::string bench = "mb" + std::to_string(r.mb);
      report.add(bench, "modeled_p4_seconds", r.p4);
      report.add(bench, "modeled_prescott_seconds", r.prescott);
      report.add(bench, "modeled_fx5950_seconds", r.fx5950);
      report.add(bench, "modeled_7800gtx_seconds", r.gtx7800);
      report.add(bench, "modeled_7800gtx_compute_seconds", r.gtx7800_compute);
    }
    report.write(json_path);
  }
}

}  // namespace hs::bench
