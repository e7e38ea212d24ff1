#include "stream/executor.hpp"

#include <chrono>

#include "trace/histogram.hpp"

namespace hs::stream {

gpusim::PassStats StreamExecutor::run(
    const std::string& stage_name, const gpusim::FragmentProgram& program,
    std::span<const gpusim::TextureHandle> inputs,
    std::span<const gpusim::float4> constants,
    std::span<const gpusim::TextureHandle> outputs) {
  trace::Span span(stage_name, "stage_pass");
  const auto draw_begin = std::chrono::steady_clock::now();
  const gpusim::PassStats pass = device_->draw(program, inputs, constants, outputs);
  trace::histogram("stream.stage_pass_s")
      .record(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            draw_begin)
                  .count());
  if (span.active()) {
    span.arg("program", program.name);
    span.arg("fragments", static_cast<double>(pass.fragments));
    span.arg("modeled_us", pass.modeled_seconds * 1e6);
  }
  double stage_total = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StageStats& s = stage_locked(stage_name);
    s.passes += 1;
    s.fragments += pass.fragments;
    s.alu_instructions += pass.exec.alu_instructions;
    s.tex_fetches += pass.exec.tex_fetches;
    s.cache_miss_bytes += pass.cache_miss_bytes;
    s.unique_tile_bytes += pass.unique_tile_bytes;
    s.bytes_written += pass.bytes_written;
    s.modeled_seconds += pass.modeled_seconds;
    stage_total = s.modeled_seconds;
  }
  passes_counter_->increment();
  stage_seconds_gauge_->set(stage_total);
  return pass;
}

void StreamExecutor::add_stage_time(const std::string& stage_name, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  stage_locked(stage_name).modeled_seconds += seconds;
}

StageStats& StreamExecutor::stage_locked(const std::string& name) {
  auto [it, inserted] = stages_.try_emplace(name);
  if (inserted) order_.push_back(name);
  return it->second;
}

}  // namespace hs::stream
