#include "serve/server.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "core/amc_gpu.hpp"
#include "core/cost_model.hpp"
#include "core/structuring_element.hpp"
#include "core/unmix_gpu.hpp"
#include "gpusim/device_profile.hpp"
#include "hsi/envi_io.hpp"
#include "hsi/synthetic.hpp"
#include "trace/flight_recorder.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace hs::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

trace::Counter& state_counter(JobState state) {
  switch (state) {
    case JobState::Done: return trace::counter("serve.jobs.done");
    case JobState::Failed: return trace::counter("serve.jobs.failed");
    case JobState::Rejected: return trace::counter("serve.jobs.rejected");
    case JobState::TimedOut: return trace::counter("serve.jobs.timed_out");
    case JobState::Cancelled: return trace::counter("serve.jobs.cancelled");
    case JobState::Queued:
    case JobState::Running: break;
  }
  HS_ASSERT_MSG(false, "state_counter on a non-terminal state");
  return trace::counter("serve.jobs.invalid");
}

std::uint64_t hash_floats(const std::vector<float>& v, std::uint64_t seed) {
  return fnv1a(v.data(), v.size() * sizeof(float), seed);
}

std::uint64_t hash_ints(const std::vector<int>& v, std::uint64_t seed) {
  return fnv1a(v.data(), v.size() * sizeof(int), seed);
}

/// Appends a timeline moment stamped "now", relative to `submit_tp`.
void mark(JobResult& result, std::chrono::steady_clock::time_point submit_tp,
          std::string what, std::string detail = {}) {
  result.timeline.push_back(TimelineEvent{
      seconds_between(submit_tp, std::chrono::steady_clock::now()),
      std::move(what), std::move(detail)});
}

}  // namespace

JobEstimate estimate_job(const JobSpec& spec) {
  int w = spec.scene.width;
  int h = spec.scene.height;
  int bands = spec.scene.bands;
  if (!spec.scene.envi_path.empty()) {
    const hsi::EnviHeader hdr = hsi::read_envi_header(spec.scene.envi_path);
    w = hdr.samples;
    h = hdr.lines;
    bands = hdr.bands;
  }
  if (w <= 0 || h <= 0 || bands <= 0) {
    throw std::invalid_argument("scene dimensions must be positive");
  }
  if (spec.se_radius < 0) throw std::invalid_argument("se_radius must be >= 0");
  if (spec.endmembers < 1) {
    throw std::invalid_argument("endmembers must be >= 1");
  }

  JobEstimate est;
  est.pixels = static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
  // Host working set: the float cube, plus mei/db scalars and/or labels.
  est.bytes = est.pixels * static_cast<std::uint64_t>(bands) * 4 +
              est.pixels * 12;

  const double px = static_cast<double>(est.pixels);
  const int c = spec.endmembers;
  core::CpuCost cost;
  if (spec.kind != JobKind::Unmix) {
    const int se_edge = 2 * spec.se_radius + 1;
    cost = core::cpu_morphology_cost(est.pixels, se_edge * se_edge, bands);
  }
  if (spec.kind != JobKind::Morphology) {
    // Unmixing: per pixel, c dot products over `bands` (mul+add) plus the
    // argmax chain; traffic is one cube read and a label write.
    cost.flops += px * (2.0 * bands * c + c);
    cost.bytes += px * (bands * 4.0 + 4.0);
  }
  est.seconds = core::model_cpu_morphology_seconds(gpusim::pentium4_prescott(),
                                                   cost, /*vectorized=*/true);
  return est;
}

Server::Server(const ServerOptions& options)
    : options_(options),
      result_cache_(options.result_cache_bytes),
      scene_cache_(options.scene_cache_bytes),
      shared_programs_(std::make_shared<gpusim::SharedProgramStore>()),
      queue_(std::max<std::size_t>(1, options.admission.max_queue_depth)) {
  update_gauges_locked();  // still single-threaded: no lock needed yet
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { shutdown(/*drain=*/false); }

void Server::update_gauges_locked() {
  trace::gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  trace::gauge("serve.in_flight").set(static_cast<double>(in_flight_));
  trace::gauge("serve.worker_utilization")
      .set(static_cast<double>(in_flight_) /
           static_cast<double>(std::max<std::size_t>(1, options_.workers)));
}

void Server::finalize_locked(Record& rec, JobState state,
                             const std::string& detail) {
  HS_ASSERT_MSG(!is_terminal(rec.result.state), "job finalized twice");
  rec.result.state = state;
  if (!detail.empty()) rec.result.detail = detail;
  mark(rec.result, rec.submit_tp, "terminal", to_string(state));
  if (state == JobState::Done) {
    // The same queue + run split the JobResult carries, so exported
    // percentiles cross-check exactly against per-job reports.
    trace::histogram("serve.total_s")
        .record(rec.result.queue_seconds + rec.result.run_seconds);
  }
  trace::flight_event("job.terminal", static_cast<std::int64_t>(rec.result.id),
                      rec.result.attempts, to_string(state));
  state_counter(state).increment();
  switch (state) {
    case JobState::Done:
      ++stats_.done;
      if (rec.result.cached) ++stats_.cached;
      break;
    case JobState::Failed: ++stats_.failed; break;
    case JobState::Rejected: ++stats_.rejected; break;
    case JobState::TimedOut: ++stats_.timed_out; break;
    case JobState::Cancelled: ++stats_.cancelled; break;
    case JobState::Queued:
    case JobState::Running: break;
  }
  update_gauges_locked();
  maybe_dump_flight_locked(rec.result);
  done_cv_.notify_all();
  // Front-door hook: fires under mu_ so a terminal state is observed
  // exactly once, in finalization order. The callback contract (cheap, no
  // re-entry) is documented on ServerOptions::on_terminal. The hook now
  // holds the only copy the server hands out, so the record retires.
  if (options_.on_terminal) {
    options_.on_terminal(rec.result);
    records_.erase(rec.result.id);
  }
}

void Server::set_on_terminal(std::function<void(const JobResult&)> hook) {
  std::unique_lock<std::mutex> lk(mu_);
  options_.on_terminal = std::move(hook);
}

void Server::set_on_progress(
    std::function<void(std::uint64_t id, std::uint64_t checks)> hook) {
  std::unique_lock<std::mutex> lk(mu_);
  options_.on_progress = std::move(hook);
}

Server::Submitted Server::submit(const JobSpec& spec) {
  // Admission latency: everything between the client calling submit() and
  // the queued/rejected decision, including the estimate's header read.
  const auto admission_start = std::chrono::steady_clock::now();
  struct AdmissionTimer {
    std::chrono::steady_clock::time_point start;
    ~AdmissionTimer() {
      trace::histogram("serve.admission_s")
          .record(seconds_between(start, std::chrono::steady_clock::now()));
    }
  } admission_timer{admission_start};

  // Estimate before taking the lock: it may read an ENVI header. A bad
  // scene is an admission failure, not an exception at the client.
  JobEstimate estimate;
  std::string estimate_error;
  try {
    estimate = estimate_job(spec);
  } catch (const std::exception& e) {
    estimate_error = std::string("bad scene: ") + e.what();
  }

  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t id = next_id_++;
  const std::uint64_t seq = next_seq_++;
  Record& rec = records_[id];
  rec.spec = spec;
  rec.submit_tp = std::chrono::steady_clock::now();
  rec.has_deadline = spec.deadline_seconds > 0;
  if (rec.has_deadline) {
    rec.deadline_tp =
        rec.submit_tp + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(spec.deadline_seconds));
  }
  rec.cancel_flag = std::make_shared<std::atomic<bool>>(false);
  rec.result.id = id;
  rec.result.name = spec.name;
  rec.result.kind = spec.kind;
  rec.result.priority = spec.priority;
  rec.result.timeline.push_back(TimelineEvent{0, "submitted", spec.name});
  trace::counter("serve.jobs.submitted").increment();
  ++stats_.submitted;
  trace::flight_event("job.submit", static_cast<std::int64_t>(id), 0,
                      to_string(spec.kind));

  auto reject = [&](const std::string& reason) {
    rec.result.queue_seconds =
        seconds_between(rec.submit_tp, std::chrono::steady_clock::now());
    finalize_locked(rec, JobState::Rejected, reason);
    return Submitted{id, false, JobState::Rejected, reason};
  };

  if (!accepting_) return reject("server is shutting down");
  if (!estimate_error.empty()) return reject(estimate_error);
  const AdmissionPolicy& policy = options_.admission;
  if (policy.max_estimated_bytes > 0 &&
      estimate.bytes > policy.max_estimated_bytes) {
    return reject("over budget: estimated " + std::to_string(estimate.bytes) +
                  " bytes > limit " +
                  std::to_string(policy.max_estimated_bytes));
  }
  if (policy.max_estimated_seconds > 0 &&
      estimate.seconds > policy.max_estimated_seconds) {
    return reject("over budget: estimated " + std::to_string(estimate.seconds) +
                  " s > limit " + std::to_string(policy.max_estimated_seconds));
  }

  if (queue_.full()) {
    const auto victim = queue_.shed_victim();
    const bool can_shed = policy.shed_low_priority && victim &&
                          static_cast<int>(victim->priority) <
                              static_cast<int>(spec.priority);
    if (!can_shed) return reject("queue full");
    queue_.remove(victim->id);
    Record& shed = records_.at(victim->id);
    shed.result.queue_seconds =
        seconds_between(shed.submit_tp, std::chrono::steady_clock::now());
    trace::counter("serve.jobs.shed").increment();
    mark(shed.result, shed.submit_tp, "shed",
         "by higher-priority job " + std::to_string(id));
    trace::flight_event("job.shed", static_cast<std::int64_t>(victim->id),
                        static_cast<std::int64_t>(id));
    finalize_locked(shed, JobState::Rejected,
                    "shed by higher-priority job " + std::to_string(id));
  }

  queue_.push(JobQueue::Entry{id, spec.priority, seq});
  rec.result.state = JobState::Queued;
  update_gauges_locked();
  work_cv_.notify_one();
  return Submitted{id, true, JobState::Queued, ""};
}

bool Server::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  Record& rec = it->second;
  if (rec.result.state == JobState::Queued) {
    queue_.remove(id);
    rec.result.queue_seconds =
        seconds_between(rec.submit_tp, std::chrono::steady_clock::now());
    finalize_locked(rec, JobState::Cancelled, "cancelled while queued");
    return true;
  }
  if (rec.result.state == JobState::Running) {
    rec.cancel_flag->store(true, std::memory_order_relaxed);
    mark(rec.result, rec.submit_tp, "cancel_requested");
    return true;
  }
  return false;
}

JobResult Server::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // Looked up afresh after every wakeup: a hooked record retires (and
    // its iterator dies) in the same critical section that finalizes it.
    const auto it = records_.find(id);
    if (it == records_.end()) {
      throw std::invalid_argument("unknown or retired job id " +
                                  std::to_string(id));
    }
    if (is_terminal(it->second.result.state)) return it->second.result;
    done_cv_.wait(lk);
  }
}

std::optional<JobResult> Server::result(std::uint64_t id) const {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = records_.find(id);
  if (it == records_.end()) return std::nullopt;
  return it->second.result;
}

std::vector<JobResult> Server::results() const {
  std::unique_lock<std::mutex> lk(mu_);
  std::vector<JobResult> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec.result);
  return out;
}

Server::Stats Server::stats() const {
  std::unique_lock<std::mutex> lk(mu_);
  return stats_;
}

std::size_t Server::queue_depth() const {
  std::unique_lock<std::mutex> lk(mu_);
  return queue_.size();
}

std::size_t Server::in_flight() const {
  std::unique_lock<std::mutex> lk(mu_);
  return in_flight_;
}

void Server::shutdown(bool drain) {
  std::unique_lock<std::mutex> lk(mu_);
  if (!accepting_ && threads_.empty()) return;  // already shut down
  accepting_ = false;
  if (drain) {
    done_cv_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
  } else {
    while (const auto entry = queue_.pop()) {
      Record& rec = records_.at(entry->id);
      rec.result.queue_seconds =
          seconds_between(rec.submit_tp, std::chrono::steady_clock::now());
      finalize_locked(rec, JobState::Cancelled, "cancelled by shutdown");
    }
    for (auto& [id, rec] : records_) {
      if (rec.result.state == JobState::Running) {
        rec.cancel_flag->store(true, std::memory_order_relaxed);
      }
    }
    update_gauges_locked();
  }
  stop_ = true;
  work_cv_.notify_all();
  std::vector<std::thread> threads = std::move(threads_);
  threads_.clear();
  lk.unlock();
  for (std::thread& t : threads) t.join();
}

void Server::worker_loop() {
  for (;;) {
    std::unique_lock<std::mutex> lk(mu_);
    work_cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
    const auto entry = queue_.pop();
    if (!entry) {
      if (stop_) return;
      continue;
    }
    Record& rec = records_.at(entry->id);
    const auto now = std::chrono::steady_clock::now();
    rec.result.queue_seconds = seconds_between(rec.submit_tp, now);
    trace::histogram("serve.queue_wait_s").record(rec.result.queue_seconds);
    trace::flight_event("job.dequeue",
                        static_cast<std::int64_t>(entry->id));
    if (rec.has_deadline && now >= rec.deadline_tp) {
      mark(rec.result, rec.submit_tp, "deadline_expired", "while queued");
      finalize_locked(rec, JobState::TimedOut, "deadline expired while queued");
      continue;
    }
    mark(rec.result, rec.submit_tp, "dequeued");
    rec.result.state = JobState::Running;
    ++in_flight_;
    update_gauges_locked();
    const std::uint64_t id = entry->id;
    const JobSpec spec = rec.spec;
    const auto cancel_flag = rec.cancel_flag;
    const bool has_deadline = rec.has_deadline;
    const auto deadline_tp = rec.deadline_tp;
    const auto submit_tp = rec.submit_tp;
    // Copied under mu_: set_on_progress may swap the hook while we run.
    const auto progress = options_.on_progress;
    JobResult outcome;
    lk.unlock();

    run_job(id, spec, cancel_flag, has_deadline, deadline_tp, submit_tp,
            progress, outcome);

    lk.lock();
    Record& done = records_.at(id);
    --in_flight_;
    done.result.attempts = outcome.attempts;
    done.result.cached = outcome.cached;
    done.result.run_seconds = outcome.run_seconds;
    done.result.exec_seconds = outcome.exec_seconds;
    done.result.modeled_seconds = outcome.modeled_seconds;
    done.result.chunk_count = outcome.chunk_count;
    done.result.pipeline_workers = outcome.pipeline_workers;
    done.result.output_hash = outcome.output_hash;
    done.result.mei = std::move(outcome.mei);
    done.result.labels = std::move(outcome.labels);
    // Merge the attempt-side events with the submit/cancel-side ones;
    // cancel() may have interleaved a cancel_requested stamp, so restore
    // global time order.
    done.result.timeline.insert(
        done.result.timeline.end(),
        std::make_move_iterator(outcome.timeline.begin()),
        std::make_move_iterator(outcome.timeline.end()));
    std::stable_sort(done.result.timeline.begin(), done.result.timeline.end(),
                     [](const TimelineEvent& x, const TimelineEvent& y) {
                       return x.t_seconds < y.t_seconds;
                     });
    trace::histogram("serve.exec_s").record(outcome.exec_seconds);
    finalize_locked(done, outcome.state, outcome.detail);
  }
}

/// Flight-recorder dump for a just-terminalized job, when configured and
/// the terminal state is a failure class. Called with mu_ held: the write
/// happens outside the serve lock's hot path only in failure cases, where
/// a consistent "moment of death" capture matters more than latency.
void Server::maybe_dump_flight_locked(const JobResult& result) {
  if (options_.flight_dump_dir.empty()) return;
  if (result.state != JobState::Failed && result.state != JobState::TimedOut) {
    return;
  }
  const std::string path = options_.flight_dump_dir + "/flight_job" +
                           std::to_string(result.id) + ".json";
  const std::string reason = std::string("job ") + std::to_string(result.id) +
                             " " + to_string(result.state) +
                             (result.detail.empty() ? "" : ": " + result.detail);
  if (!trace::write_flight_json_file(path, reason)) {
    util::logkv(util::LogLevel::Warn, "flight dump failed",
                {{"path", path}, {"job", static_cast<std::int64_t>(result.id)}});
  }
}

std::shared_ptr<const hsi::HyperCube> Server::load_scene(
    const SceneSpec& scene) {
  if (!scene.envi_path.empty()) {
    return std::make_shared<const hsi::HyperCube>(
        hsi::read_envi(scene.envi_path));
  }
  if (scene_cache_.enabled()) {
    return scene_cache_.get_or_generate(
        cache::SceneKey{scene.width, scene.height, scene.bands, scene.seed});
  }
  hsi::SceneConfig cfg;
  cfg.width = scene.width;
  cfg.height = scene.height;
  cfg.bands = scene.bands;
  cfg.seed = scene.seed;
  return std::make_shared<const hsi::HyperCube>(
      hsi::generate_indian_pines_scene(cfg).cube);
}

void Server::run_job(
    std::uint64_t id, const JobSpec& spec,
    const std::shared_ptr<std::atomic<bool>>& cancel_flag, bool has_deadline,
    std::chrono::steady_clock::time_point deadline_tp,
    std::chrono::steady_clock::time_point submit_tp,
    const std::function<void(std::uint64_t, std::uint64_t)>& progress,
    JobResult& out) {
  const auto start = std::chrono::steady_clock::now();
  // Everything this worker does for the job -- spans, log lines, flight
  // events -- carries the job id from here on.
  util::ScopedJobTag job_tag(id);
  double backoff_total = 0;
  // Cooperative-cancellation checks at chunk boundaries, summarized as one
  // timeline event after the run (a per-check event would dwarf the rest).
  auto cancel_checks = std::make_shared<std::atomic<std::uint64_t>>(0);

  // Cache lookup before the attempt loop: a hit serves the stored outputs
  // of an identical earlier run (bit-identical by the determinism
  // contract) without touching the fault injector or retry machinery. A
  // payload-less entry cannot satisfy a payload-keeping server, so that
  // case falls through to a live run, which re-stores with payloads.
  std::optional<cache::Fingerprint> fp;
  if (result_cache_.enabled() && is_cacheable(spec)) {
    fp = job_fingerprint(spec);
    if (const auto hit = result_cache_.get(*fp);
        hit && (hit->has_payloads || !options_.keep_payloads)) {
      out.cached = true;
      out.attempts = 0;
      out.modeled_seconds = hit->modeled_seconds;
      out.chunk_count = hit->chunk_count;
      out.pipeline_workers = hit->pipeline_workers;
      out.output_hash = hit->output_hash;
      if (options_.keep_payloads) {
        out.mei = hit->mei;
        out.labels = hit->labels;
      }
      mark(out, submit_tp, "cache_hit");
      trace::flight_event("job.cache_hit", static_cast<std::int64_t>(id));
      out.state = JobState::Done;
      out.run_seconds =
          seconds_between(start, std::chrono::steady_clock::now());
      out.exec_seconds = out.run_seconds;
      return;
    }
  }

  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    mark(out, submit_tp, "attempt", std::to_string(attempt));
    trace::flight_event("job.attempt", static_cast<std::int64_t>(id), attempt);
    trace::Span span("serve.job", "serve");
    if (span.active()) {
      span.arg("id", static_cast<double>(id));
      span.arg("kind", to_string(spec.kind));
      span.arg("priority", to_string(spec.priority));
      span.arg("attempt", attempt);
    }
    try {
      if (cancel_flag->load(std::memory_order_relaxed)) {
        out.state = JobState::Cancelled;
        out.detail = "cancelled while running";
        break;
      }
      if (has_deadline && std::chrono::steady_clock::now() >= deadline_tp) {
        out.state = JobState::TimedOut;
        out.detail = "deadline expired while running";
        break;
      }
      if (options_.inject_fault && options_.inject_fault(id, attempt)) {
        throw TransientFault("injected transient fault (attempt " +
                             std::to_string(attempt) + ")");
      }

      const std::shared_ptr<const hsi::HyperCube> scene =
          load_scene(spec.scene);
      const hsi::HyperCube& cube = *scene;
      core::AmcGpuOptions opt;
      opt.sim.shared_programs = shared_programs_;
      opt.workers = spec.workers;
      opt.chunk_texel_budget = spec.chunk_texel_budget;
      opt.half_precision = spec.half_precision;
      opt.cancel_check = [cancel_flag, has_deadline, deadline_tp,
                          cancel_checks, &progress, id] {
        const std::uint64_t checks =
            cancel_checks->fetch_add(1, std::memory_order_relaxed) + 1;
        if (progress) progress(id, checks);
        if (cancel_flag->load(std::memory_order_relaxed)) return true;
        return has_deadline &&
               std::chrono::steady_clock::now() >= deadline_tp;
      };

      std::uint64_t hash = fnv1a(nullptr, 0);
      out.modeled_seconds = 0;
      out.chunk_count = 0;
      if (spec.kind != JobKind::Unmix) {
        const core::AmcGpuReport report = core::morphology_gpu(
            cube, core::StructuringElement::square(spec.se_radius), opt);
        hash = hash_floats(report.morph.mei, hash);
        hash = hash_floats(report.morph.db, hash);
        out.mei = report.morph.mei;
        out.modeled_seconds += report.modeled_seconds;
        out.chunk_count += report.chunk_count;
        out.pipeline_workers = report.workers_used;
      }
      if (spec.kind != JobKind::Morphology) {
        const auto endmembers = synthetic_endmembers(
            spec.endmembers, cube.bands(), spec.scene.seed);
        const core::GpuUnmixReport report =
            core::unmix_gpu(cube, endmembers, opt);
        hash = hash_ints(report.labels, hash);
        out.labels = report.labels;
        out.modeled_seconds += report.modeled_seconds;
        out.chunk_count += report.chunk_count;
        out.pipeline_workers = report.workers_used;
      }
      out.output_hash = hash;
      if (fp) {
        auto entry = std::make_shared<cache::CachedJobOutputs>();
        entry->modeled_seconds = out.modeled_seconds;
        entry->chunk_count = out.chunk_count;
        entry->pipeline_workers = out.pipeline_workers;
        entry->output_hash = hash;
        entry->has_payloads = options_.keep_payloads;
        if (options_.keep_payloads) {
          entry->mei = out.mei;
          entry->labels = out.labels;
        }
        result_cache_.put(*fp, std::move(entry));
      }
      if (!options_.keep_payloads) {
        out.mei.clear();
        out.mei.shrink_to_fit();
        out.labels.clear();
        out.labels.shrink_to_fit();
      }
      out.state = JobState::Done;
      break;
    } catch (const TransientFault& e) {
      mark(out, submit_tp, "fault", e.what());
      trace::flight_event("job.fault", static_cast<std::int64_t>(id), attempt,
                          e.what());
      if (attempt <= spec.max_retries) {
        trace::counter("serve.retries").increment();
        if (options_.retry_backoff_seconds > 0 &&
            !cancel_flag->load(std::memory_order_relaxed)) {
          // Exponential: base, 2*base, 4*base, ... per consumed retry.
          const double backoff = options_.retry_backoff_seconds *
                                 static_cast<double>(1ull << (attempt - 1));
          mark(out, submit_tp, "backoff",
               std::to_string(backoff * 1e3) + " ms");
          const auto backoff_start = std::chrono::steady_clock::now();
          std::this_thread::sleep_for(
              std::chrono::duration<double>(backoff));
          const double slept = seconds_between(
              backoff_start, std::chrono::steady_clock::now());
          backoff_total += slept;
          trace::histogram("serve.retry_backoff_s").record(slept);
        }
        continue;
      }
      out.state = JobState::Failed;
      out.detail = e.what();
      break;
    } catch (const core::PipelineCancelled& e) {
      if (cancel_flag->load(std::memory_order_relaxed)) {
        out.state = JobState::Cancelled;
        out.detail = std::string("cancelled while running: ") + e.what();
      } else {
        out.state = JobState::TimedOut;
        out.detail = std::string("deadline expired while running: ") + e.what();
      }
      break;
    } catch (const std::exception& e) {
      out.state = JobState::Failed;
      out.detail = e.what();
      break;
    }
  }
  if (const std::uint64_t checks =
          cancel_checks->load(std::memory_order_relaxed);
      checks > 0) {
    mark(out, submit_tp, "cancel_checks", std::to_string(checks) + " checks");
  }
  out.run_seconds = seconds_between(start, std::chrono::steady_clock::now());
  out.exec_seconds = std::max(0.0, out.run_seconds - backoff_total);
}

}  // namespace hs::serve
