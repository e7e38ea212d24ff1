// The job-submission seam between front doors and execution tiers.
//
// `JobBackend` is the narrow interface a front door (net::NetServer)
// actually needs from whatever executes jobs behind it: submit a spec,
// observe terminal results and progress ticks, and read the queue depth
// that prices 429 retry hints. Two implementations exist:
//
//   * serve::Server  -- the in-process worker pool (server.hpp);
//   * shard::Router  -- the multi-process sharded tier (src/shard/), which
//     forwards each spec to one of N hsi-served --worker processes over
//     loopback sockets and replays their terminal frames through the same
//     hooks.
//
// The contract mirrors what Server has always guaranteed, and Router must
// preserve it, because NetServer's correctness leans on every clause:
//
//   * submit() is thread-safe and never throws for inadmissible jobs; it
//     reports them as a non-admitted Submitted whose state/detail say why.
//   * Every admitted job reaches exactly one terminal state, and the
//     on_terminal hook fires exactly once per job -- including jobs
//     rejected synchronously inside submit() -- on the thread that
//     terminalizes it, with the backend's internal lock held. The hook
//     must be cheap and must not call back into the backend.
//   * on_progress (when installed) may fire from arbitrary backend
//     threads without the lock; it must be thread-safe and cheap.
//   * set_on_terminal(nullptr) blocks until any in-progress invocation
//     has returned, so a front door can detach safely in its destructor.
//   * Record lifetime: once the on_terminal hook has been handed a
//     terminal result, the backend retires that record -- the hook's copy
//     is the only one left, and wait()/result()/results() no longer see
//     the job. With no hook installed, records stay, so library callers,
//     tests and batch runs keep using wait()/results() unchanged. A
//     long-running front door therefore holds memory only for jobs still
//     running, never for every job it has served.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "serve/job.hpp"

namespace hs::serve {

/// Outcome of JobBackend::submit(): `admitted` jobs are queued; rejected
/// ones are already terminal (state/detail say why). With no on_terminal
/// hook installed the backend still tracks them, so wait()/results() style
/// queries cover them too; with a hook they were handed to it and retired,
/// like every other terminal job.
struct Submitted {
  std::uint64_t id = 0;
  bool admitted = false;
  JobState state = JobState::Queued;
  std::string detail;
};

class JobBackend {
 public:
  virtual ~JobBackend() = default;

  virtual Submitted submit(const JobSpec& spec) = 0;

  /// Jobs queued but not yet running; front doors derive retry-after
  /// hints from it. Must be callable from any thread.
  virtual std::size_t queue_depth() const = 0;

  virtual void set_on_terminal(std::function<void(const JobResult&)> hook) = 0;
  virtual void set_on_progress(
      std::function<void(std::uint64_t id, std::uint64_t checks)> hook) = 0;
};

}  // namespace hs::serve
