// Per-job timeline export (`hs::serve`): one strict-JSON document per job
// describing its whole life -- submission, queueing, every attempt, faults,
// retry backoffs, cache hits, cancellation checks, and the terminal state
// -- assembled from JobResult::timeline plus the derived duration split
// (queue_ms / exec_ms / run_ms / total_ms).
//
// Schema "hs.timeline.v1", validated by trace::json::validate_timeline_json.
// Timelines are plain serve-layer data: they stay exact in an HS_TRACE=OFF
// build, extending the per-instance-stats guarantee of the cache layer.
#pragma once

#include <iosfwd>
#include <string>

#include "serve/job.hpp"

namespace hs::serve {

/// Serializes `result` as one "hs.timeline.v1" document.
void write_timeline_json(std::ostream& os, const JobResult& result);

/// File variant, published atomically (util::write_file_atomic: a reader
/// sees no file or the whole document). Returns false when the file
/// cannot be written.
bool write_timeline_json_file(const std::string& path, const JobResult& result);

/// Canonical file name for a job's timeline: "timeline_job<id>.json".
std::string timeline_filename(const JobResult& result);

}  // namespace hs::serve
