#include "service/dispatch.h"

#include <utility>

namespace optshare::service {
namespace {

/// One reused serialization buffer per thread — per worker shard on the
/// dispatch path, per transport thread for inline errors. Responses are
/// appended here and handed to `done` as a view, so steady-state serving
/// allocates nothing per response (the buffer's capacity converges on the
/// largest response that shard has produced).
std::string* ResponseScratch() {
  thread_local std::string scratch;
  scratch.clear();
  return &scratch;
}

}  // namespace

bool RequestDispatcher::Submit(const std::string& line,
                               std::function<void(std::string_view)> done) {
  protocol::Request request;
  if (const std::optional<protocol::Response> rejected =
          protocol::AdmitRequestLine(line, server_->line_caps(), &request)) {
    std::string* scratch = ResponseScratch();
    protocol::AppendResponseLine(*rejected, scratch);
    done(*scratch);
    return false;
  }
  const bool is_shutdown = request.op == protocol::RequestOp::kShutdown;
  // The raw line rides along so a single-tenancy batch frame journals
  // verbatim; it is only read during the call itself (the line buffer is
  // reused once Submit returns).
  server_->DispatchCallback(
      std::move(request),
      [done = std::move(done)](protocol::Response response) {
        std::string* scratch = ResponseScratch();
        protocol::AppendResponseLine(response, scratch);
        done(*scratch);
      },
      &line);
  return is_shutdown;
}

std::string RequestDispatcher::OversizedLineResponse() const {
  return protocol::FormatResponseLine(
      protocol::OversizedLineResponse(server_->line_caps()));
}

uint64_t OrderedLineWriter::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_reserve_++;
}

void OrderedLineWriter::Complete(uint64_t slot, std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot == next_flush_) {
    // In-order arrival: pass the view straight through, no copy, then
    // drain whatever buffered successors it unblocks.
    sink_(line);
    ++next_flush_;
  } else {
    // Out of order: buffer a copy; it flushes once its predecessors land.
    ready_.emplace(slot, std::string(line));
  }
  for (auto it = ready_.begin();
       it != ready_.end() && it->first == next_flush_;) {
    sink_(it->second);
    it = ready_.erase(it);
    ++next_flush_;
  }
}

bool OrderedLineWriter::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_flush_ == next_reserve_ && ready_.empty();
}

}  // namespace optshare::service
