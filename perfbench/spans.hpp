// In-memory spans around the benchmark's own calls into the library.
//
// Every span carries a name, start, end, the index of the span that was
// open when it began (its parent) and the run id, and is written out as a
// Chrome trace (chrome://tracing, ui.perfetto.dev) when the run ends.
// Spans are opened and closed on the benchmark's main thread only; the
// library's worker threads are never instrumented from here.
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pmbench {

class SpanLog {
 public:
  explicit SpanLog(std::uint64_t run_id)
      : run_id_(run_id), epoch_(std::chrono::steady_clock::now()) {}

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::size_t open(std::string name) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Closes the innermost open span, which must be `index`.
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    if (!open_.empty() && open_.back() == index) open_.pop_back();
  }

  std::size_t size() const { return spans_.size(); }

  bool write_chrome_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"pmbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"span\":%zu,\"parent\":%" PRId64
                   ",\"run_id\":%" PRIu64 "}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_ns / 1e3,
                   (s.end_ns - s.start_ns) / 1e3, i, s.parent, run_id_);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;
  };

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// Times a scope with steady_clock and, when given a log, records it as a
// span. With a null log it is only a stopwatch, so the untraced run takes
// the same code path minus the span bookkeeping.
class Timed {
 public:
  Timed(SpanLog* log, const char* name)
      : log_(log), start_(std::chrono::steady_clock::now()) {
    if (log_ != nullptr) index_ = log_->open(name);
  }
  ~Timed() { stop(); }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Ends the scope (idempotent) and returns its length in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      if (log_ != nullptr) log_->close(index_);
      stopped_ = true;
    }
    return seconds_;
  }

 private:
  SpanLog* log_;
  std::chrono::steady_clock::time_point start_;
  std::size_t index_ = 0;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

}  // namespace pmbench
