#include "tracing.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

namespace {

constexpr std::size_t kFoldAt = 1 << 16;
constexpr std::size_t kSampleSpans = 4096;

std::atomic<std::uint64_t> g_generation{0};

}  // namespace

struct Tracer::ThreadTrace {
  struct Rec {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    SpanKind kind = SpanKind::kUser;
  };

  std::vector<Rec> recs;
  std::vector<std::int32_t> stack;
  std::vector<std::int64_t> child_ns;  // fold scratch
  SpanTotals totals[static_cast<std::size_t>(SpanKind::kCount)];
  std::int64_t top_ns = 0;
  std::vector<Rec> sample;
  bool worker = false;
  std::atomic<std::int64_t> cpu_at_exit{-1};

  ThreadTrace() {
    recs.reserve(kFoldAt + 64);
    stack.reserve(16);
  }

  void fold() {
    child_ns.assign(recs.size(), 0);
    for (std::size_t i = recs.size(); i-- > 0;) {
      const Rec& r = recs[i];
      if (r.parent >= 0) child_ns[r.parent] += r.end - r.start;
    }
    for (std::size_t i = 0; i < recs.size(); ++i) {
      const Rec& r = recs[i];
      const std::int64_t dur = r.end - r.start;
      SpanTotals& t = totals[static_cast<std::size_t>(r.kind)];
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      if (r.parent < 0) top_ns += dur;
    }
    if (sample.empty()) {
      sample.assign(recs.begin(),
                    recs.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(recs.size(), kSampleSpans)));
    }
    recs.clear();
  }
};

namespace {

// Per-thread handle; its destructor runs at thread exit and records the
// thread's CPU time into the (tracer-owned) trace.
struct LocalSlot {
  std::uint64_t generation = 0;
  std::shared_ptr<Tracer::ThreadTrace> trace;
  ~LocalSlot() {
    if (trace) trace->cpu_at_exit.store(thread_cpu_ns());
  }
};
thread_local LocalSlot t_slot;
thread_local bool t_is_owner = false;

}  // namespace

Tracer::Tracer() : generation_(++g_generation) { t_is_owner = true; }

Tracer::~Tracer() = default;

Tracer::ThreadTrace& Tracer::local() {
  if (t_slot.generation != generation_) {
    auto trace = std::make_shared<ThreadTrace>();
    trace->worker = !t_is_owner;
    {
      std::lock_guard<std::mutex> guard{mutex_};
      threads_.push_back(trace);
    }
    t_slot.generation = generation_;
    t_slot.trace = std::move(trace);
  }
  return *t_slot.trace;
}

void Tracer::begin(SpanKind kind) {
  ThreadTrace& t = local();
  const std::int32_t parent = t.stack.empty() ? -1 : t.stack.back();
  t.stack.push_back(static_cast<std::int32_t>(t.recs.size()));
  t.recs.push_back(ThreadTrace::Rec{wall_ns(), 0, parent, kind});
}

void Tracer::end() {
  ThreadTrace& t = local();
  t.recs[t.stack.back()].end = wall_ns();
  t.stack.pop_back();
  if (t.stack.empty() && t.recs.size() >= kFoldAt) t.fold();
}

Tracer::Summary Tracer::summarize() {
  Summary summary;
  std::lock_guard<std::mutex> guard{mutex_};
  for (const auto& trace : threads_) {
    if (trace->stack.empty()) trace->fold();
    for (std::size_t k = 0; k < std::size(summary.kinds); ++k) {
      summary.kinds[k].count += trace->totals[k].count;
      summary.kinds[k].total_ns += trace->totals[k].total_ns;
      summary.kinds[k].self_ns += trace->totals[k].self_ns;
    }
    const std::int64_t cpu = trace->cpu_at_exit.load();
    if (trace->worker && cpu >= 0) {
      summary.worker_cpu_ns += cpu;
      summary.worker_span_ns += trace->top_ns;
    }
  }
  return summary;
}

void Tracer::write_sample(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[");
  bool first = true;
  std::lock_guard<std::mutex> guard{mutex_};
  for (std::size_t tid = 0; tid < threads_.size(); ++tid) {
    for (const ThreadTrace::Rec& r : threads_[tid]->sample) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   first ? "" : ",",
                   kSpanKindNames[static_cast<std::size_t>(r.kind)], tid,
                   r.start / 1e3, (r.end - r.start) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
}

void Capture::offer(const ddbg::Message& message, std::uint64_t& counter) {
  if (message.kind == ddbg::MessageKind::kApplication) {
    if (counter++ % kAppEvery != 0) return;
    std::lock_guard<std::mutex> guard{mutex_};
    if (app_.size() < kMaxApp) app_.push_back(message);
    return;
  }
  std::lock_guard<std::mutex> guard{mutex_};
  if (other_.size() < kMaxOther) other_.push_back(message);
}

std::vector<ddbg::Message> Capture::messages() const {
  std::lock_guard<std::mutex> guard{mutex_};
  std::vector<ddbg::Message> all = app_;
  all.insert(all.end(), other_.begin(), other_.end());
  return all;
}

std::vector<ddbg::HaltMarkerData> Capture::markers() const {
  std::lock_guard<std::mutex> guard{mutex_};
  std::vector<ddbg::HaltMarkerData> out;
  for (const ddbg::Message& m : other_) {
    if (m.halt.has_value()) out.push_back(*m.halt);
  }
  return out;
}

void TracedContext::send(ddbg::ChannelId channel, ddbg::Message message) {
  capture_.offer(message, sends_);
  tracer_.begin(SpanKind::kSend);
  inner_->send(channel, std::move(message));
  tracer_.end();
}

SpanKind TracedProcess::kind_for(ddbg::MessageKind kind) const {
  switch (role_) {
    case Role::kAggregator: return SpanKind::kAggregator;
    case Role::kRoot: return SpanKind::kRoot;
    case Role::kShim: break;
  }
  switch (kind) {
    case ddbg::MessageKind::kApplication: return SpanKind::kShimApp;
    case ddbg::MessageKind::kHaltMarker: return SpanKind::kShimMarker;
    default: return SpanKind::kShimControl;
  }
}

void TracedProcess::on_start(ddbg::ProcessContext& ctx) {
  ctx_.bind(ctx);
  SpanScope span(&tracer_, SpanKind::kStart);
  inner_->on_start(ctx_);
}

void TracedProcess::on_message(ddbg::ProcessContext& ctx, ddbg::ChannelId in,
                               ddbg::Message message) {
  ctx_.bind(ctx);
  SpanScope span(&tracer_, kind_for(message.kind));
  inner_->on_message(ctx_, in, std::move(message));
}

void TracedProcess::on_timer(ddbg::ProcessContext& ctx, ddbg::TimerId timer) {
  ctx_.bind(ctx);
  SpanScope span(&tracer_, SpanKind::kShimTimer);
  inner_->on_timer(ctx_, timer);
}

}  // namespace perfbench
