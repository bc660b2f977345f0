#include "spans.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common.h"

namespace layerbench::spans {

namespace {

struct Record {
  const char* name;
  std::int64_t task;
  std::int64_t start_ns;
  std::int64_t duration_ns;
  std::int64_t self_ns;
};

struct Buffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<std::shared_ptr<Buffer>> g_buffers;  // guarded by g_mutex

thread_local Span* t_open = nullptr;
thread_local std::shared_ptr<Buffer> t_buffer;

Buffer& local_buffer() {
  if (!t_buffer) {
    t_buffer = std::make_shared<Buffer>();
    const std::lock_guard<std::mutex> lock(g_mutex);
    t_buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(t_buffer);
  }
  return *t_buffer;
}

}  // namespace

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::int64_t task) noexcept {
  if (!enabled()) return;
  name_ = name;
  task_ = task;
  parent_ = t_open;
  t_open = this;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const std::int64_t duration = now_ns() - start_ns_;
  t_open = parent_;
  if (parent_ != nullptr) parent_->child_ns_ += duration;
  local_buffer().records.push_back(
      Record{name_, task_, start_ns_, duration, duration - child_ns_});
}

std::map<std::string, Summary> summarize() {
  std::map<std::string, Summary> out;
  const std::lock_guard<std::mutex> lock(g_mutex);
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      Summary& s = out[r.name];
      ++s.count;
      s.total_ms += static_cast<double>(r.duration_ns) * 1e-6;
      s.self_ms += static_cast<double>(r.self_ns) * 1e-6;
    }
  }
  return out;
}

std::uint64_t write(const std::string& path, std::uint64_t limit) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  const std::lock_guard<std::mutex> lock(g_mutex);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      origin = std::min(origin, r.start_ns);
    }
  }
  out << "name,thread,task,start_ns,dur_ns,self_ns\n";
  std::uint64_t count = 0;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      if (count == limit) break;
      out << r.name << ',' << buffer->thread << ',' << r.task << ','
          << r.start_ns - origin << ',' << r.duration_ns << ',' << r.self_ns
          << '\n';
      ++count;
    }
  }
  if (!out.flush()) throw std::runtime_error("span file write failed");
  return count;
}

}  // namespace layerbench::spans
