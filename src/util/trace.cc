#include "util/trace.h"

#include <algorithm>
#include <chrono>

#include "util/logging.h"
#include "util/strings.h"

namespace qserv::util {

std::int64_t Trace::nowUs() {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return duration_cast<microseconds>(steady_clock::now() - epoch).count();
}

void Trace::addSpan(TraceSpan span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::size_t Trace::spanCount() const {
  std::lock_guard lock(mutex_);
  return spans_.size();
}

std::vector<TraceSpan> Trace::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<std::string> Trace::components() const {
  std::vector<std::string> out;
  {
    std::lock_guard lock(mutex_);
    for (const auto& s : spans_) out.push_back(s.component);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string Trace::toChromeJson() const {
  std::vector<TraceSpan> spans = this->spans();
  // Stable timeline: earliest span first.
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              return a.startUs < b.startUs;
            });
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out += ",";
    first = false;
    out += format(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%lld,\"pid\":1,\"tid\":%llu",
        jsonEscape(s.name).c_str(), jsonEscape(s.component).c_str(),
        static_cast<long long>(s.startUs),
        static_cast<long long>(std::max<std::int64_t>(s.endUs - s.startUs, 0)),
        static_cast<unsigned long long>(s.threadId));
    out += ",\"args\":{\"component\":\"" + jsonEscape(s.component) + "\"";
    for (const auto& [k, v] : s.attrs) {
      out += ",\"" + jsonEscape(k) + "\":\"" + jsonEscape(v) + "\"";
    }
    out += "}}";
  }
  out += format(
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"traceId\":%llu,"
      "\"query\":\"%s\"}}",
      static_cast<unsigned long long>(id_), jsonEscape(label_).c_str());
  return out;
}

ScopedSpan::ScopedSpan(TracePtr trace, std::string component, std::string name)
    : trace_(std::move(trace)) {
  if (!trace_) return;
  span_.component = std::move(component);
  span_.name = std::move(name);
  span_.threadId = threadId();
  span_.startUs = Trace::nowUs();
}

ScopedSpan& ScopedSpan::attr(std::string key, std::string value) {
  if (trace_) span_.attrs.emplace_back(std::move(key), std::move(value));
  return *this;
}

ScopedSpan& ScopedSpan::attr(std::string key, std::int64_t value) {
  return attr(std::move(key), std::to_string(value));
}

void ScopedSpan::end() {
  if (!trace_ || done_) return;
  done_ = true;
  span_.endUs = Trace::nowUs();
  trace_->addSpan(std::move(span_));
}

TraceRegistry& TraceRegistry::instance() {
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

TracePtr TraceRegistry::create(std::string label) {
  std::lock_guard lock(mutex_);
  std::uint64_t id = nextId_++;
  auto trace = std::make_shared<Trace>(id, std::move(label));
  traces_.emplace(id, trace);
  return trace;
}

TracePtr TraceRegistry::find(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  auto it = traces_.find(id);
  return it == traces_.end() ? nullptr : it->second;
}

void TraceRegistry::release(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  traces_.erase(id);
}

std::size_t TraceRegistry::size() const {
  std::lock_guard lock(mutex_);
  return traces_.size();
}

}  // namespace qserv::util
