#include "trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "stats.hpp"

namespace perfbench {

namespace {

constexpr const char* kSpanNames[] = {
    "client.predict",       "client.deploy",         "shard.router.handle_predict",
    "shard.router.handle_deploy", "serve.handle_predict", "serve.handle_deploy",
};
constexpr std::size_t kSpanNameCount = sizeof(kSpanNames) / sizeof(kSpanNames[0]);

std::uint64_t parse_digits(const std::string& text, std::size_t pos) {
  std::uint64_t value = 0;
  while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[pos] - '0');
    ++pos;
  }
  return value;
}

}  // namespace

const char* span_name(SpanName name) { return kSpanNames[static_cast<std::size_t>(name)]; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return (static_cast<std::uint64_t>(::getpid()) << 32) | ++next_;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(file, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%lld\t%lld\n", span_name(s.name),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.rid), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<long long>(s.queue_us),
                 static_cast<long long>(s.exec_us));
  }
  return std::fclose(file) == 0;
}

std::vector<Span> Tracer::read(const std::string& path) {
  std::vector<Span> spans;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    Span s;
    unsigned long long id = 0, parent = 0, rid = 0;
    long long start = 0, end = 0, queue = 0, exec = 0;
    if (!(fields >> name >> id >> parent >> rid >> start >> end >> queue >> exec)) continue;
    std::size_t index = 0;
    while (index < kSpanNameCount && name != kSpanNames[index]) ++index;
    if (index == kSpanNameCount) continue;
    s.name = static_cast<SpanName>(index);
    s.id = id;
    s.parent = parent;
    s.rid = rid;
    s.start_ns = start;
    s.end_ns = end;
    s.queue_us = queue;
    s.exec_us = exec;
    spans.push_back(s);
  }
  return spans;
}

std::uint64_t request_rid(const cnn2fpga::web::HttpRequest& request) {
  if (const auto it = request.headers.find("x-bench-rid"); it != request.headers.end()) {
    return parse_digits(it->second, 0);
  }
  static constexpr char kPrefix[] = "{\"rid\":";
  if (request.body.compare(0, sizeof(kPrefix) - 1, kPrefix) == 0) {
    return parse_digits(request.body, sizeof(kPrefix) - 1);
  }
  return 0;
}

cnn2fpga::web::Handler traced(SpanName name, cnn2fpga::web::Handler handler) {
  return [name, handler = std::move(handler)](const cnn2fpga::web::HttpRequest& request) {
    const std::uint64_t rid = request_rid(request);
    if ((rid & kTracedBit) == 0) return handler(request);
    Span span;
    span.name = name;
    span.rid = rid;
    span.parent = rid;  // the client span's id is the request id
    span.start_ns = now_ns();
    cnn2fpga::web::HttpResponse response = handler(request);
    span.end_ns = now_ns();
    Tracer& tracer = Tracer::instance();
    span.id = tracer.next_id();
    tracer.record(span);
    return response;
  };
}

TraceAnalysis analyze(const std::vector<Span>& spans) {
  struct Group {
    const Span* client = nullptr;
    const Span* router = nullptr;
    const Span* handler = nullptr;
  };
  std::unordered_map<std::uint64_t, Group> groups;
  for (const Span& s : spans) {
    Group& group = groups[s.rid];
    switch (s.name) {
      case SpanName::kClientPredict:
      case SpanName::kClientDeploy: group.client = &s; break;
      case SpanName::kRouterPredict:
      case SpanName::kRouterDeploy: group.router = &s; break;
      case SpanName::kHandlerPredict:
      case SpanName::kHandlerDeploy: group.handler = &s; break;
    }
  }

  TraceAnalysis out;
  for (const auto& [rid, group] : groups) {
    if (group.client == nullptr) continue;
    ++out.client_spans;
    RequestLayers r;
    r.predict = group.client->name == SpanName::kClientPredict;
    r.sharded = group.router != nullptr;
    // Forked workers cannot see a deploy's request id (the router forwards
    // deploy bodies without headers), so a routed deploy ends at the router.
    const bool needs_handler = group.router == nullptr || r.predict;
    if (needs_handler && group.handler == nullptr) {
      ++out.incomplete;
      continue;
    }
    const Span& client = *group.client;
    const Span& outer = group.router != nullptr ? *group.router : *group.handler;
    const Interval client_iv{client.start_ns, client.end_ns};
    std::int64_t total = self_time(client_iv, {{outer.start_ns, outer.end_ns}});
    r.transport_us = static_cast<double>(total) / 1e3;
    if (group.router != nullptr) {
      std::vector<Interval> children;
      if (group.handler != nullptr) {
        children.push_back({group.handler->start_ns, group.handler->end_ns});
      }
      const std::int64_t router_self =
          self_time({group.router->start_ns, group.router->end_ns}, children);
      total += router_self;
      r.router_self_us = static_cast<double>(router_self) / 1e3;
      r.router_us = static_cast<double>(group.router->end_ns - group.router->start_ns) / 1e3;
    }
    if (group.handler != nullptr) {
      const Span& h = *group.handler;
      // The response reports only durations; the batcher wait precedes the
      // batch's execution, and both end before the handler encodes.
      const std::int64_t exec_ns = client.exec_us * 1000;
      const std::int64_t queue_ns = client.queue_us * 1000;
      const Interval exec_iv{h.end_ns - exec_ns, h.end_ns};
      const Interval queue_iv{exec_iv.start - queue_ns, exec_iv.start};
      const std::int64_t handler_self = self_time({h.start_ns, h.end_ns}, {queue_iv, exec_iv});
      total += handler_self + queue_ns + exec_ns;
      r.handler_us = static_cast<double>(h.end_ns - h.start_ns) / 1e3;
      r.handler_self_us = static_cast<double>(handler_self) / 1e3;
      r.queue_us = static_cast<double>(client.queue_us);
      r.exec_us = static_cast<double>(client.exec_us);
    }
    r.client_us = static_cast<double>(client.end_ns - client.start_ns) / 1e3;
    if (total != client.end_ns - client.start_ns) ++out.inconsistent;
    out.requests.push_back(r);
  }
  return out;
}

}  // namespace perfbench
