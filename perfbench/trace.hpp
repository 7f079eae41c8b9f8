// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded only in the benchmark's own code: around its HTTP client
// calls and around the route handlers it installs on the servers it builds
// (including inside forked workers). Each span has a name, start, end,
// parent and request id. Spans stay in memory and are written out once, when
// a process is done: the client process after its last window, a server
// process or forked worker as it exits.
//
// A request is traced when its request id carries kTracedBit, so servers
// need no tracing switch that a client would have to reach across processes.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "web/http.hpp"

namespace perfbench {

inline constexpr std::uint64_t kTracedBit = 1ull << 62;

enum class SpanName : std::uint8_t {
  kClientPredict,   ///< client: send to parsed response
  kClientDeploy,
  kRouterPredict,   ///< shard::Router::handle_predict (benchmark process)
  kRouterDeploy,
  kHandlerPredict,  ///< ServingRuntime::handle_predict (in-process or worker)
  kHandlerDeploy,
};

const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kClientPredict;
  std::uint64_t id = 0;      ///< unique across processes
  std::uint64_t parent = 0;  ///< 0 = root. Server spans name the client span
                             ///< (the request id); analysis orders the chain.
  std::uint64_t rid = 0;     ///< request id shared by every span of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Client predict spans: the batcher queue and execution durations the
  /// response reported; they become the handler span's innermost children.
  std::int64_t queue_us = 0;
  std::int64_t exec_us = 0;
};

std::int64_t now_ns();

class Tracer {
 public:
  static Tracer& instance();

  std::uint64_t next_id();
  void record(const Span& span);
  void clear();
  /// Write every recorded span to `path` (one tab-separated line each).
  bool write(const std::string& path) const;
  static std::vector<Span> read(const std::string& path);

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_ = 0;
};

/// Request id of a server-side request: the X-Bench-Rid header, else the
/// leading `{"rid":N,` of the body (predict bodies, which the shard router
/// forwards to workers verbatim without extra headers). 0 if neither.
std::uint64_t request_rid(const cnn2fpga::web::HttpRequest& request);

/// Wrap `handler` so traced requests record a `name` span around it.
cnn2fpga::web::Handler traced(SpanName name, cnn2fpga::web::Handler handler);

/// Per-request layer self times of one traced request, in microseconds.
struct RequestLayers {
  bool predict = true;
  bool sharded = false;
  double client_us = 0;
  double transport_us = 0;      ///< client self: outside every server span
  double router_self_us = 0;    ///< router handler minus worker handler
  double router_us = 0;         ///< whole router handler span
  double handler_us = 0;        ///< whole runtime (or worker) handler span
  double handler_self_us = 0;   ///< handler minus batcher queue and execution
  double queue_us = 0;
  double exec_us = 0;
};

struct TraceAnalysis {
  std::vector<RequestLayers> requests;
  std::size_t client_spans = 0;  ///< traced client spans seen
  std::size_t incomplete = 0;    ///< client spans with no matching server span
  std::size_t inconsistent = 0;  ///< self times did not sum to the client span
};

/// Group spans by request id and split each request into layer self times.
TraceAnalysis analyze(const std::vector<Span>& spans);

}  // namespace perfbench
