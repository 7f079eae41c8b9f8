// The repository benchmark: drives the real cnn2fpga serving stack over
// loopback HTTP from one client process and prints its end-to-end (or, with
// --trace 1, per-layer) metrics as one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// The server runs in its own process (this binary with --serve, started by
// exec so its CPU and memory are the server's alone), built from the same
// public pieces as codegen_server; in router mode it forks its workers as
// codegen_server --router does. A run sets up kSetups times (set-up time is
// their median) and keeps the last server for kSlices timed slices; latency
// and throughput come from the fastest third of the slices (see run()).
//
// Workloads (all closed loop: each of 4 client threads keeps one request in
// flight on its own keep-alive connection):
//   cifar_f32     predicts to the Test-4 CIFAR network, float32, against a
//                 server configured as `codegen_server --workers 1`
//   usps_f32      the same against the Test-2 USPS network
//   deploy_churn  each client deploys a design drawn Zipf-skewed from a
//                 48-design catalogue (Tests 1-4 x {float32,int16,int8} x 4
//                 weight seeds, weights always in the body), then sends 4
//                 predicts to it; registry capacity 16. A predict that finds
//                 the design evicted (404 unknown_design) is retried after a
//                 redeploy, as the shard router does, and counted apart
//   sharded_usps  `codegen_server --router --workers 2 --worker-threads 1`:
//                 predicts rotating over 4 Test-2 USPS designs through the
//                 shard router and two forked workers (replication 2)
// Every answer is checked against references computed before timing starts:
// logits bit-equal to a local ExecutionContext at the same engine and
// precision, `predicted` their argmax, and each deploy's design_id,
// latency_cycles and fits equal to Framework::cache_key (+ precision suffix)
// and Framework::generate. Quantized deploys must match the fixed model.
//
// --trace 1 alternates untraced and traced slices and records spans around the
// benchmark's calls into each layer (see trace.hpp). usps_f32's traced run
// then sends predicts from one client through a shard router and two forked
// workers (serve/shard). Last, it calls json, base64, nn, kernels, core and
// hls directly on the workload's inputs (layers.hpp).
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "cnn2fpga.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "serve/shard/ring.hpp"
#include "util/base64.hpp"
#include "web/http_client.hpp"

namespace {

using namespace cnn2fpga;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClients = 4;
constexpr double kLatencyLimitUs = 50000.0;  ///< predicts slower than this miss the limit
constexpr std::size_t kSlices = 30;     ///< timed slices per run (see SliceResult)
constexpr std::size_t kSetups = 15;     ///< set-ups per run; the last one serves the run
constexpr std::size_t kKeptShare = 3;   ///< timing figures use the fastest 1/3 of the slices
constexpr std::size_t kShardPredicts = 2000;  ///< single-client predicts of the shard probe
constexpr std::size_t kSetupStream = 1000;   ///< request-id stream of set-up clients
constexpr std::size_t kChurnPredicts = 4;
constexpr std::size_t kRedeploys = 3;  ///< redeploys a churn predict may need after eviction
constexpr std::size_t kImagesPerClass = 4;
constexpr std::size_t kCatalogueSeeds = 4;
constexpr double kZipfExponent = 1.0;
constexpr const char* kPredictPath = "/api/v1/predict";
constexpr const char* kDeployPath = "/api/v1/deploy";

std::uint64_t mix(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xD1B54A32D192ED03ull + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string worker_id(std::size_t index) { return "worker-" + std::to_string(index); }

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------- inputs ---

struct ImagePool {
  std::vector<tensor::Tensor> images;
  std::vector<std::string> base64;  ///< raw float32 little-endian CHW
};

ImagePool make_pool(bool cifar, std::uint64_t seed) {
  std::vector<nn::Sample> samples;
  if (cifar) {
    data::CifarConfig config;
    config.samples_per_class = kImagesPerClass;
    config.seed = seed;
    samples = data::generate_cifar(config).samples;
  } else {
    data::UspsConfig config;
    config.samples_per_class = kImagesPerClass;
    config.seed = seed;
    samples = data::generate_usps(config).samples;
  }
  ImagePool pool;
  for (nn::Sample& sample : samples) {
    std::vector<std::uint8_t> bytes(sample.image.size() * sizeof(float));
    std::memcpy(bytes.data(), sample.image.data(), bytes.size());
    pool.base64.push_back(util::base64_encode(bytes));
    pool.images.push_back(std::move(sample.image));
  }
  return pool;
}

/// One deployable design with the answers the server must give for it.
struct Design {
  std::string label;
  core::NetworkDescriptor descriptor;
  nn::ServePrecision precision = nn::ServePrecision::kFloat32;
  std::uint64_t weight_seed = 0;
  const ImagePool* pool = nullptr;

  std::shared_ptr<const nn::Network> net;
  std::vector<std::uint8_t> weights;
  std::string deploy_body;
  std::string design_id;
  std::uint64_t latency_cycles = 0;
  bool fits = false;
  std::vector<std::vector<float>> logits;  ///< per pool image
  std::vector<std::size_t> predicted;
};

/// Fill in a design's body and expected answers. Pure per design, so the
/// catalogue is prepared on a few threads.
void prepare(Design& d) {
  auto net = std::make_shared<nn::Network>(d.descriptor.build_network());
  util::Rng rng(d.weight_seed);
  net->init_weights(rng);
  d.weights = nn::serialize_weights(*net);
  d.net = net;

  json::Value doc = d.descriptor.to_json();
  doc.as_object()["precision"] = std::string(nn::serve_precision_name(d.precision));
  doc.as_object()["weights_base64"] = util::base64_encode(d.weights);
  d.deploy_body = doc.dump();

  // Exactly what the deploy handler keys on: the body's descriptor with the
  // serving-precision string replaced, plus the precision suffix.
  doc.as_object()["precision"] = std::string("float32");
  const core::NetworkDescriptor parsed = core::NetworkDescriptor::from_json(doc);
  d.design_id = core::Framework::cache_key(parsed, d.weights);
  if (d.precision != nn::ServePrecision::kFloat32) {
    d.design_id += "-";
    d.design_id += nn::serve_precision_name(d.precision);
  }
  const core::GeneratedDesign generated = core::Framework::generate(parsed, *net);
  d.latency_cycles = generated.hls_report.latency_cycles;
  d.fits = generated.hls_report.fits();
  nn::ExecutionContext ctx(*net, nn::kernels::active(), nullptr, d.precision, nullptr);
  for (const tensor::Tensor& image : d.pool->images) {
    const tensor::Tensor& out = net->infer(image, ctx);
    d.logits.emplace_back(out.data(), out.data() + out.size());
    d.predicted.push_back(out.argmax());
  }
}

void prepare_all(std::vector<Design*> designs) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      try {
        for (std::size_t i = next++; i < designs.size(); i = next++) prepare(*designs[i]);
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& error : errors) {
    if (!error.empty()) throw std::runtime_error("reference preparation failed: " + error);
  }
}

// ------------------------------------------------------------- workloads ---

struct Workload {
  bool sharded = false;
  bool churn = false;
  ImagePool usps, cifar;
  /// Predict workloads: the served designs. deploy_churn: the catalogue in
  /// Zipf rank order.
  std::vector<Design> designs;
  std::vector<std::size_t> initial;  ///< deployed during set-up
  std::size_t headline = 0;          ///< network of the direct layer calls
  /// usps_f32: the designs of the traced run's shard probe.
  std::vector<Design> shard_designs;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"cifar_f32", "usps_f32", "deploy_churn",
                                                 "sharded_usps"};
  return names;
}

Design make_design(std::string label, core::NetworkDescriptor descriptor,
                   nn::ServePrecision precision, std::uint64_t weight_seed,
                   const ImagePool* pool) {
  Design d;
  d.label = std::move(label);
  d.descriptor = std::move(descriptor);
  d.precision = precision;
  d.weight_seed = weight_seed;
  d.pool = pool;
  return d;
}

/// Four Test-2 USPS designs, two whose first replica is each of the two
/// workers: with only four keys, consistent hashing would otherwise give every
/// seed its own load split between the workers. The ring is the router's
/// (same worker ids and vnode count), so this is the placement it will choose.
std::vector<Design> sharded_designs(std::uint64_t seed, const ImagePool& pool) {
  serve::shard::HashRing ring(serve::shard::RouterConfig{}.vnodes);
  ring.add(worker_id(0));
  ring.add(worker_id(1));
  std::map<std::string, std::size_t> per_worker;
  std::vector<Design> designs;
  for (std::uint64_t i = 0; designs.size() < 4; ++i) {
    Design d = make_design("usps_test2/float32/w" + std::to_string(i),
                           bench::usps_test1_descriptor(true), nn::ServePrecision::kFloat32,
                           mix(seed, 10 + i), &pool);
    prepare(d);
    if (per_worker[ring.primary(d.design_id)]++ >= 2) continue;
    designs.push_back(std::move(d));
  }
  return designs;
}

Workload build_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.usps = make_pool(false, mix(seed, 1));
  w.cifar = make_pool(true, mix(seed, 2));
  const auto f32 = nn::ServePrecision::kFloat32;
  if (name == "cifar_f32") {
    w.designs.push_back(make_design("cifar_test4/float32", bench::cifar_test4_descriptor(), f32,
                                    mix(seed, 10), &w.cifar));
    w.initial = {0};
  } else if (name == "usps_f32") {
    w.designs.push_back(make_design("usps_test2/float32", bench::usps_test1_descriptor(true),
                                    f32, mix(seed, 10), &w.usps));
    w.initial = {0};
  } else if (name == "sharded_usps") {
    w.sharded = true;
    w.designs = sharded_designs(seed, w.usps);
    w.initial = {0, 1, 2, 3};
  } else if (name == "deploy_churn") {
    w.churn = true;
    const std::vector<core::NetworkDescriptor> tests = {
        bench::usps_test1_descriptor(false), bench::usps_test1_descriptor(true),
        bench::usps_test3_descriptor(), bench::cifar_test4_descriptor()};
    const nn::ServePrecision precisions[] = {f32, nn::ServePrecision::kInt16,
                                             nn::ServePrecision::kInt8};
    // Rank r: test r%4, precision (r/4)%3, weight seed r/12, so every test
    // and precision appears among the hottest designs.
    for (std::size_t r = 0; r < tests.size() * 3 * kCatalogueSeeds; ++r) {
      const std::size_t test = r % 4, precision = (r / 4) % 3, weights = r / 12;
      w.designs.push_back(make_design(
          tests[test].name + "/" + nn::serve_precision_name(precisions[precision]) + "/w" +
              std::to_string(weights),
          tests[test], precisions[precision], mix(seed, 100 + test * 16 + weights),
          test == 3 ? &w.cifar : &w.usps));
    }
    w.initial = {0, 1, 2, 3};
    w.headline = 3;  // Test-4 CIFAR, float32
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }

  std::vector<Design*> todo;
  for (Design& d : w.designs) {
    if (d.design_id.empty()) todo.push_back(&d);
  }
  prepare_all(todo);
  if (name == "usps_f32") w.shard_designs = sharded_designs(seed, w.usps);
  return w;
}

// ---------------------------------------------------------------- fleet ---

serve::ServingConfig serving_config(std::size_t executor_threads) {
  // codegen_server's flag defaults (--max-batch 8, --max-wait-us 1000, no
  // queue cap or default deadline, breaker 5 failures / 1000 ms, backends
  // cpu,accel behind the cost placer), with --workers/--worker-threads.
  serve::ServingConfig config;
  config.worker_threads = executor_threads;
  config.batcher.max_batch = 8;
  config.batcher.max_wait_us = 1000;
  config.batcher.max_queue_depth = 0;
  config.default_deadline_ms = 0;
  config.breaker.failure_threshold = 5;
  config.breaker.cooldown_ms = 1000;
  config.backends.cpu = true;
  config.backends.accelerator = true;
  config.backends.placer = serve::PlacerPolicy::kCost;
  return config;
}

void install_runtime(web::HttpServer& server, serve::ServingRuntime& runtime, bool traced_routes) {
  serve::install_serve_api(server, runtime);
  if (!traced_routes) return;
  server.route("POST", kPredictPath,
               traced(SpanName::kHandlerPredict,
                      [&runtime](const web::HttpRequest& r) { return runtime.handle_predict(r); }));
  server.route("POST", kDeployPath,
               traced(SpanName::kHandlerDeploy,
                      [&runtime](const web::HttpRequest& r) { return runtime.handle_deploy(r); }));
}

std::string span_file(const std::string& dir) {
  return dir + "/spans-" + std::to_string(::getpid()) + ".tsv";
}

/// A forked worker: the serving runtime of `codegen_server --router`'s
/// children with --worker-threads 1, alive until the control pipe reads EOF.
int worker_main(int port, int shutdown_fd, bool traced_routes, const std::string& span_dir) {
  util::set_log_level(util::LogLevel::kOff);
  Tracer::instance().clear();
  {
    serve::ServingRuntime runtime(serving_config(1));
    web::HttpServer server;
    install_runtime(server, runtime, traced_routes);
    try {
      server.start(port);
    } catch (const std::exception&) {
      return 1;
    }
    char byte = 0;
    while (true) {
      const ssize_t n = ::read(shutdown_fd, &byte, 1);
      if (n == 0 || (n < 0 && errno != EINTR)) break;
    }
    server.stop();
  }
  return traced_routes && !Tracer::instance().write(span_file(span_dir)) ? 1 : 0;
}

/// The servers of one set-up, built from the same public pieces as
/// codegen_server. Destruction stops everything it started.
class Fleet {
 public:
  Fleet(bool sharded, bool traced_routes, const std::string& span_dir) {
    if (sharded) {
      // Fork before this process creates any thread (shard/process.hpp).
      for (int i = 0; i < 2; ++i) {
        const int port = serve::shard::reserve_local_port();
        if (port == 0) throw std::runtime_error("could not reserve a worker port");
        worker_ports_.push_back(port);
      }
      workers_.resize(worker_ports_.size());
      for (std::size_t i = 0; i < workers_.size(); ++i) {
        const bool spawned = workers_[i].spawn(
            worker_ports_[i], [traced_routes, span_dir](int port, int fd) {
              return worker_main(port, fd, traced_routes, span_dir);
            });
        if (!spawned) throw std::runtime_error("fork of a worker failed");
      }
      for (int port : worker_ports_) {
        if (!serve::shard::wait_until_ready(port, 15000)) {
          throw std::runtime_error("worker did not become ready");
        }
      }
      serve::shard::RouterConfig config;
      config.replication = 2;
      config.worker.client.read_timeout_ms = 30000;
      router_ = std::make_unique<serve::shard::Router>(config);
      for (std::size_t i = 0; i < worker_ports_.size(); ++i) {
        router_->add_worker(worker_id(i), "127.0.0.1", worker_ports_[i]);
      }
      server_ = std::make_unique<web::HttpServer>();
      web::install_api(*server_);
      serve::shard::install_router_api(*server_, *router_);
      if (traced_routes) {
        serve::shard::Router& router = *router_;
        server_->route("POST", kPredictPath,
                       traced(SpanName::kRouterPredict, [&router](const web::HttpRequest& r) {
                         return router.handle_predict(r);
                       }));
        server_->route("POST", kDeployPath,
                       traced(SpanName::kRouterDeploy, [&router](const web::HttpRequest& r) {
                         return router.handle_deploy(r);
                       }));
      }
      port_ = server_->start(0);
      router_->start_probing();
    } else {
      runtime_ = std::make_unique<serve::ServingRuntime>(serving_config(1));
      server_ = std::make_unique<web::HttpServer>();
      web::install_api(*server_);
      install_runtime(*server_, *runtime_, traced_routes);
      port_ = server_->start(0);
    }
  }

  /// Stops serving and waits for every thread and worker process to end.
  ~Fleet() {
    if (router_) router_->stop_probing();
    if (server_) server_->stop();
    // Dropping the router closes its pooled worker connections, so workers
    // need not wait out a keep-alive timeout on them while stopping.
    router_.reset();
    if (runtime_) runtime_->shutdown();
    for (auto& worker : workers_) worker.stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int port() const { return port_; }
  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> pids;
    for (const auto& worker : workers_) pids.push_back(worker.pid());
    return pids;
  }

 private:
  std::vector<int> worker_ports_;
  std::vector<serve::shard::WorkerProcess> workers_;
  std::unique_ptr<serve::ServingRuntime> runtime_;
  std::unique_ptr<serve::shard::Router> router_;
  std::unique_ptr<web::HttpServer> server_;
  int port_ = 0;
};

// ------------------------------------------------------------ processes ---

/// user+sys CPU seconds of a process (all its threads), from /proc/<pid>/stat.
double cpu_seconds(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 0; i < 13 && fields >> field; ++i) {  // fields 3..15
    if (i == 11) utime = std::stod(field);
    if (i == 12) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of a process in MiB.
double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Server mode (`perfbench --serve single|router`): one fleet in its own
/// process, started from a fresh exec so its memory is the server's alone.
/// Prints `ready <port> <pid>[,<worker pid>...]`, serves until standard input
/// reads EOF, then stops and (trace runs) writes its spans.
int serve_main(bool sharded, bool traced_routes, const std::string& span_dir) {
  util::set_log_level(util::LogLevel::kOff);
  try {
    Fleet fleet(sharded, traced_routes, span_dir);  // forks any workers first
    std::string pids = std::to_string(::getpid());
    for (pid_t pid : fleet.worker_pids()) pids.append(",").append(std::to_string(pid));
    std::printf("ready %d %s\n", fleet.port(), pids.c_str());
    std::fflush(stdout);
    char buffer[64];
    while (true) {
      const ssize_t n = ::read(STDIN_FILENO, buffer, sizeof(buffer));
      if (n == 0 || (n < 0 && errno != EINTR)) break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench --serve: %s\n", e.what());
    return 1;
  }
  if (traced_routes && !Tracer::instance().write(span_file(span_dir))) return 1;
  return 0;
}

/// The benchmark's handle on a server process: spawns `perfbench --serve`,
/// waits for its ready line, and on stop closes its standard input and
/// waits for it (and, through it, every worker) to exit.
class ServerProcess {
 public:
  ServerProcess(bool sharded, bool trace_run, const std::string& span_dir) {
    const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
    int to_child[2], from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      throw std::runtime_error("pipe failed");
    }
    std::vector<std::string> args = {exe,       "--serve", sharded ? "router" : "single",
                                     "--trace", trace_run ? "1" : "0",
                                     "--span-dir", span_dir};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], STDOUT_FILENO);
    const int spawned = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    control_fd_ = to_child[1];
    if (spawned != 0) {
      pid_ = -1;
      ::close(from_child[0]);
      throw std::runtime_error("could not start the server process");
    }
    std::string line;
    char c = 0;
    pollfd ready{from_child[0], POLLIN, 0};
    while (::poll(&ready, 1, 30000) > 0 && ::read(from_child[0], &c, 1) == 1 && c != '\n') {
      line += c;
    }
    ::close(from_child[0]);
    std::istringstream fields(line);
    std::string word, pids;
    if (!(fields >> word >> port_ >> pids) || word != "ready") {
      stop();
      throw std::runtime_error("server process did not become ready");
    }
    for (std::size_t start = 0; start < pids.size();) {
      const std::size_t comma = std::min(pids.find(',', start), pids.size());
      pids_.push_back(pids.substr(start, comma - start));
      start = comma + 1;
    }
  }

  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// The server process first, then its forked workers.
  const std::vector<std::string>& pids() const { return pids_; }

 private:
  void stop() {
    if (control_fd_ >= 0) {
      ::close(control_fd_);
      control_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  int control_fd_ = -1;  ///< the child's standard input; closing it stops the server
  int port_ = 0;
  std::vector<std::string> pids_;
};

double total_cpu_seconds(const std::vector<std::string>& pids) {
  double total = 0.0;
  for (const std::string& pid : pids) total += cpu_seconds(pid);
  return total;
}

// --------------------------------------------------------------- clients ---

struct Tally {
  std::uint64_t predict_attempted = 0, predict_failed = 0, over_limit = 0, shed = 0;
  std::vector<double> predict_us, queue_us, exec_us;
  double batches = 0.0;  ///< sum over answers of 1/batch_size
  std::uint64_t shard_attempts = 0;
  std::uint64_t deploy_attempted = 0, deploy_failed = 0;
  std::vector<double> miss_ms, hit_ms;
  std::uint64_t evicted = 0;  ///< predicts answered 404 unknown_design, then redeployed
  std::uint64_t wrong = 0;    ///< answers that disagree with the reference
  std::vector<std::string> problems;

  void merge(const Tally& o) {
    predict_attempted += o.predict_attempted;
    predict_failed += o.predict_failed;
    over_limit += o.over_limit;
    shed += o.shed;
    predict_us.insert(predict_us.end(), o.predict_us.begin(), o.predict_us.end());
    queue_us.insert(queue_us.end(), o.queue_us.begin(), o.queue_us.end());
    exec_us.insert(exec_us.end(), o.exec_us.begin(), o.exec_us.end());
    batches += o.batches;
    shard_attempts += o.shard_attempts;
    deploy_attempted += o.deploy_attempted;
    deploy_failed += o.deploy_failed;
    miss_ms.insert(miss_ms.end(), o.miss_ms.begin(), o.miss_ms.end());
    hit_ms.insert(hit_ms.end(), o.hit_ms.begin(), o.hit_ms.end());
    evicted += o.evicted;
    wrong += o.wrong;
    for (const std::string& p : o.problems) note(p);
  }
  void note(const std::string& problem) {
    if (problems.size() < 8) problems.push_back(problem);
  }
  std::uint64_t attempted() const { return predict_attempted + deploy_attempted; }
  std::uint64_t failed() const { return predict_failed + deploy_failed; }
  std::uint64_t completed() const { return attempted() - failed(); }
};

class Client {
 public:
  /// `stream` (>= 1) makes this client's request ids unique within the run.
  Client(int port, std::size_t stream) : http_("127.0.0.1", port, config()), stream_(stream) {}

  /// Send one predict and check its answer. With `evictable`, a 404
  /// unknown_design answer means the registry's LRU evicted the design since
  /// this client deployed it: that is the API's documented answer, and the
  /// client must redeploy (as the shard router does). Such an answer counts
  /// only in `t.evicted`, and predict returns false so the caller redeploys.
  bool predict(const Design& d, std::size_t image, bool traced_request, Tally& t,
               bool evictable = false) {
    const std::uint64_t rid = next_rid(traced_request);
    const std::string body = "{\"rid\":" + std::to_string(rid) + ",\"design_id\":\"" +
                             d.design_id + "\",\"image_base64\":\"" + d.pool->base64[image] +
                             "\"}";
    ++t.predict_attempted;
    const std::int64_t start = now_ns();
    const auto response = http_.request("POST", kPredictPath, body);
    json::Value doc;
    const bool parsed = response && response->status == 200 && parse(response->body, doc);
    const std::int64_t end = now_ns();
    if (!parsed) {
      if (evictable && unknown_design(response)) {
        --t.predict_attempted;
        ++t.evicted;
        return false;
      }
      ++t.predict_failed;
      ++t.over_limit;
      if (response && response->status == 429) ++t.shed;
      t.note(describe("predict", d, response, end - start));
      return true;
    }
    try {
      const json::Array& logits = doc.at("logits").as_array();
      const std::vector<float>& expected = d.logits[image];
      bool equal = logits.size() == expected.size() &&
                   static_cast<std::size_t>(doc.at("predicted").as_int()) == d.predicted[image];
      for (std::size_t i = 0; equal && i < logits.size(); ++i) {
        const float got = static_cast<float>(logits[i].as_double());
        equal = std::memcmp(&got, &expected[i], sizeof(float)) == 0;
      }
      if (!equal) throw std::runtime_error("logits differ from the reference");
      const double latency_us = static_cast<double>(end - start) / 1e3;
      t.predict_us.push_back(latency_us);
      if (latency_us > kLatencyLimitUs) ++t.over_limit;
      const double queue = doc.at("queue_us").as_double();
      const double exec = doc.at("exec_us").as_double();
      t.queue_us.push_back(queue);
      t.exec_us.push_back(exec);
      t.batches += 1.0 / std::max(1.0, doc.at("batch_size").as_double());
      if (const auto it = response->headers.find("x-shard-attempts");
          it != response->headers.end()) {
        t.shard_attempts += std::stoull(it->second);
      }
      if (traced_request) {
        record(SpanName::kClientPredict, rid, start, end, static_cast<std::int64_t>(queue),
               static_cast<std::int64_t>(exec));
      }
    } catch (const std::exception& e) {
      ++t.wrong;
      ++t.predict_failed;
      ++t.over_limit;
      t.note("predict " + d.label + ": " + e.what());
    }
    return true;
  }

  void deploy(const Design& d, bool traced_request, Tally& t) {
    const std::uint64_t rid = next_rid(traced_request);
    ++t.deploy_attempted;
    const std::int64_t start = now_ns();
    const auto response =
        http_.request("POST", kDeployPath, d.deploy_body, {{"X-Bench-Rid", std::to_string(rid)}});
    json::Value doc;
    const bool parsed = response && response->status == 200 && parse(response->body, doc);
    const std::int64_t end = now_ns();
    if (!parsed) {
      ++t.deploy_failed;
      t.note(describe("deploy", d, response, end - start));
      return;
    }
    try {
      if (doc.at("design_id").as_string() != d.design_id) {
        throw std::runtime_error("design_id " + doc.at("design_id").as_string() +
                                 " != " + d.design_id);
      }
      if (static_cast<std::uint64_t>(doc.at("latency_cycles").as_int()) != d.latency_cycles ||
          doc.at("fits").as_bool() != d.fits) {
        throw std::runtime_error("HLS summary differs from Framework::generate");
      }
      if (d.precision != nn::ServePrecision::kFloat32 &&
          !doc.at("quantization").at("matches_fixed_model").as_bool()) {
        throw std::runtime_error("quantized design does not match the fixed model");
      }
      const double ms = static_cast<double>(end - start) / 1e6;
      (doc.at("cache_hit").as_bool() ? t.hit_ms : t.miss_ms).push_back(ms);
      if (traced_request) record(SpanName::kClientDeploy, rid, start, end, 0, 0);
    } catch (const std::exception& e) {
      ++t.wrong;
      ++t.deploy_failed;
      t.note("deploy " + d.label + ": " + e.what());
    }
  }

  void close() { http_.close(); }
  std::uint64_t connections_opened() const { return http_.connections_opened(); }

 private:
  static web::ClientConfig config() {
    web::ClientConfig config;
    config.keep_alive = true;
    // Long enough that a stalled connection shows as latency, not an error.
    config.read_timeout_ms = 30000;
    return config;
  }

  static bool parse(const std::string& body, json::Value& doc) {
    try {
      doc = json::parse(body);
      return true;
    } catch (const json::JsonError&) {
      return false;
    }
  }

  static bool unknown_design(const std::optional<web::HttpResponse>& response) {
    json::Value doc;
    if (!response || response->status != 404 || !parse(response->body, doc)) return false;
    const json::Value* error = doc.find("error");
    const json::Value* code = error != nullptr ? error->find("code") : nullptr;
    return code != nullptr && code->is_string() && code->as_string() == "unknown_design";
  }

  static std::string describe(const char* op, const Design& d,
                              const std::optional<web::HttpResponse>& response,
                              std::int64_t elapsed_ns) {
    const std::string after = " after " + std::to_string(elapsed_ns / 1000) + " us";
    if (!response) return std::string(op) + " " + d.label + ": transport error" + after;
    return std::string(op) + " " + d.label + ": HTTP " + std::to_string(response->status) +
           after + " " + response->body.substr(0, 160);
  }

  std::uint64_t next_rid(bool traced_request) {
    const std::uint64_t rid = (static_cast<std::uint64_t>(stream_) << 40) | ++sequence_;
    return traced_request ? rid | kTracedBit : rid;
  }

  static void record(SpanName name, std::uint64_t rid, std::int64_t start, std::int64_t end,
                     std::int64_t queue_us, std::int64_t exec_us) {
    Span span;
    span.name = name;
    span.id = rid;
    span.rid = rid;
    span.start_ns = start;
    span.end_ns = end;
    span.queue_us = queue_us;
    span.exec_us = exec_us;
    Tracer::instance().record(span);
  }

  web::HttpClient http_;
  std::size_t stream_;
  std::uint64_t sequence_ = 0;
};

/// Run `loop` on every client in its own thread; returns the merged tally.
Tally run_clients(std::vector<std::unique_ptr<Client>>& clients,
                  const std::function<void(std::size_t, Client&, Tally&)>& loop) {
  std::vector<Tally> tallies(clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        loop(c, *clients[c], tallies[c]);
      } catch (const std::exception& e) {
        tallies[c].note(std::string("client loop: ") + e.what());
        ++tallies[c].predict_failed;
        ++tallies[c].predict_attempted;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  Tally total;
  for (const Tally& t : tallies) total.merge(t);
  return total;
}

// ---------------------------------------------------------------- slices ---

/// One timed slice of a run's closed loop (--seconds / kSlices long).
struct SliceResult {
  bool traced = false;
  Tally main;  ///< predicts, or deploy_churn's deploys and predicts
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< user+sys CPU of every server process in the slice
};

/// Set-up as the user pays it: server construction (and worker fork) through
/// the initial deploys, until the first request can be sent.
std::unique_ptr<ServerProcess> set_up(const Workload& w, bool trace_run,
                                      const std::string& span_dir, std::size_t stream,
                                      double& seconds) {
  const auto start = Clock::now();
  auto server = std::make_unique<ServerProcess>(w.sharded, trace_run, span_dir);
  Client setup(server->port(), stream);
  Tally t;
  for (std::size_t index : w.initial) setup.deploy(w.designs[index], false, t);
  if (t.failed() > 0) {
    throw std::runtime_error("initial deploy failed: " +
                             (t.problems.empty() ? std::string() : t.problems.front()));
  }
  seconds = seconds_since(start);
  return server;
}

SliceResult run_slice(const Workload& w, std::uint64_t seed, std::size_t index, double slice_s,
                      bool traced_slice, const std::vector<std::string>& pids,
                      std::vector<std::unique_ptr<Client>>& clients) {
  SliceResult r;
  r.traced = traced_slice;
  const double cpu_before = total_cpu_seconds(pids);
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(slice_s));
  r.main = run_clients(clients, [&](std::size_t c, Client& client, Tally& t) {
    util::Rng rng(mix(seed, 50000 + index * 100 + c));
    const ZipfDraw zipf(w.designs.size(), kZipfExponent);
    std::size_t turn = c;
    while (Clock::now() < deadline) {
      if (w.churn) {
        const Design& d = w.designs[zipf(rng)];
        client.deploy(d, r.traced, t);
        for (std::size_t i = 0; i < kChurnPredicts; ++i) {
          const std::size_t image = rng.next_u64() % d.pool->images.size();
          // Under load, 16 other designs can pass this one in the LRU
          // between its deploy and a predict; then redeploy and retry.
          for (std::size_t redeploy = 0;
               !client.predict(d, image, r.traced, t, redeploy < kRedeploys); ++redeploy) {
            client.deploy(d, r.traced, t);
          }
        }
      } else {
        const Design& d = w.designs[turn++ % w.designs.size()];
        client.predict(d, rng.next_u64() % d.pool->images.size(), r.traced, t);
      }
    }
  });
  r.wall_s = seconds_since(start);
  r.cpu_s = total_cpu_seconds(pids) - cpu_before;
  return r;
}

json::Value fetch_json(int port, const std::string& path) {
  const auto response = web::http_request("127.0.0.1", port, "GET", path);
  if (!response || response->status != 200) {
    throw std::runtime_error("GET " + path + " failed");
  }
  return json::parse(response->body);
}

/// Server-side counters of a trace run, read from /api/v1/metrics.
struct ServerCounters {
  double cpu_batches = 0, accel_batches = 0, deploy_total = 0, deploy_hits = 0, evictions = 0;
  double failovers = 0;
};

ServerCounters fetch_counters(int port) {
  const json::Value response = fetch_json(port, "/api/v1/metrics");
  // The shard router nests the merged worker counters under "fleet".
  const json::Value* fleet_metrics = response.find("fleet");
  const json::Value& metrics = fleet_metrics != nullptr ? *fleet_metrics : response;
  ServerCounters c;
  c.cpu_batches = metrics.at("backends").at("cpu").at("batches").as_double();
  c.accel_batches = metrics.at("backends").at("accelerator").at("batches").as_double();
  c.deploy_total = metrics.at("deploy").at("total").as_double();
  c.deploy_hits = metrics.at("deploy").at("cache_hits").as_double();
  c.evictions = metrics.at("deploy").at("evictions").as_double();
  if (const json::Value* router = response.find("router")) {
    c.failovers = router->at("failovers").as_double();
  }
  return c;
}

// --------------------------------------------------------------- output ----

/// Plain median of a few figures (per-slice figures, set-up times).
std::optional<double> median_of(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Report {
  Metrics metrics;
  std::vector<std::string> notes;  ///< printed in the summary, not in the JSON

  void add(const std::string& name, double value, const char* unit, std::size_t samples = 0) {
    metrics.push_back({name, value, unit, samples});
  }
  /// A percentile under the tail-sample rule; `required` percentiles that
  /// the sample cannot support fail the run, others read 0 with a note.
  bool add_percentile(const std::string& name, const std::vector<double>& values, double q,
                      const char* unit, bool required) {
    const auto value = percentile(values, q);
    if (!value) {
      notes.push_back(name + ": not reported, " + std::to_string(values.size()) +
                      " samples leave fewer than 10 beyond it");
      add(name, 0.0, unit, values.size());
      return !required;
    }
    add(name, *value, unit, values.size());
    return true;
  }
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One line of a slice's figures for the progress log on standard error:
/// where a slow slice lost its time (batcher queue, execution, or the rest:
/// transport, parsing and the handler) and how many predicts missed the limit.
std::string describe(const SliceResult& r) {
  const Tally& t = r.main;
  const auto fig = [](const std::vector<double>& v, double q) {
    return percentile(v, q).value_or(0.0);
  };
  std::vector<double> rest;
  for (std::size_t k = 0; k < t.predict_us.size(); ++k) {
    rest.push_back(t.predict_us[k] - t.queue_us[k] - t.exec_us[k]);
  }
  const std::vector<double>& latency = t.predict_us;
  char line[320];
  std::snprintf(line, sizeof(line),
                "%.0f predicts/s, p50/p90/p99 %.0f/%.0f/%.0f us, max %.0f us, over limit %llu, "
                "p90 of queue %.0f exec %.0f rest %.0f us, deploy miss p50 %.2f ms%s",
                static_cast<double>(latency.size()) / r.wall_s, fig(latency, 0.5),
                fig(latency, 0.9), fig(latency, 0.99),
                latency.empty() ? 0.0 : *std::max_element(latency.begin(), latency.end()),
                static_cast<unsigned long long>(t.over_limit), fig(t.queue_us, 0.9),
                fig(t.exec_us, 0.9), fig(rest, 0.9), median_of(t.miss_ms).value_or(0.0),
                r.traced ? " (traced)" : "");
  return line;
}


void print_summary(const std::string& title, const Report& report, const Tally& all) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : report.metrics) {
    if (m.samples > 0) {
      std::printf("  %-44s %14.4f %-8s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.samples);
    } else {
      std::printf("  %-44s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& note : report.notes) std::printf("  note: %s\n", note.c_str());
  for (const std::string& p : all.problems) std::printf("  problem: %s\n", p.c_str());
}

void print_result(bool correct, const Tally& all, const Report& report) {
  json::Object metrics;
  for (const Metric& m : report.metrics) {
    json::Object one;
    one["value"] = m.value;
    one["unit"] = m.unit;
    metrics[m.name] = std::move(one);
  }
  json::Object out;
  out["correct"] = correct;
  out["attempted"] = static_cast<std::size_t>(all.attempted());
  out["failed"] = static_cast<std::size_t>(all.failed());
  out["metrics"] = std::move(metrics);
  std::printf("%s\n", json::Value(std::move(out)).dump().c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ run ----

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/perfbench/work";
};

int run(const Options& opt) {
  util::set_log_level(util::LogLevel::kWarn);
  const auto begin = Clock::now();
  const auto stage = [&](const std::string& what) {
    std::fprintf(stderr, "perfbench: %7.2f s  %s\n", seconds_since(begin), what.c_str());
  };
  stage("preparing " + opt.workload + " references");
  const Workload w = build_workload(opt.workload, opt.seed);

  const std::string span_dir =
      opt.workdir + "/spans-" + opt.workload + "-" + std::to_string(::getpid());
  if (opt.trace) {
    std::filesystem::remove_all(span_dir);
    std::filesystem::create_directories(span_dir);
  }
  // Set-ups: each a fresh server process through the initial deploys; all
  // but the last are stopped again, the last serves the timed slices.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  for (std::size_t i = 0; i < kSetups; ++i) {
    server.reset();
    double seconds = 0.0;
    server = set_up(w, opt.trace, span_dir, kSetupStream + i, seconds);
    setups.push_back(seconds);
  }
  stage("set up in " + std::to_string(*median_of(setups)) + " s (median of " +
        std::to_string(kSetups) + ")");

  const std::vector<std::string>& pids = server->pids();
  std::vector<std::unique_ptr<Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(server->port(), c + 1));
  }
  std::vector<SliceResult> slices;
  for (std::size_t i = 0; i < kSlices; ++i) {
    // Trace runs alternate untraced and traced slices.
    slices.push_back(run_slice(w, opt.seed, i, opt.seconds / static_cast<double>(kSlices),
                               opt.trace && i % 2 == 1, pids, clients));
    stage("slice " + std::to_string(i) + ": " + describe(slices.back()));
  }
  double rss_mb = 0.0;
  for (const std::string& pid : pids) rss_mb += peak_rss_mb(pid);
  std::uint64_t connections = 0;
  for (auto& client : clients) {
    connections += client->connections_opened();
    client->close();  // frees the server's handler threads for the GET below
  }
  const ServerCounters counters = fetch_counters(server->port());
  stage("measured");

  // The timing figures come from the least disturbed untraced slices: the
  // third with the most completed operations per second. On a shared VM the
  // hypervisor steals 0-30% of CPU time in spells of a few seconds, and a
  // slice it hits loses up to half its throughput to stalls of a few
  // milliseconds in every layer at once. A change to the program moves every
  // slice, the fastest ones too; success and limit rates and CPU per
  // operation still count every slice.
  Tally all, untraced, traced, kept;
  double cpu_s = 0, kept_wall_s = 0;
  std::vector<const SliceResult*> timed;  // the untraced slices
  std::vector<double> rates;
  for (const SliceResult& r : slices) {
    all.merge(r.main);
    (r.traced ? traced : untraced).merge(r.main);
    if (r.traced) continue;
    cpu_s += r.cpu_s;
    timed.push_back(&r);
    rates.push_back(static_cast<double>(r.main.completed()) / r.wall_s);
  }
  for (std::size_t i : fastest_share(rates, kKeptShare)) {
    kept.merge(timed[i]->main);
    kept_wall_s += timed[i]->wall_s;
  }

  Report report;
  bool ok = true;
  bool correct = all.wrong == 0;
  const std::string title = "perfbench " + opt.workload + " seed=" + std::to_string(opt.seed) +
                            " seconds=" + std::to_string(opt.seconds) +
                            (opt.trace ? " trace=1" : " trace=0");
  if (!opt.trace) {
    ok &= report.add_percentile("predict_p50_us", kept.predict_us, 0.50, "us", true);
    ok &= report.add_percentile("predict_p90_us", kept.predict_us, 0.90, "us", true);
    report.add("predict_rps", static_cast<double>(kept.predict_us.size()) / kept_wall_s, "1/s",
               kept.predict_us.size());
    report.add("predict_within_limit_rate",
               1.0 - ratio(static_cast<double>(untraced.over_limit),
                           static_cast<double>(untraced.predict_attempted)),
               "ratio", untraced.predict_attempted);
    report.add("success_rate",
               1.0 - ratio(static_cast<double>(all.failed()), static_cast<double>(all.attempted())),
               "ratio", all.attempted());
    report.add("cpu_us_per_op", ratio(cpu_s * 1e6, static_cast<double>(untraced.completed())),
               "us", untraced.completed());
    report.add("peak_rss_mb", rss_mb, "MiB");
    report.add("setup_s", *median_of(setups), "s", setups.size());
    report.notes.push_back(
        "error_rate " + std::to_string(ratio(static_cast<double>(all.failed()),
                                             static_cast<double>(all.attempted()))) +
        " (" + std::to_string(all.failed()) + " of " + std::to_string(all.attempted()) +
        " operations), predict_over_limit_rate " +
        std::to_string(ratio(static_cast<double>(untraced.over_limit),
                             static_cast<double>(untraced.predict_attempted))));
    if (w.churn) {
      report.notes.push_back(std::to_string(all.evicted) +
                             " predicts found their design evicted and were retried after a "
                             "redeploy");
    }
    const auto fig = [](const std::vector<double>& v, double q) {
      return std::to_string(percentile(v, q).value_or(0.0));
    };
    // Printed, not gated here: p99 moves 2-3x with the host's load even in
    // the fastest slices. The traced run reports it as a per-layer figure.
    report.notes.push_back("predict_p99_us " + fig(kept.predict_us, 0.99) + " us");
    report.notes.push_back(
        "over all " + std::to_string(slices.size()) + " slices: predict p50/p90/p99 " +
        fig(untraced.predict_us, 0.5) + " / " + fig(untraced.predict_us, 0.9) + " / " +
        fig(untraced.predict_us, 0.99) + " us");
    // The cost placer moves a design to the modelled accelerator once its
    // CPU estimate looks slower, and only CPU batches refresh that estimate,
    // so one stalled CPU batch can hold a design there (exec p90 in the
    // slice log jumps from tens of us to the accelerator's hundreds).
    report.notes.push_back(
        "accelerator batches " + std::to_string(static_cast<std::uint64_t>(counters.accel_batches)) +
        " of " +
        std::to_string(static_cast<std::uint64_t>(counters.cpu_batches + counters.accel_batches)));
  } else {
    server.reset();  // the server process writes its spans as it exits
    ServerCounters shard_counters;
    Tally shard;
    if (!w.shard_designs.empty()) {
      // serve/shard: one client through a router and its two forked workers.
      // A single connection keeps clear of the handler-thread starvation that
      // four clients meet there (see sharded_usps).
      stage("shard probe");
      double seconds = 0.0;
      Workload probe;
      probe.sharded = true;
      probe.designs = w.shard_designs;
      probe.initial = {0, 1, 2, 3};
      const auto router = set_up(probe, true, span_dir, kSetupStream + kSetups, seconds);
      Client client(router->port(), kClients + 1);
      for (std::size_t i = 0; i < kShardPredicts; ++i) {
        const Design& d = probe.designs[i % probe.designs.size()];
        client.predict(d, i % d.pool->images.size(), true, shard);
      }
      connections += client.connections_opened();
      client.close();
      shard_counters = fetch_counters(router->port());
      all.merge(shard);
    }
    stage("analysing spans");
    Tracer::instance().write(span_file(span_dir));
    std::vector<Span> spans;
    for (const auto& entry : std::filesystem::directory_iterator(span_dir)) {
      const std::vector<Span> part = Tracer::read(entry.path().string());
      spans.insert(spans.end(), part.begin(), part.end());
    }
    std::filesystem::remove_all(span_dir);
    const TraceAnalysis trace = analyze(spans);
    std::vector<double> transport, handler_self, deploy_handler_ms, router_us, worker_us, hop;
    for (const RequestLayers& r : trace.requests) {
      if (!r.predict) {
        deploy_handler_ms.push_back((r.sharded ? r.router_us : r.handler_us) / 1e3);
        continue;
      }
      if (r.sharded == w.sharded) {  // the workload's own requests, not the shard probe's
        transport.push_back(r.transport_us);
        handler_self.push_back(r.handler_self_us);
      }
      if (r.sharded) {
        router_us.push_back(r.router_us);
        worker_us.push_back(r.handler_us);
        hop.push_back(r.router_self_us);
      }
    }
    report.notes.push_back("trace: " + std::to_string(trace.client_spans) +
                           " traced requests, " + std::to_string(trace.incomplete) +
                           " without server spans, " + std::to_string(trace.inconsistent) +
                           " whose layer self times do not sum to the client span");
    correct = correct && all.wrong == 0 && trace.incomplete == 0 && trace.inconsistent == 0 &&
              trace.client_spans > 0;
    report.add_percentile("predict_p99_us", kept.predict_us, 0.99, "us", false);
    // Only deploy_churn deploys in its timed loop; elsewhere these read 0.
    report.add_percentile("deploy_miss_p50_ms", kept.miss_ms, 0.50, "ms", false);
    report.add_percentile("deploy_miss_p90_ms", kept.miss_ms, 0.90, "ms", false);
    report.add_percentile("deploy_hit_p50_ms", kept.hit_ms, 0.50, "ms", false);
    report.add_percentile("web.transport_p50_us", transport, 0.50, "us", false);
    report.add_percentile("web.transport_p99_us", transport, 0.99, "us", false);
    report.add("web.connections_opened", static_cast<double>(connections), "count");
    report.add_percentile("serve.handler_self_p50_us", handler_self, 0.50, "us", false);
    report.add_percentile("serve.batcher.queue_p50_us", traced.queue_us, 0.50, "us", false);
    report.add_percentile("serve.batcher.queue_p99_us", traced.queue_us, 0.99, "us", false);
    report.add("serve.batcher.batch_size_mean",
               ratio(static_cast<double>(traced.predict_us.size()), traced.batches), "images",
               traced.predict_us.size());
    report.add("serve.batcher.shed_rate",
               ratio(static_cast<double>(all.shed), static_cast<double>(all.predict_attempted)),
               "ratio", all.predict_attempted);
    report.add("serve.backend.accel_share",
               ratio(counters.accel_batches, counters.cpu_batches + counters.accel_batches),
               "ratio");
    report.add_percentile("nn.exec_p50_us", traced.exec_us, 0.50, "us", false);
    report.add_percentile("serve.deploy_handler_p50_ms", deploy_handler_ms, 0.50, "ms", false);
    report.add("serve.registry.hit_rate", ratio(counters.deploy_hits, counters.deploy_total),
               "ratio");
    report.add("serve.registry.evictions", counters.evictions, "count");
    report.add("serve.registry.evicted_predicts", static_cast<double>(all.evicted), "count");
    report.add_percentile("serve.shard.router_handler_p50_us", router_us, 0.50, "us", false);
    report.add_percentile("serve.shard.worker_handler_p50_us", worker_us, 0.50, "us", false);
    report.add_percentile("serve.shard.hop_p50_us", hop, 0.50, "us", false);
    const Tally& routed = w.sharded ? all : shard;
    report.add("serve.shard.attempts_mean",
               ratio(static_cast<double>(routed.shard_attempts),
                     static_cast<double>(routed.predict_us.size())),
               "count", routed.predict_us.size());
    report.add("serve.shard.failovers", counters.failovers + shard_counters.failovers, "count");
    const auto untraced_p50 = percentile(untraced.predict_us, 0.5);
    const auto traced_p50 = percentile(traced.predict_us, 0.5);
    report.add("trace.overhead_pct",
               untraced_p50 && traced_p50 ? (*traced_p50 / *untraced_p50 - 1.0) * 100.0 : 0.0,
               "%");

    // Direct single-thread calls on the workload's own inputs.
    stage("direct layer calls");
    const Design& headline = w.designs[w.headline];
    const std::string predict_body = "{\"rid\":1,\"design_id\":\"" + headline.design_id +
                                     "\",\"image_base64\":\"" + headline.pool->base64[0] +
                                     "\"}";
    DirectInputs direct;
    direct.net = headline.net.get();
    direct.images = &headline.pool->images;
    direct.request_body = w.churn ? &headline.deploy_body : &predict_body;
    direct.base64_field = w.churn ? "weights_base64" : "image_base64";
    measure_runtime_layers(direct, report.metrics);
    // Kernel figures are a fixed set; say which ones read 0 because nothing
    // was measured, so they cannot pass for a perfect result.
    std::string unmeasured;
    for (const Metric& m : report.metrics) {
      if (m.name.rfind("nn.kernels.", 0) == 0 && m.value == 0.0) unmeasured += " " + m.name;
    }
    if (!unmeasured.empty()) {
      report.notes.push_back(
          std::string("not measured, reported as 0 (") +
          (nn::kernels::avx2_available() ? "the network lacks the step" : "host lacks AVX2") +
          "):" + unmeasured);
    }
    for (const Metric& m : measure_codegen_layers(headline.descriptor, *headline.net,
                                                  headline.weights)) {
      report.metrics.push_back(m);
    }
    if (w.churn) {
      for (std::size_t test = 0; test < 3; ++test) {  // the other catalogue networks
        const Design& d = w.designs[test];
        for (const Metric& m : measure_codegen_layers(d.descriptor, *d.net, d.weights)) {
          report.notes.push_back(d.descriptor.name + " " + m.name + " = " +
                                 std::to_string(m.value) + " " + m.unit);
        }
      }
    }
  }

  stage("done");
  print_summary(title, report, all);
  if (!ok) {
    std::fprintf(stderr, "perfbench: a required figure lacks samples\n");
    return 1;
  }
  if (!correct) std::fprintf(stderr, "perfbench: outputs or trace failed their checks\n");
  print_result(correct, all, report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  if (const auto mode = args.get("serve")) {
    return serve_main(*mode == "router", args.get_int("trace", 0) != 0,
                      args.get_string("span-dir", "."));
  }
  Options opt;
  opt.workload = args.get_string("workload", "");
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.workdir = args.get_string("workdir", opt.workdir);
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end() ||
      opt.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload cifar_f32|usps_f32|deploy_churn|sharded_usps "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
