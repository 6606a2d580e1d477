// End-to-end coverage of the observability HTTP server: routing, the
// four endpoints' payloads, and a live scrape racing a real REWL run
// (the latter is the TSan target proving health cells don't tear).
#include "obs/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stopwatch.hpp"
#include "core/framework.hpp"
#include "mc/proposal.hpp"
#include "obs/exposition.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "par/rewl.hpp"

namespace dt::obs {
namespace {

/// Blocking one-shot HTTP client against 127.0.0.1:port; returns the
/// full response (status line, headers, body).
std::string http_get(int port, const std::string& target,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    response.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

class HttpObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    HealthRegistry::global().reset();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    HealthRegistry::global().reset();
    MetricsRegistry::global().reset();
  }
};

TEST_F(HttpObsTest, BindsEphemeralPortAndTracksActiveCount) {
  EXPECT_EQ(HttpServer::active_count(), 0);
  const bool was_active = instrumentation_active();
  HttpServer server;  // default options: 127.0.0.1:0
  server.start();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  EXPECT_EQ(HttpServer::active_count(), 1);
  EXPECT_TRUE(instrumentation_active());
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_EQ(HttpServer::active_count(), 0);
  EXPECT_EQ(instrumentation_active(), was_active);
}

TEST_F(HttpObsTest, ServesMetricsInPrometheusFormat) {
  MetricsRegistry::global().counter("mc.accepts").add(7);
  HttpServer server;
  server.start();
  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("mc_accepts 7"), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, StatusReportsPhaseWalkersAndSpanQuantiles) {
  auto& health = HealthRegistry::global();
  health.configure(/*n_ranks=*/2, /*n_windows=*/2, /*walkers_per_window=*/1,
                   /*stall_seconds=*/0.0);
  health.set_phase("rewl");
  WalkerBlock sample;
  sample.window = 1;
  sample.sweeps = 500;
  sample.flatness = 0.625;
  health.publish(health.walker_cell(1), sample);
  health.record_exchange(0, true);

  HttpServer server;
  server.start();  // enables span recording
  {  // one completed span -> a trace.span_log10_s.* histogram
    ScopedSpan span("unit");
  }
  const std::string response = http_get(server.port(), "/status");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"phase\":\"rewl\""), std::string::npos);
  EXPECT_NE(response.find("\"flatness\":0.625"), std::string::npos);
  EXPECT_NE(response.find("\"flatness_trajectory\":[[500,0.625]]"),
            std::string::npos);
  EXPECT_NE(response.find("\"exchange_pairs\""), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"unit\""), std::string::npos);
  EXPECT_NE(response.find("\"p50_s\""), std::string::npos);
  EXPECT_NE(response.find("\"p99_s\""), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, HealthzReportsStallVerdict) {
  auto& health = HealthRegistry::global();
  // Tiny budget: a walker that published long-enough ago counts stalled.
  health.configure(2, 2, 1, /*stall_seconds=*/1e-9);
  WalkerBlock sample;
  sample.sweeps = 100;
  sample.flatness = 0.2;
  health.publish(health.walker_cell(0), sample);

  HttpServer server;
  server.start();
  const std::string ok_or_stalled = http_get(server.port(), "/healthz");
  EXPECT_NE(ok_or_stalled.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(ok_or_stalled.find("\"status\":\"stalled\""),
            std::string::npos);
  EXPECT_NE(ok_or_stalled.find("\"stalled_ranks\":[0]"), std::string::npos);
  server.stop();

  health.configure(1, 1, 1, /*stall_seconds=*/0.0);  // watchdog off
  HttpServer server2;
  server2.start();
  const std::string ok = http_get(server2.port(), "/healthz");
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos);
  server2.stop();
}

TEST_F(HttpObsTest, TraceServesChromeEvents) {
  HttpServer server;
  server.start();  // enables span recording
  {
    ScopedSpan span("traced_region");
  }
  const std::string response = http_get(server.port(), "/trace");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"traced_region\""), std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, RejectsUnknownPathsAndMethods) {
  HttpServer server;
  server.start();
  EXPECT_NE(http_get(server.port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(http_get(server.port(), "/healthz?probe=1").find("200"),
            std::string::npos);
  server.stop();
}

TEST_F(HttpObsTest, HandleCoversRoutingWithoutSockets) {
  const std::string index = HttpServer::handle("GET", "/");
  EXPECT_NE(index.find("200"), std::string::npos);
  EXPECT_NE(index.find("/metrics"), std::string::npos);
  EXPECT_NE(HttpServer::handle("GET", "/metrics").find("200"),
            std::string::npos);
  EXPECT_NE(HttpServer::handle("DELETE", "/status").find("405"),
            std::string::npos);
}

// The TSan headline test: scrape every endpoint continuously while a
// real 2-window REWL run publishes health samples, trace spans and
// metrics from its walker threads. Failures here are data races or torn
// reads in the lock-free health cells.
TEST_F(HttpObsTest, ConcurrentScrapesDuringRewlRunDoNotTear) {
  using lattice::Configuration;
  using lattice::Lattice;
  using lattice::LatticeType;

  const Lattice lat = Lattice::create(LatticeType::kBCC, 2, 2, 2, 1);
  const lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  // Energy range wide enough for the 16-site equiatomic Ising model.
  const mc::EnergyGrid grid(-14.0, 14.0, 100);

  par::RewlOptions opts;
  opts.n_windows = 2;
  opts.walkers_per_window = 1;
  opts.wl.log_f_final = 1e-2;
  opts.exchange_interval = 25;
  opts.max_sweeps = 20000;
  opts.seed = 7;
  opts.watchdog_stall_seconds = 30.0;  // never fires in-test

  HttpServer server;
  server.start();
  const int port = server.port();

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      for (const char* target : {"/metrics", "/status", "/healthz",
                                 "/trace"}) {
        const std::string response = http_get(port, target);
        EXPECT_NE(response.find("200 OK"), std::string::npos) << target;
      }
    }
  });

  const auto result = par::run_rewl(
      ham, lat, 2, grid, opts,
      [&ham](int) { return std::make_shared<mc::LocalSwapProposal>(ham); });
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_GT(result.total_sweeps, 0);
  // The run's health plane is visible post-hoc through the same server.
  const std::string status = http_get(port, "/status");
  EXPECT_NE(status.find("\"walkers\":["), std::string::npos);
  EXPECT_NE(status.find("\"rank\":1"), std::string::npos);
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("health_walker_flatness{rank=\"0\""),
            std::string::npos);
  EXPECT_NE(metrics.find("health_exchange_attempted{pair=\"0\"}"),
            std::string::npos);
  server.stop();
}


/// A record in which every field holds a distinct value: 100, 101, ...
/// in table order (the flag set), except rank, which must name the
/// publishing cell.
std::vector<std::string_view> walker_field_names() {
  std::vector<std::string_view> names;
  for_each_field(WalkerBlock{}, [&](std::string_view name, auto /*value*/) {
    names.push_back(name);
  });
  return names;
}

WalkerBlock distinct_block(int rank) {
  WalkerBlock block;
  double next = 100.0;
  for (const std::string_view name : walker_field_names())
    set_field(block, name, next++);
  block.rank = rank;
  return block;
}

/// `"name":value` exactly as the JSON sinks render it.
template <typename T>
std::string json_member(std::string_view name, T value) {
  JsonWriter one;
  one.field(name, value);
  const std::string object = one.str();
  return object.substr(1, object.size() - 2);  // strip the braces
}

TEST_F(HttpObsTest, StatusAndPrometheusCarryEveryWalkerField) {
  auto& health = HealthRegistry::global();
  health.configure(/*n_ranks=*/3, /*n_windows=*/3, /*walkers_per_window=*/1,
                   /*stall_seconds=*/0.0);
  const WalkerBlock block = distinct_block(2);
  health.publish(health.walker_cell(2), block);

  const std::string status = HttpServer::handle("GET", "/status");
  const std::string metrics = HttpServer::handle("GET", "/metrics");
  const std::string labels = "{rank=\"2\",window=\"101\"} ";
  std::size_t fields = 0;
  for_each_field(block, [&](std::string_view name, auto value) {
    ++fields;
    EXPECT_NE(status.find(json_member(name, value)), std::string::npos)
        << name;
    const std::string series =
        name == "sweeps_per_s" ? "health_walker_sweeps_per_second"
                               : "health_walker_" + std::string(name);
    EXPECT_NE(metrics.find(series + labels +
                           json_number(static_cast<double>(value)) + "\n"),
              std::string::npos)
        << name;
  });
  EXPECT_EQ(fields, walker_field_names().size());

  // Names that predate the shared field table stay put.
  for (const char* key :
       {"rank", "window", "sweeps", "sweeps_per_s", "flatness",
        "best_flatness", "log_f", "f_stage", "acceptance", "round_trips",
        "round_trip_mean_s", "energy", "local_proposed", "local_acceptance",
        "vae_proposed", "vae_acceptance", "vae_decode_wait_ms",
        "vae_decode_waits", "converged", "stalled", "seconds_since_improve",
        "flatness_trajectory"})
    EXPECT_NE(status.find('"' + std::string(key) + "\":"), std::string::npos)
        << key;
  for (const char* series :
       {"flatness", "best_flatness", "log_f", "f_stage", "sweeps",
        "sweeps_per_second", "acceptance", "round_trips",
        "round_trip_mean_seconds", "local_acceptance", "vae_acceptance",
        "converged", "stalled", "seconds_since_improve"})
    EXPECT_NE(metrics.find("\n# TYPE health_walker_" + std::string(series) +
                           " gauge\n"),
              std::string::npos)
        << series;
}

TEST_F(HttpObsTest, RoundTripMeanCountsOnlyTimeSinceLatestConfigure) {
  auto& health = HealthRegistry::global();
  health.configure(1, 1, 1, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Stopwatch since_second;
  health.configure(1, 1, 1, 0.0);
  WalkerBlock block;
  block.round_trips = 1;
  health.publish(health.walker_cell(0), block);
  const double mean = health.snapshot().walkers.at(0).round_trip_mean_s;
  EXPECT_GT(mean, 0.0);
  EXPECT_LE(mean, since_second.seconds());
}

/// Local swaps that report a fixed set of kernel-telemetry pairs.
class ReportingSwap final : public mc::Proposal {
 public:
  ReportingSwap(const lattice::EpiHamiltonian& ham,
                std::vector<std::pair<std::string, double>> report)
      : swap_(ham), report_(std::move(report)) {}
  mc::ProposalResult propose(lattice::Configuration& cfg,
                             units::Energy current_energy,
                             mc::Rng& rng) override {
    return swap_.propose(cfg, current_energy, rng);
  }
  void revert(lattice::Configuration& cfg) override { swap_.revert(cfg); }
  [[nodiscard]] std::string name() const override { return "reporting"; }
  [[nodiscard]] std::vector<std::pair<std::string, double>> telemetry()
      const override {
    return report_;
  }

 private:
  mc::LocalSwapProposal swap_;
  std::vector<std::pair<std::string, double>> report_;
};

/// Keeps every rewl_walker event; walker threads emit concurrently.
class CaptureSink final : public Sink {
 public:
  explicit CaptureSink(std::shared_ptr<std::vector<Event>> events)
      : events_(std::move(events)) {}
  void write(const Event& event) override {
    if (event.type != "rewl_walker") return;
    std::lock_guard<std::mutex> lock(mutex_);
    events_->push_back(event);
  }
  void flush() override {}

 private:
  std::mutex mutex_;
  std::shared_ptr<std::vector<Event>> events_;
};

par::RewlResult small_rewl(
    const std::vector<std::pair<std::string, double>>& report) {
  const lattice::Lattice lat =
      lattice::Lattice::create(lattice::LatticeType::kBCC, 2, 2, 2, 1);
  const lattice::EpiHamiltonian ham = lattice::epi_ising(1.0);
  par::RewlOptions opts;
  opts.n_windows = 2;
  opts.walkers_per_window = 1;
  opts.wl.log_f_final = 1e-2;
  opts.exchange_interval = 25;
  opts.max_sweeps = 200;
  opts.seed = 7;
  return par::run_rewl(ham, lat, 2, mc::EnergyGrid(-14.0, 14.0, 100), opts,
                       [&](int) {
                         return std::make_shared<ReportingSwap>(ham, report);
                       });
}

TEST_F(HttpObsTest, RewlWalkerEventCarriesEveryWalkerField) {
  auto events = std::make_shared<std::vector<Event>>();
  Telemetry::instance().add_sink(std::make_unique<CaptureSink>(events));
  small_rewl({{"vae_proposed", 12.0}, {"vae_acceptance", 0.25}});
  Telemetry::instance().disable();

  ASSERT_FALSE(events->empty());
  const Event& event = events->front();
  // "ts" first, then the table in order.
  const std::vector<std::string_view> names = walker_field_names();
  ASSERT_EQ(event.fields.size(), names.size() + 1);
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(event.fields[i + 1].first, names[i]);
  const std::string json = event_to_json(event);
  EXPECT_NE(json.find("\"vae_proposed\":12,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"vae_acceptance\":0.25,"), std::string::npos)
      << json;
}

TEST_F(HttpObsTest, UnknownKernelTelemetryKeyFailsLoudly) {
  WalkerBlock block;
  EXPECT_THROW(set_field(block, "local_accept", 0.5), Error);
  EXPECT_THROW(small_rewl({{"local_accept", 0.5}}), Error);
}

/// Sum of every sample of `series` in a Prometheus exposition.
double sample_sum(const std::string& exposition, const std::string& series) {
  double sum = 0.0;
  std::size_t pos = 0;
  while ((pos = exposition.find('\n' + series, pos)) != std::string::npos) {
    pos += 1 + series.size();
    if (exposition[pos] != '{' && exposition[pos] != ' ') continue;
    const std::size_t value = exposition.find(' ', pos) + 1;
    sum += std::stod(exposition.substr(value));
  }
  return sum;
}

// With only an HTTP server live (no telemetry sink), the VAE work counts
// reach /metrics through the walker record and pretraining's epoch
// counter is kept.
TEST_F(HttpObsTest, HttpOnlyRunExposesVaeWorkAndTrainEpochs) {
  ASSERT_FALSE(Telemetry::instance().enabled());
  HttpServer server;
  server.start();

  core::DeepThermoOptions opts;
  opts.lattice.nx = opts.lattice.ny = opts.lattice.nz = 2;  // 16 sites
  opts.n_bins = 40;
  opts.pretrain.n_temperatures = 3;
  opts.pretrain.equilibration_sweeps = 10;
  opts.pretrain.samples_per_temperature = 16;
  opts.vae.hidden = 24;
  opts.vae.latent = 4;
  opts.vae.epochs = 3;
  opts.global_fraction = 0.5;
  opts.rewl.wl.log_f_final = 1e-2;
  opts.rewl.exchange_interval = 25;
  opts.rewl.max_sweeps = 2000;
  opts.seed = 5;
  core::Framework fw = core::Framework::nbmotaw(opts);
  (void)fw.run();

  const std::string metrics = http_get(server.port(), "/metrics");
  server.stop();
  EXPECT_GT(sample_sum(metrics, "health_walker_vae_decoded"), 0.0);
  EXPECT_GT(sample_sum(metrics, "health_walker_vae_changed_sites"), 0.0);
  EXPECT_EQ(sample_sum(metrics, "train_epochs"), 3.0);
  EXPECT_GT(sample_sum(metrics, "run_total_sweeps"), 0.0);
}

// Dropping the last sink leaves span recording to the live server.
TEST_F(HttpObsTest, SpansOutliveTelemetryDisableWhileServerIsLive) {
  HttpServer server;
  server.start();
  Telemetry::instance().add_sink(std::make_unique<CaptureSink>(
      std::make_shared<std::vector<Event>>()));
  Telemetry::instance().disable();
  EXPECT_TRUE(instrumentation_active());
  { DT_SPAN("after_disable"); }
  const std::string status = http_get(server.port(), "/status");
  EXPECT_NE(status.find("\"name\":\"after_disable\""), std::string::npos)
      << status;
  const std::string trace = http_get(server.port(), "/trace");
  EXPECT_NE(trace.find("\"name\":\"after_disable\""), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace dt::obs
