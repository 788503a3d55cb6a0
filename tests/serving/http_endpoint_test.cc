#include "serving/http_endpoint.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/collective.h"
#include "obs/flight_recorder.h"
#include "obs/introspect.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cyqr {
namespace {

/// Raw-socket GET against 127.0.0.1:port; returns the full response
/// (status line + headers + body) or "" on any socket failure. Kept
/// deliberately independent of HttpEndpoint's own parsing.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close — EOF ends the response.
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(HttpEndpointTest, ServesRegisteredRouteOnEphemeralPort) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/ping", [](const std::string&) {
    IntrospectPage page;
    page.content_type = "text/plain";
    page.body = "pong\n";
    return page;
  });
  ASSERT_TRUE(endpoint.Start().ok());
  ASSERT_GT(endpoint.port(), 0);

  const std::string response = HttpGet(endpoint.port(), "/ping");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 200 OK");
  EXPECT_EQ(Body(response), "pong\n");
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_GE(endpoint.requests_total(), 1);
  endpoint.Stop();
}

TEST(HttpEndpointTest, UnknownPathGets404AndStopIsIdempotent) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/only", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  const std::string response = HttpGet(endpoint.port(), "/nope");
  EXPECT_EQ(StatusLine(response), "HTTP/1.1 404 Not Found");
  endpoint.Stop();
  endpoint.Stop();  // Idempotent.
  // A second endpoint can bind a fresh ephemeral port after the first
  // stopped — no lingering listener state.
  HttpEndpoint second(options);
  second.AddRoute("/only", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "ok"};
  });
  ASSERT_TRUE(second.Start().ok());
  EXPECT_EQ(StatusLine(HttpGet(second.port(), "/only")),
            "HTTP/1.1 200 OK");
  second.Stop();
}

TEST(HttpEndpointTest, ConcurrentScrapesAllAnswered) {
  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  endpoint.AddRoute("/ping", [](const std::string&) {
    return IntrospectPage{200, "text/plain", "pong"};
  });
  ASSERT_TRUE(endpoint.Start().ok());
  constexpr int kClients = 8;
  constexpr int kGetsEach = 10;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kGetsEach; ++i) {
        const std::string response = HttpGet(endpoint.port(), "/ping");
        // Under a scrape storm a 503 shed is a legal answer; silence or
        // garbage is not.
        const std::string line = StatusLine(response);
        if (line == "HTTP/1.1 200 OK" ||
            line == "HTTP/1.1 503 Service Unavailable") {
          // ordering: relaxed — plain tally; the join below synchronizes.
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  // ordering: relaxed — read after the join; no concurrent writers left.
  EXPECT_EQ(ok_count.load(std::memory_order_relaxed), kClients * kGetsEach);
  endpoint.Stop();
}

class IntrospectionRoutesTest : public testing::Test {
 protected:
  IntrospectionRoutesTest()
      : sampler_(/*keep_per_bucket=*/4),
        recorder_(/*events_per_thread=*/64) {
    Introspector::Options options;
    options.metrics = &registry_;
    options.traces = &sampler_;
    options.flight = &recorder_;
    options.build_info = "http_endpoint_test";
    introspector_ = std::make_unique<Introspector>(options);
  }

  MetricsRegistry registry_;
  TraceSampler sampler_;
  FlightRecorder recorder_;
  std::unique_ptr<Introspector> introspector_;
};

TEST_F(IntrospectionRoutesTest, ServesMetricsStatuszTracezFlightz) {
  registry_.GetCounter("cyqr_test_requests_total")->Increment(3);
  recorder_.Record(FlightCategory::kGeneral,
                   recorder_.InternName("general.tick"), 1, 2);

  // A real collective wired as a /statusz section: its generation() is
  // lock-guarded, so the renderer is legal on endpoint threads.
  Collective::Options collective_options;
  collective_options.world_size = 1;
  Collective collective(collective_options);
  ASSERT_TRUE(collective.Barrier().ok());
  introspector_->AddStatusSection("collective_generation", [&collective] {
    return std::to_string(collective.generation());
  });

  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  RegisterIntrospectionRoutes(&endpoint, introspector_.get());
  ASSERT_TRUE(endpoint.Start().ok());

  const std::string metrics = HttpGet(endpoint.port(), "/metrics");
  EXPECT_EQ(StatusLine(metrics), "HTTP/1.1 200 OK");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(Body(metrics).find("cyqr_test_requests_total 3"),
            std::string::npos);

  const std::string statusz = HttpGet(endpoint.port(), "/statusz");
  EXPECT_EQ(StatusLine(statusz), "HTTP/1.1 200 OK");
  const std::string statusz_body = Body(statusz);
  EXPECT_NE(statusz_body.find("http_endpoint_test"), std::string::npos);
  EXPECT_NE(statusz_body.find("collective_generation: 1"),
            std::string::npos);

  const std::string flightz = HttpGet(endpoint.port(), "/flightz");
  EXPECT_EQ(StatusLine(flightz), "HTTP/1.1 200 OK");
  EXPECT_NE(Body(flightz).find("\"name\":\"general.tick\""),
            std::string::npos);

  const std::string tracez = HttpGet(endpoint.port(), "/tracez");
  EXPECT_EQ(StatusLine(tracez), "HTTP/1.1 200 OK");

  const std::string root = HttpGet(endpoint.port(), "/");
  EXPECT_EQ(StatusLine(root), "HTTP/1.1 200 OK");
  endpoint.Stop();
}

TEST_F(IntrospectionRoutesTest, ExemplarTraceIdResolvesInTracez) {
  // One sampled trace whose id is attached to a histogram observation:
  // the /metrics exemplar annotation must join against /tracez.
  Trace trace;
  trace.Annotate("serve", "cache");
  sampler_.Sample(trace, "cache");
  Histogram* latency = registry_.GetHistogram(
      "cyqr_test_latency_millis", {1.0, 10.0, 100.0});
  latency->Observe(0.5, trace.id());

  HttpEndpoint::Options options;
  options.port = 0;
  HttpEndpoint endpoint(options);
  RegisterIntrospectionRoutes(&endpoint, introspector_.get());
  ASSERT_TRUE(endpoint.Start().ok());

  const std::string metrics_body = Body(HttpGet(endpoint.port(), "/metrics"));
  const std::string annotation = "# {trace_id=\"" + trace.IdHex() + "\"}";
  EXPECT_NE(metrics_body.find(annotation), std::string::npos)
      << "no exemplar annotation in:\n"
      << metrics_body;

  const std::string tracez_body = Body(HttpGet(endpoint.port(), "/tracez"));
  EXPECT_NE(tracez_body.find(trace.IdHex()), std::string::npos)
      << "exemplar trace id not resolvable in:\n"
      << tracez_body;
  endpoint.Stop();
}

}  // namespace
}  // namespace cyqr
