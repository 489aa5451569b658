#include "svc/http.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "util/error.hpp"

namespace amf::svc {

namespace {

/// Receive timeout per header read; a stalling peer is dropped.
constexpr double kHeaderReadTimeoutMs = 2000.0;

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

std::string serialize(const HttpResponse& resp) {
  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    status_text(resp.status) + "\r\n";
  out += "Content-Type: " + resp.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += resp.body;
  return out;
}

}  // namespace

HttpListener::HttpListener(int port, HttpHandler handler,
                           HttpOptions options)
    : handler_(std::move(handler)),
      options_(options),
      requested_port_(port) {
  AMF_REQUIRE(handler_ != nullptr, "HttpListener needs a handler");
  tokens_ = options_.burst > 0.0 ? options_.burst : 1.0;
}

HttpListener::~HttpListener() { stop(); }

void HttpListener::start() {
  AMF_REQUIRE(!started_, "HttpListener already started");
  int fds[2];
  AMF_REQUIRE(::pipe(fds) == 0, "HttpListener self-pipe creation failed");
  wake_read_ = fds[0];
  wake_write_ = fds[1];
  listener_ = listen_tcp(requested_port_, &bound_port_);
  started_ = true;
  last_refill_s_ = steady_s();
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpListener::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  const char byte = 'q';
  [[maybe_unused]] ssize_t n = ::write(wake_write_, &byte, 1);
  listener_.shutdown_both();
  if (thread_.joinable()) thread_.join();
  listener_.close();
  if (wake_read_ >= 0) ::close(wake_read_);
  if (wake_write_ >= 0) ::close(wake_write_);
  wake_read_ = wake_write_ = -1;
}

void HttpListener::serve_loop() {
  while (wait_readable(listener_.fd(), wake_read_)) {
    Socket sock = accept_connection(listener_);
    if (!sock.valid()) break;
    handle_connection(std::move(sock));
  }
}

bool HttpListener::admit_locked_thread() {
  if (options_.rate_per_s <= 0.0) return true;
  const double now = steady_s();
  const double cap = options_.burst > 0.0 ? options_.burst : 1.0;
  tokens_ += (now - last_refill_s_) * options_.rate_per_s;
  if (tokens_ > cap) tokens_ = cap;
  last_refill_s_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

void HttpListener::handle_connection(Socket sock) {
  set_recv_timeout_ms(sock.fd(), kHeaderReadTimeoutMs);
  LineReader reader(sock.fd());
  std::string line;
  if (reader.read_line(&line) != LineReader::Status::kLine) return;

  // Request line: METHOD SP target SP version.  Anything unparsable is
  // a 400; non-GET methods are 405 (every endpoint is read-only).
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  HttpResponse resp;
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    resp.status = 400;
    resp.body = "malformed request line\n";
    sock.send_all(serialize(resp));
    return;
  }
  const std::string method = line.substr(0, sp1);
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);

  // Drain the header block (bounded by the line reader's size cap and
  // the receive timeout); the connection closes after one response.
  while (true) {
    const LineReader::Status status = reader.read_line(&line);
    if (status != LineReader::Status::kLine) {
      if (status == LineReader::Status::kEof) break;
      return;  // timeout / error / oversized header: drop silently
    }
    if (line.empty()) break;
  }

  if (method != "GET") {
    resp.status = 405;
    resp.body = "only GET is supported\n";
  } else if (!admit_locked_thread()) {
    resp.status = 429;
    resp.body = "rate limited\n";
  } else {
    const std::size_t q = target.find('?');
    const std::string path =
        q == std::string::npos ? target : target.substr(0, q);
    const std::string query =
        q == std::string::npos ? std::string() : target.substr(q + 1);
    try {
      resp = handler_(path, query);
    } catch (const std::exception& e) {
      resp = HttpResponse{};
      resp.status = 500;
      resp.body = std::string("handler error: ") + e.what() + "\n";
    }
  }
  sock.send_all(serialize(resp));
}

bool http_get(int port, const std::string& target, std::string* body,
              int* status, double timeout_ms) {
  Socket sock;
  try {
    sock = connect_tcp("127.0.0.1", port, timeout_ms);
  } catch (const util::ContractError&) {
    return false;
  }
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (!sock.send_all(request)) return false;
  set_recv_timeout_ms(sock.fd(), timeout_ms);

  LineReader reader(sock.fd());
  std::string line;
  if (reader.read_line(&line) != LineReader::Status::kLine) return false;
  // Status line: HTTP/1.1 SP code SP text.
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  int code = 0;
  for (std::size_t i = sp1 + 1; i < line.size() && line[i] != ' '; ++i) {
    if (line[i] < '0' || line[i] > '9') return false;
    code = code * 10 + (line[i] - '0');
  }
  if (status != nullptr) *status = code;

  long long content_length = -1;
  while (true) {
    if (reader.read_line(&line) != LineReader::Status::kLine) return false;
    if (line.empty()) break;
    const std::string prefix = "content-length:";
    if (line.size() > prefix.size()) {
      std::string lower;
      for (char c : line)
        lower.push_back(c >= 'A' && c <= 'Z'
                            ? static_cast<char>(c - 'A' + 'a')
                            : c);
      if (lower.compare(0, prefix.size(), prefix) == 0) {
        content_length = 0;
        for (std::size_t i = prefix.size(); i < lower.size(); ++i) {
          const char c = lower[i];
          if (c == ' ') continue;
          if (c < '0' || c > '9') return false;
          content_length = content_length * 10 + (c - '0');
        }
      }
    }
  }

  // Body: the listener always sends Content-Length and closes after, so
  // read lines until EOF and rebuild (bodies are '\n'-structured text).
  std::string out;
  while (true) {
    const LineReader::Status s = reader.read_line(&line);
    if (s == LineReader::Status::kLine) {
      out += line;
      out.push_back('\n');
      continue;
    }
    if (s == LineReader::Status::kEof) break;
    return false;
  }
  if (content_length >= 0 &&
      static_cast<long long>(out.size()) > content_length)
    out.resize(static_cast<std::size_t>(content_length));
  if (body != nullptr) *body = std::move(out);
  return true;
}

int parse_http_addr(const std::string& addr) {
  std::string host;
  std::string port_str = addr;
  const std::size_t colon = addr.rfind(':');
  if (colon != std::string::npos) {
    host = addr.substr(0, colon);
    port_str = addr.substr(colon + 1);
  }
  if (!host.empty() && host != "127.0.0.1" && host != "localhost")
    throw util::ContractError(
        "--http binds loopback only (use 127.0.0.1, localhost, or a bare "
        "port); got host \"" + host + "\"");
  if (port_str.empty())
    throw util::ContractError("--http needs a port (host:port or port)");
  int port = 0;
  for (char c : port_str) {
    if (c < '0' || c > '9')
      throw util::ContractError("--http port \"" + port_str +
                                "\" is not a number");
    port = port * 10 + (c - '0');
    if (port > 65535)
      throw util::ContractError("--http port out of range");
  }
  return port;
}

}  // namespace amf::svc
