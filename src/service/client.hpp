// Minimal qbpartd client: a blocking TCP connection to a local server
// speaking either edge framing (NDJSON lines or binary wire frames --
// docs/PROTOCOL.md), plus helpers shared by qbpart_submit and the service
// tests.  Pipe mode needs no client class at all -- requests are plain
// NDJSON lines on stdin -- so the interesting part here is only
// connect/send/recv with message buffering.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qbp::service {

class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connect to 127.0.0.1:`port`.  False on failure; see error().
  [[nodiscard]] bool connect(std::uint16_t port);

  /// Send one request line (newline appended here).  False on failure.
  [[nodiscard]] bool send_line(std::string_view line);

  /// Block until one full response line arrives (newline stripped).
  /// False on EOF or error.
  [[nodiscard]] bool read_line(std::string& out);

  /// Send raw bytes verbatim (a pre-encoded wire frame).  False on failure.
  [[nodiscard]] bool send_bytes(std::string_view bytes);

  /// Block until one full binary frame arrives; yields its message type and
  /// payload bytes.  False on EOF, socket error, or a malformed frame.
  [[nodiscard]] bool read_frame(std::uint8_t& type, std::string& payload);

  void close();

  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  /// Append the next bytes from the socket to pending_; false on EOF or
  /// error (see error()).
  bool receive();

  int fd_ = -1;
  std::string pending_;
  std::string error_;
};

}  // namespace qbp::service
