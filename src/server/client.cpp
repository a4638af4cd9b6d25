#include "server/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tpi {
namespace {

void set_err(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

}  // namespace

FlowClient::~FlowClient() { close(); }

void FlowClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool FlowClient::connect(const std::string& socket_path, std::string* error) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + socket_path;
    return false;
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    set_err(error, "socket");
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    set_err(error, "connect " + socket_path);
    close();
    return false;
  }
  return true;
}

bool FlowClient::call(const std::string& request_line, std::string* response_line,
                      std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  std::string out = request_line;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      set_err(error, "send");
      return false;
    }
    off += static_cast<std::size_t>(n);
  }

  char chunk[4096];
  for (;;) {
    const std::size_t pos = buf_.find('\n');
    if (pos != std::string::npos) {
      if (response_line != nullptr) *response_line = buf_.substr(0, pos);
      buf_.erase(0, pos + 1);
      return true;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n == 0) {
      // A peer close leaves errno untouched; strerror would read a stale one.
      if (error != nullptr) *error = "recv: connection closed by peer";
      return false;
    }
    if (n < 0) {
      set_err(error, "recv");
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool FlowClient::rpc(std::string_view method, std::string_view params_json,
                     std::string* response_line, std::string* error) {
  std::string req = "{\"id\": ";
  req += std::to_string(next_id_++);
  req += ", \"method\": \"";
  req.append(method);
  req += '"';
  if (!params_json.empty()) {
    req += ", \"params\": ";
    req.append(params_json);
  }
  req += '}';
  return call(req, response_line, error);
}

}  // namespace tpi
