#include "rwbench/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace rwbench {

namespace {

sockaddr_in Loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(static_cast<uint16_t>(port));
  return addr;
}

// Waits up to `timeout_s` for the child to exit; true once reaped.
bool Reap(pid_t pid, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid, &status, WNOHANG);
    if (done == pid || done < 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

std::unique_ptr<TcpClient> TcpClient::Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr = Loopback(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return nullptr;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<TcpClient>(new TcpClient(fd));
}

TcpClient::~TcpClient() { ::close(fd_); }

bool TcpClient::RoundTrip(const std::string& line, std::string* response) {
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t w =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      response->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[1 << 14];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

int FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ::ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

std::unique_ptr<TcpClient> DaemonProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::vector<int>& cpus, int port, const std::string& log_path,
    std::string* error) {
  std::vector<std::string> argv_storage = {binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = "fork failed";
    return nullptr;
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      for (int cpu : cpus) CPU_SET(cpu, &set);
      ::sched_setaffinity(0, sizeof(set), &set);
    }
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  // Readiness: poll for a listening socket (and for an early exit).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    if (auto client = TcpClient::Connect(port)) return client;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = binary + " exited before listening (see " + log_path + ")";
      return nullptr;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      *error = binary + " did not listen within 60 s";
      Kill();
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void DaemonProcess::Shutdown(std::unique_ptr<TcpClient> control) {
  if (pid_ <= 0) return;
  std::string response;
  if (control != nullptr) control->RoundTrip("{\"op\":\"SHUTDOWN\"}", &response);
  control.reset();
  if (Reap(pid_, 10.0)) {
    pid_ = -1;
  } else {
    Kill();
  }
}

void DaemonProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  Reap(pid_, 10.0);
  pid_ = -1;
}

}  // namespace rwbench
