// The mixed_tcp workload's side of the wire: an NDJSON client connection
// and the rwld child process it talks to.
#ifndef RWBENCH_TCP_H_
#define RWBENCH_TCP_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace rwbench {

class TcpClient {
 public:
  // Null when nothing listens on 127.0.0.1:port.
  static std::unique_ptr<TcpClient> Connect(int port);
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  // Sends one request line (newline appended) and reads one response line.
  bool RoundTrip(const std::string& line, std::string* response);

 private:
  explicit TcpClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

// A loopback port nothing listens on at the time of the call.
int FreePort();

// An rwld child process pinned to `cpus`.  The destructor kills and reaps
// it unless Shutdown already did; the child also dies with this process
// (PR_SET_PDEATHSIG), so no daemon outlives the benchmark.
class DaemonProcess {
 public:
  DaemonProcess() = default;
  ~DaemonProcess() { Kill(); }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  // Starts `binary` with `args` and polls until it accepts connections;
  // returns the first connection.  Null (with *error) when the daemon
  // exits or does not listen within 60 s.
  std::unique_ptr<TcpClient> Start(const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::vector<int>& cpus, int port,
                                   const std::string& log_path,
                                   std::string* error);
  // Sends SHUTDOWN on `control` and reaps the process; kills it if it has
  // not exited within 10 s.
  void Shutdown(std::unique_ptr<TcpClient> control);
  void Kill();
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

}  // namespace rwbench

#endif  // RWBENCH_TCP_H_
