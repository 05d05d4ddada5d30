// Server processes the harness starts, and what /proc says about them.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace xbar::bench {

/// One spawned server.  Its stdout is a pipe the harness reads the
/// "listening on HOST:PORT" line from; it dies with the harness
/// (PR_SET_PDEATHSIG), and the destructor drains it with SIGTERM and waits
/// for it, escalating to SIGKILL after five seconds.
class Child {
 public:
  /// vfork + exec `argv` (argv[0] is the executable path).  Raises
  /// xbar::Error(kIo) when the process cannot be started.
  explicit Child(const std::vector<std::string>& argv);
  ~Child();

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  Child(Child&&) = delete;
  Child& operator=(Child&&) = delete;

  /// Block until the server prints its listening line; returns the port.
  /// Raises xbar::Error(kIo) on timeout or early exit.
  [[nodiscard]] std::uint16_t wait_for_port(double timeout_seconds);

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
};

/// utime + stime of a process (all threads), in seconds.
[[nodiscard]] double cpu_seconds(pid_t pid);

/// Peak resident set size (VmHWM) of a process, in MB.
[[nodiscard]] double peak_rss_mb(pid_t pid);

/// One line describing the host: nproc, CPU model, cache sizes, compiler.
[[nodiscard]] std::string host_record();

}  // namespace xbar::bench
