#include "harness/procs.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.hpp"

namespace xbar::bench {

namespace {

using Clock = std::chrono::steady_clock;

// Servers run at a lower priority than the harness, whose sender threads
// sleep until each request's intended send time: on a host with few cores,
// a waking sender then preempts a busy server thread at once instead of
// queueing behind it, as a client on a machine of its own would not.
constexpr int kServerNice = 10;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) {
    s.pop_back();
  }
  return s;
}

}  // namespace

Child::Child(const std::vector<std::string>& argv) {
  int fds[2];
  if (argv.empty() || ::pipe2(fds, O_CLOEXEC) != 0) {
    raise(ErrorKind::kIo, "cannot create a pipe for a server process");
  }
  // Everything the child touches between vfork and exec is prepared here:
  // the child borrows the harness's memory until it execs, so it only makes
  // system calls.  vfork, unlike fork, copies no page tables, so a spawn
  // costs the same however much the harness holds; setup_s times spawns
  // both before and after the steps have filled the harness's memory.
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::vfork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) {
      ::_exit(127);
    }
    ::setpriority(PRIO_PROCESS, 0, kServerNice);
    ::dup2(fds[1], STDOUT_FILENO);
    ::syscall(SYS_close_range, 3U, ~0U, 0U);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  ::close(fds[1]);
  if (pid_ < 0) {
    ::close(fds[0]);
    raise(ErrorKind::kIo, std::string("vfork(): ") + std::strerror(errno));
  }
  stdout_fd_ = fds[0];
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > give_up) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
  }
}

std::uint16_t Child::wait_for_port(double timeout_seconds) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  std::string out;
  for (;;) {
    const std::size_t newline = out.find('\n');
    if (newline != std::string::npos) {
      const std::string line = out.substr(0, newline);
      const std::size_t colon = line.rfind(':');
      if (line.find("listening on") == std::string::npos ||
          colon == std::string::npos) {
        raise(ErrorKind::kIo, "unexpected server banner '" + line + "'");
      }
      return static_cast<std::uint16_t>(std::stoul(line.substr(colon + 1)));
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        give_up - Clock::now());
    if (left.count() <= 0) {
      raise(ErrorKind::kIo, "server did not report a port in time");
    }
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      continue;
    }
    char buf[256];
    const ssize_t n = ::read(stdout_fd_, buf, sizeof(buf));
    if (n <= 0) {
      raise(ErrorKind::kIo, "server exited before listening");
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
}

double cpu_seconds(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos) {
    raise(ErrorKind::kIo, "cannot read /proc stat of a server process");
  }
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  std::istringstream fields(stat.substr(paren + 1));
  std::string skip;
  for (int f = 3; f < 14; ++f) {
    fields >> skip;
  }
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  std::istringstream status(
      read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  raise(ErrorKind::kIo, "no VmHWM for a server process");
}

std::string host_record() {
  std::string model = "unknown";
  std::istringstream cpuinfo(read_file("/proc/cpuinfo"));
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      model = trim(line.substr(line.find(':') + 2));
      break;
    }
  }
  std::string caches;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string size = trim(read_file(dir + "/size"));
    if (size.empty()) {
      break;
    }
    const std::string type = trim(read_file(dir + "/type"));
    caches += caches.empty() ? "" : ",";
    caches += "L" + trim(read_file(dir + "/level")) +
              (type == "Data" ? "d" : type == "Instruction" ? "i" : "") + ":" +
              size;
  }
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << model
      << "\" caches=" << caches << " compiler=\""
#if defined(__clang__)
      << "clang "
#elif defined(__GNUC__)
      << "gcc "
#endif
      << __VERSION__ << "\"";
  return out.str();
}

}  // namespace xbar::bench
