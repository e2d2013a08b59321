// perfbench_spawn: runs one command and records what the OS saw of it.
//
//   perfbench_spawn RUSAGE_FILE PROGRAM [ARGS...]
//
// Writes {"wall_s", "user_s", "sys_s", "maxrss_kb", "exit"} for the child
// to RUSAGE_FILE and exits with the child's exit code (128 + signal when
// it was killed). SIGTERM and SIGINT are forwarded to the child.
//
// Linux carries a process's peak RSS across exec, so a child forked from
// a large parent (the Python harness) reports at least the parent's RSS.
// This launcher is kept small so the child's own peak shows.
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

namespace {

volatile sig_atomic_t g_child = 0;

void forward(int sig) {
  if (g_child > 0) kill(g_child, sig);
}

double now_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_spawn RUSAGE_FILE PROGRAM [ARGS...]\n");
    return 2;
  }
  struct sigaction action = {};
  action.sa_handler = forward;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  const double start = now_s();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[2], argv + 2);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  g_child = pid;

  int status = 0;
  rusage usage = {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_spawn: wait4");
      return 2;
    }
  }
  const double wall = now_s() - start;
  const int code = WIFEXITED(status)     ? WEXITSTATUS(status)
                   : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                         : 1;

  std::FILE* out = std::fopen(argv[1], "w");
  if (out == nullptr) {
    std::perror("perfbench_spawn: rusage file");
    return 2;
  }
  std::fprintf(out,
               "{\"wall_s\": %.9f, \"user_s\": %.6f, \"sys_s\": %.6f, "
               "\"maxrss_kb\": %ld, \"exit\": %d}\n",
               wall, tv_s(usage.ru_utime), tv_s(usage.ru_stime),
               usage.ru_maxrss, code);
  if (std::fclose(out) != 0) return 2;
  return code;
}
