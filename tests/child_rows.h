// Fresh-process determinism checks, shared by the determinism suites: the
// parent re-runs its own test binary filtered to an emitter test, which
// writes its result rows to the file named by an environment variable.
#ifndef UTPS_TESTS_CHILD_ROWS_H_
#define UTPS_TESTS_CHILD_ROWS_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace utps {

// Runs this binary as `--gtest_filter=<emit_test>` with `env_var` naming a
// fresh temporary file, and returns what the child wrote there. Returns
// false when the child could not be started or failed.
inline bool RunChildEmit(const char* env_var, const char* emit_test,
                         std::string* rows) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    return false;
  }
  exe[n] = '\0';
  char out_path[] = "/tmp/child_rows_XXXXXX";
  const int fd = mkstemp(out_path);
  if (fd < 0) {
    return false;
  }
  close(fd);
  setenv(env_var, out_path, 1);
  const std::string cmd = std::string(exe) + " --gtest_filter=" + emit_test +
                          " >/dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
  unsetenv(env_var);
  // Slurp and unlink before returning so a failure cannot strand the file.
  std::ifstream f(out_path, std::ios::binary);
  std::stringstream got;
  got << f.rdbuf();
  std::remove(out_path);
  *rows = got.str();
  return rc == 0;
}

}  // namespace utps

#endif  // UTPS_TESTS_CHILD_ROWS_H_
