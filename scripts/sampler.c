// SIGPROF sampling profiler, loaded into a program with LD_PRELOAD.
//
//   cc -O2 -shared -fPIC -o sampler.so scripts/sampler.c
//   LD_PRELOAD=$PWD/sampler.so ./build/bench/selfperf
//   python3 scripts/symbolize.py sampler.<pid>.txt
//
// Every ~1 ms of process CPU time (ITIMER_PROF) the handler records the
// interrupted PC and the return address one frame up, read through the
// frame pointer (the project builds with -fno-omit-frame-pointer). At exit
// it writes sampler.<pid>.txt into the working directory: a header line,
// the process's /proc/self/maps (so symbolize.py can map PCs back to
// modules even under ASLR), then one "pc ret" line per sample.
//
// Unlike gprof's -pg, this needs no instrumented build, and a PC inside a
// coroutine's .resume clone stays in that clone: addr2line resolves it
// (with its inline chain) instead of crediting the nearest named symbol.
// x86-64 and aarch64 Linux only. Return addresses are taken on the main
// thread only (the simulator has no other); other threads get PCs alone.
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define SAMPLER_INTERVAL_US 997  // not a round number: avoids beating with timers
#define SAMPLER_MAX_SAMPLES (1u << 22)

struct sample {
  uintptr_t pc;
  uintptr_t ret;  // 0 when the frame pointer did not look like a frame
};

static struct sample* g_samples;
static volatile uint32_t g_count;
static volatile uint32_t g_dropped;
static uintptr_t g_stack_lo;  // lowest address the main stack may grow to
static uintptr_t g_stack_hi;  // top of the main thread's stack

static void on_prof(int sig, siginfo_t* info, void* uctx) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)uctx;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  const uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t ret_slot = fp + 8;
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.sp;
  const uintptr_t fp = (uintptr_t)uc->uc_mcontext.regs[29];
  const uintptr_t ret_slot = fp + 8;
#else
#error "sampler.c supports x86-64 and aarch64"
#endif
  const uint32_t i = g_count;
  if (i >= SAMPLER_MAX_SAMPLES) {
    g_dropped = g_dropped + 1;
    return;
  }
  uintptr_t ret = 0;
  // Only dereference a frame pointer that lies between the interrupted SP
  // and the top of the main stack: that range is mapped, whatever the
  // register holds. A sample on another thread's stack fails the SP test.
  if (sp >= g_stack_lo && sp < g_stack_hi && fp >= sp && ret_slot + 8 <= g_stack_hi &&
      (fp & 7) == 0) {
    ret = *(const uintptr_t*)ret_slot;
  }
  g_samples[i].pc = pc;
  g_samples[i].ret = ret;
  g_count = i + 1;
}

// Copies the whole file at `path` to `out` (used for /proc/self/maps).
static void copy_file(const char* path, FILE* out) {
  const int fd = open(path, O_RDONLY);
  if (fd < 0) {
    return;
  }
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof buf)) > 0) {
    fwrite(buf, 1, (size_t)n, out);
  }
  close(fd);
}

static uintptr_t main_stack_top(void) {
  FILE* f = fopen("/proc/self/maps", "r");
  if (f == NULL) {
    return 0;
  }
  char line[512];
  uintptr_t top = 0;
  while (fgets(line, sizeof line, f) != NULL) {
    if (strstr(line, "[stack]") != NULL) {
      unsigned long lo = 0, hi = 0;
      if (sscanf(line, "%lx-%lx", &lo, &hi) == 2) {
        top = (uintptr_t)hi;
      }
    }
  }
  fclose(f);
  return top;
}

__attribute__((constructor)) static void sampler_start(void) {
  void* buf = mmap(NULL, sizeof(struct sample) * SAMPLER_MAX_SAMPLES,
                   PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
  if (buf == MAP_FAILED) {
    return;
  }
  g_samples = (struct sample*)buf;
  g_stack_hi = main_stack_top();
  struct rlimit rl;
  uintptr_t limit = 64u << 20;
  if (getrlimit(RLIMIT_STACK, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY) {
    limit = (uintptr_t)rl.rlim_cur;
  }
  g_stack_lo = g_stack_hi > limit ? g_stack_hi - limit : 0;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval it;
  it.it_interval.tv_sec = 0;
  it.it_interval.tv_usec = SAMPLER_INTERVAL_US;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (g_samples == NULL) {
    return;
  }
  struct itimerval off;
  memset(&off, 0, sizeof off);
  setitimer(ITIMER_PROF, &off, NULL);
  char path[64];
  snprintf(path, sizeof path, "sampler.%d.txt", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    return;
  }
  fprintf(out, "# sampler interval_us=%d samples=%u dropped=%u\n", SAMPLER_INTERVAL_US,
          g_count, g_dropped);
  fprintf(out, "# maps\n");
  copy_file("/proc/self/maps", out);
  fprintf(out, "# samples\n");
  for (uint32_t i = 0; i < g_count; i++) {
    fprintf(out, "%lx %lx\n", (unsigned long)g_samples[i].pc,
            (unsigned long)g_samples[i].ret);
  }
  fclose(out);
  fprintf(stderr, "sampler: %u samples (%u dropped) -> %s\n", g_count, g_dropped, path);
}
