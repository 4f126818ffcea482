// Stack-sampling profiler, loaded into a program with LD_PRELOAD.
// tools/profile.py builds it, runs a command under it and symbolizes the
// result; perfbench's spans stop at layer boundaries, this sees inside one.
//
// Environment:
//   MCNET_PROFILE_OUT  path prefix; the profile goes to <prefix>.<pid>.
//                      Unset: the library does nothing.
//
// A CLOCK_MONOTONIC POSIX timer delivers SIGPROF 4000 times a second; the
// handler records the interrupted stack with backtrace() into a buffer
// allocated up front, so it never allocates.  At exit the samples (one line of hex addresses per
// sample, the interrupted pc first) and /proc/self/maps are written out.
#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr long kHz = 4000;  // samples per second
constexpr int kMaxDepth = 64;
/// Words of sample storage: each sample takes its depth plus one.  The
/// mapping is reserved lazily, so only pages written count toward RSS.
constexpr std::size_t kBufferWords = std::size_t{1} << 24;

std::uintptr_t* g_buffer = nullptr;
std::atomic<std::size_t> g_used{0};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_dropped{0};
timer_t g_timer{};
bool g_active = false;
char g_out[4096];  // MCNET_PROFILE_OUT, copied before the program can change it

std::uintptr_t interrupted_pc(const void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  return 0;
#endif
}

void on_sigprof(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const int saved_errno = errno;
  void* frames[kMaxDepth];
  const int depth = backtrace(frames, kMaxDepth);
  // Drop the handler's own frames and the signal trampoline: the stack
  // starts at the interrupted pc when the unwinder found it.
  const std::uintptr_t pc = interrupted_pc(context);
  int first = depth;
  for (int i = 0; i < depth && i < 4; ++i) {
    if (reinterpret_cast<std::uintptr_t>(frames[i]) == pc) {
      first = i;
      break;
    }
  }
  if (first == depth) first = depth > 2 ? 2 : depth;  // handler + trampoline
  const std::size_t n = static_cast<std::size_t>(depth - first);
  // Reserve n + 1 words; a reservation past the end is dropped, and the
  // zero words it leaves behind end the sample list when it is written.
  const std::size_t at =
      n == 0 ? kBufferWords : g_used.fetch_add(n + 1, std::memory_order_relaxed);
  if (at + n + 1 > kBufferWords) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_buffer[at] = n;
    for (std::size_t i = 0; i < n; ++i) {
      g_buffer[at + 1 + i] = reinterpret_cast<std::uintptr_t>(frames[first + i]);
    }
    g_samples.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

__attribute__((constructor)) void profile_start() {
  const char* out = std::getenv("MCNET_PROFILE_OUT");
  if (out == nullptr || *out == '\0') return;
  std::snprintf(g_out, sizeof g_out, "%s", out);
  // backtrace() loads libgcc's unwinder on its first call; do that here,
  // where loading a library is allowed, not in the signal handler.
  void* warm[2];
  (void)backtrace(warm, 2);

  void* mem = mmap(nullptr, kBufferWords * sizeof(std::uintptr_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_buffer = static_cast<std::uintptr_t*>(mem);

  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;

  struct sigevent sev {};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) return;
  const long period_ns = 1000000000L / kHz;
  struct itimerspec spec {};
  spec.it_interval.tv_sec = period_ns / 1000000000L;
  spec.it_interval.tv_nsec = period_ns % 1000000000L;
  spec.it_value = spec.it_interval;
  if (timer_settime(g_timer, 0, &spec, nullptr) != 0) {
    timer_delete(g_timer);
    return;
  }
  g_active = true;
}

__attribute__((destructor)) void profile_stop() {
  if (!g_active) return;
  g_active = false;
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);

  char path[sizeof g_out + 24];  // prefix, ".", pid
  std::snprintf(path, sizeof path, "%s.%ld", g_out, static_cast<long>(getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const std::size_t used = g_used.load() < kBufferWords ? g_used.load() : kBufferWords;
  std::fprintf(f, "mcnet-profile-v1 hz %ld samples %llu dropped %llu\n", kHz,
               static_cast<unsigned long long>(g_samples.load()),
               static_cast<unsigned long long>(g_dropped.load()));
  for (std::size_t at = 0; at < used;) {
    const std::size_t n = g_buffer[at];
    if (n == 0 || at + 1 + n > used) break;
    for (std::size_t i = 0; i < n; ++i) {
      std::fprintf(f, i == 0 ? "%lx" : " %lx",
                   static_cast<unsigned long>(g_buffer[at + 1 + i]));
    }
    std::fputc('\n', f);
    at += n + 1;
  }
  std::fputs("maps\n", f);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr) std::fputs(line, f);
    std::fclose(maps);
  }
  std::fclose(f);
}

}  // namespace
