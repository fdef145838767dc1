// A wall-clock sampling profiler linked into a binary by scripts/profile.sh.
//
// Before main() it arms a 50 us CLOCK_MONOTONIC POSIX timer that raises
// SIGPROF; each tick's handler appends the interrupted instruction pointer
// (read from the signal's ucontext) to a fixed buffer, which allocates and
// locks nothing. ITIMER_PROF counts CPU time at the kernel's tick, which
// gave only ~50 samples over a ~0.3 s benchmark window; a 50 us timer gives
// ~6000. When the process exits, the samples are appended to
// `profile.samples` in the working directory, one per line:
//
//   exe 0x<address in the executable's ELF address space>   (for addr2line)
//   lib <shared object basename> <symbol or ?>
//
// Single-threaded programs only: the timer signals the process, and the
// handler records whichever thread the kernel picks.
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // ~52 s at 50 us
constexpr long kIntervalNs = 50'000;

std::uintptr_t g_samples[kMaxSamples];
std::atomic<std::size_t> g_count{0};
timer_t g_timer;
bool g_armed = false;

void on_tick(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "sampler.cpp reads the interrupted pc on x86-64 and aarch64 only"
#endif
  const std::size_t i = g_count.load(std::memory_order_relaxed);
  if (i < kMaxSamples) {
    g_samples[i] = pc;
    g_count.store(i + 1, std::memory_order_relaxed);
  }
}

/// The main executable's load bias: address - bias is the ELF vaddr that
/// addr2line expects, for PIE and non-PIE builds alike.
int first_object(dl_phdr_info* info, std::size_t, void* bias) {
  *static_cast<std::uintptr_t*>(bias) = info->dlpi_addr;
  return 1;  // the first object listed is the executable
}

struct Sampler {
  Sampler() {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_tick;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
    sigevent ev;
    std::memset(&ev, 0, sizeof ev);
    ev.sigev_notify = SIGEV_SIGNAL;
    ev.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &ev, &g_timer) != 0) return;
    itimerspec spec{{0, kIntervalNs}, {0, kIntervalNs}};
    g_armed = timer_settime(g_timer, 0, &spec, nullptr) == 0;
  }

  ~Sampler() {
    if (!g_armed) return;
    timer_delete(g_timer);
    signal(SIGPROF, SIG_IGN);
    std::uintptr_t bias = 0;
    dl_iterate_phdr(first_object, &bias);
    Dl_info self{};
    dladdr(reinterpret_cast<void*>(&first_object), &self);
    std::FILE* out = std::fopen("profile.samples", "a");
    if (out == nullptr) return;
    const std::size_t n = g_count.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) {
      Dl_info info{};
      const bool found = dladdr(reinterpret_cast<void*>(g_samples[i]), &info) != 0;
      if (found && info.dli_fbase != self.dli_fbase) {
        const char* name = std::strrchr(info.dli_fname, '/');
        std::fprintf(out, "lib %s %s\n", name != nullptr ? name + 1 : info.dli_fname,
                     info.dli_sname != nullptr ? info.dli_sname : "?");
      } else {
        std::fprintf(out, "exe 0x%lx\n", static_cast<unsigned long>(g_samples[i] - bias));
      }
    }
    std::fclose(out);
  }
};

Sampler g_sampler;

}  // namespace
