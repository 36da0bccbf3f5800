// Preloadable sampling profiler for hosts without `perf` (x86-64 Linux).
//
// Loaded with LD_PRELOAD (scripts/sample-profile does this), it gives every
// thread of the program (the one that loads it, and each one started with
// pthread_create afterwards) a CLOCK_MONOTONIC POSIX timer that sends it
// SIGPROF every 50 µs. The handler records the interrupted instruction
// pointer in a fixed buffer, unless the thread spent most of that interval
// blocked (its CPU clock advanced by less than half of it), so idle pool
// threads do not drown the profile in wait frames. At exit the samples are
// resolved against /proc/self/maps to (mapped file, address within that
// file), counted, and written to $SAMPLE_PROFILE_OUT.<pid> as
// tab-separated lines:
//
//   <count> <file> <address as addr2line takes it, hex>
//
// For a position-independent image the address is the sampled ip less the
// mapping's load base (start - file offset); for a fixed-address
// executable it is the ip itself. scripts/sample-profile symbolizes the
// lines with `addr2line -i`.
#include <dlfcn.h>
#include <pthread.h>
#include <signal.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

namespace {

constexpr long kIntervalNs = 50'000;           // 50 µs
constexpr std::size_t kMaxSamples = 1u << 22;  // 3.5 min of one thread

std::uintptr_t g_samples[kMaxSamples];  // pages are mapped as they fill
std::atomic<std::size_t> g_count{0};
std::atomic<bool> g_armed{false};
timer_t g_main_timer;
char g_out[4096];  ///< $SAMPLE_PROFILE_OUT, copied before main runs
/// The thread's CPU clock at its previous tick. Initial-exec TLS, so the
/// handler never calls into the dynamic loader.
__attribute__((tls_model("initial-exec"))) thread_local long long t_cpu_ns =
    -1;

long long thread_cpu_ns() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return now.tv_sec * 1'000'000'000LL + now.tv_nsec;
}

void on_sigprof(int, siginfo_t*, void* context) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  const int saved_errno = errno;
  const long long cpu = thread_cpu_ns();
  const bool ran = cpu - t_cpu_ns >= kIntervalNs / 2;
  t_cpu_ns = cpu;
  errno = saved_errno;
  if (!ran) return;
  const std::size_t i = g_count.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) return;
  const auto* uc = static_cast<const ucontext_t*>(context);
  g_samples[i] = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
}

/// Arms a 50 µs SIGPROF timer aimed at the calling thread.
bool arm_this_thread(timer_t* timer) {
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event.sigev_notify_thread_id = gettid();
  if (timer_create(CLOCK_MONOTONIC, &event, timer) != 0) return false;
  itimerspec spec{};
  spec.it_interval.tv_nsec = kIntervalNs;
  spec.it_value.tv_nsec = kIntervalNs;
  timer_settime(*timer, 0, &spec, nullptr);
  return true;
}

struct ThreadStart {
  void* (*routine)(void*);
  void* arg;
};

void* sampled_thread(void* start) {
  const ThreadStart s = *static_cast<ThreadStart*>(start);
  delete static_cast<ThreadStart*>(start);
  timer_t timer{};
  const bool armed = arm_this_thread(&timer);
  void* result = s.routine(s.arg);
  if (armed) timer_delete(timer);
  return result;
}

struct Mapping {
  std::uintptr_t start, end, offset;
  std::string file;
};

std::vector<Mapping> executable_mappings() {
  std::vector<Mapping> maps;
  FILE* f = std::fopen("/proc/self/maps", "r");
  if (!f) return maps;
  char line[4096];
  while (std::fgets(line, sizeof line, f)) {
    unsigned long start = 0, end = 0, offset = 0;
    char perms[8] = {};
    int path_at = 0;
    if (std::sscanf(line, "%lx-%lx %7s %lx %*s %*s %n", &start, &end, perms,
                    &offset, &path_at) < 4)
      continue;
    if (perms[2] != 'x') continue;
    std::string file = line + path_at;
    while (!file.empty() && (file.back() == '\n' || file.back() == ' '))
      file.pop_back();
    maps.push_back({start, end, offset, file.empty() ? "?" : file});
  }
  std::fclose(f);
  return maps;
}

/// True for a fixed-address executable (ELF e_type ET_EXEC).
bool fixed_address(const std::string& file) {
  FILE* f = std::fopen(file.c_str(), "rb");
  if (!f) return false;
  unsigned char header[18] = {};
  const std::size_t got = std::fread(header, 1, sizeof header, f);
  std::fclose(f);
  return got == sizeof header && header[16] == 2;
}

__attribute__((constructor)) void start_sampling() {
  const char* out = std::getenv("SAMPLE_PROFILE_OUT");
  if (!out) return;
  std::snprintf(g_out, sizeof g_out, "%s", out);
  struct sigaction action {};
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, nullptr) != 0) return;
  g_armed.store(true);
  if (!arm_this_thread(&g_main_timer)) g_armed.store(false);
}

__attribute__((destructor)) void write_samples() {
  if (!g_armed.exchange(false)) return;
  timer_delete(g_main_timer);
  const std::size_t n = std::min(g_count.load(), kMaxSamples);
  std::map<std::uintptr_t, std::uint64_t> by_ip;
  for (std::size_t i = 0; i < n; ++i) ++by_ip[g_samples[i]];

  const std::vector<Mapping> maps = executable_mappings();
  std::map<std::string, bool> fixed;  // per file
  const std::string path = std::string(g_out) + "." + std::to_string(getpid());
  FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return;
  for (const auto& [ip, count] : by_ip) {
    const auto m =
        std::find_if(maps.begin(), maps.end(), [ip](const Mapping& map) {
          return ip >= map.start && ip < map.end;
        });
    std::string file = "?";
    std::uintptr_t address = ip;
    if (m != maps.end()) {
      file = m->file;
      auto known = fixed.find(file);
      if (known == fixed.end())
        known = fixed.emplace(file, fixed_address(file)).first;
      if (!known->second) address = ip - m->start + m->offset;
    }
    std::fprintf(out, "%llu\t%s\t%lx\n",
                 static_cast<unsigned long long>(count), file.c_str(),
                 static_cast<unsigned long>(address));
  }
  std::fclose(out);
}

}  // namespace

/// Interposes pthread_create, so threads the program starts are sampled too.
extern "C" int pthread_create(pthread_t* thread, const pthread_attr_t* attr,
                              void* (*routine)(void*), void* arg) {
  using Create = int (*)(pthread_t*, const pthread_attr_t*, void* (*)(void*),
                         void*);
  static const auto create =
      reinterpret_cast<Create>(dlsym(RTLD_NEXT, "pthread_create"));
  if (!g_armed.load()) return create(thread, attr, routine, arg);
  auto* start = new ThreadStart{routine, arg};
  const int status = create(thread, attr, sampled_thread, start);
  if (status != 0) delete start;
  return status;
}
