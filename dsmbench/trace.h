// Host-side tracing for the benchmark driver, kept out of the library:
//
//  * SpanLog: spans recorded around the public pagedsm calls the driver
//    makes (and one per processor body), kept in memory and written out
//    as Chrome trace-event JSON when the run ends.
//  * Sampler: a SIGPROF sampler of the program counter of whichever
//    thread is consuming CPU time.
//  * Symbolizer: resolves a sampled program counter to a function symbol
//    of this executable (from its ELF symbol table) and maps the symbol to
//    the pagedsm module that defines it.  The library is optimised, so a
//    sample inside inlined code counts toward the function it was inlined
//    into.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace dsmbench {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // span that caused this one; 0 = none
  std::string name;
  std::string cell;  // cell label, empty outside a cell
  long tid = 0;      // OS thread id
  double start_us = 0;
  double dur_us = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}

  std::uint32_t NextId();
  // Thread-safe; processor bodies add their spans from their own threads.
  void Add(Span span);
  double MicrosSinceOrigin(std::chrono::steady_clock::time_point t) const;
  std::size_t size() const;
  // Chrome trace-event JSON ("X" events); false if the file cannot be
  // written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;  // guarded by mu_
  std::vector<Span> spans_;    // guarded by mu_
};

// Records a span from construction to destruction when `log` is non-null;
// does nothing otherwise, so untraced passes pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent,
             const std::string& cell);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint32_t parent_;
  std::string cell_;  // copied only when tracing
  std::uint32_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
};

long CurrentTid();

// Process-wide ITIMER_PROF sampler.  Only one may exist at a time;
// samples beyond the fixed capacity are dropped.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void Start(int interval_us);
  void Stop();
  // Program counters sampled so far (between Start/Stop pairs).
  std::vector<std::uintptr_t> Samples() const;

 private:
  std::vector<std::uintptr_t> buffer_;
};

// The modules host CPU samples are attributed to, in report order.
// "system" is every sample outside this executable's code (libc,
// libstdc++, the vDSO); "other" is code of this executable that belongs
// to none of the named modules (the driver, std:: templates, runtime
// glue).
extern const char* const kHostModules[];
extern const std::size_t kNumHostModules;

// Module index (into kHostModules) for a demangled function name.
std::size_t ModuleOfSymbol(const std::string& demangled);

class Symbolizer {
 public:
  // Loads the function symbols of the running executable from `exe_path`.
  // ok() is false when the file has no symbol table.
  explicit Symbolizer(const std::string& exe_path);

  bool ok() const { return !symbols_.empty(); }
  // Module index (into kHostModules) for a sampled program counter.
  std::size_t ModuleOf(std::uintptr_t pc) const;

 private:
  struct Symbol {
    std::uintptr_t begin = 0;  // run-time address
    std::uintptr_t end = 0;
    std::size_t module = 0;
  };
  std::vector<Symbol> symbols_;  // sorted by begin
  std::uintptr_t exe_begin_ = 0;  // run-time range of executable code
  std::uintptr_t exe_end_ = 0;
};

}  // namespace dsmbench
