#include "trace.h"

#include <cxxabi.h>
#include <elf.h>
#include <link.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <utility>

namespace dsmbench {

// --- spans -------------------------------------------------------------------

std::uint32_t SpanLog::NextId() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

void SpanLog::Add(Span span) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

double SpanLog::MicrosSinceOrigin(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

std::size_t SpanLog::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

namespace {

std::string JsonEscaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%ld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"cell\":\"%s\"}}%s\n",
                 JsonEscaped(s.name).c_str(), s.tid, s.start_us, s.dur_us,
                 s.id, s.parent, JsonEscaped(s.cell).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent,
                       const std::string& cell)
    : log_(log), name_(name), parent_(parent) {
  if (log_ == nullptr) return;
  cell_ = cell;
  id_ = log_->NextId();
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  const auto end = std::chrono::steady_clock::now();
  Span s;
  s.id = id_;
  s.parent = parent_;
  s.name = name_;
  s.cell = cell_;
  s.tid = CurrentTid();
  s.start_us = log_->MicrosSinceOrigin(start_);
  s.dur_us = std::chrono::duration<double, std::micro>(end - start_).count();
  log_->Add(std::move(s));
}

long CurrentTid() { return static_cast<long>(::syscall(SYS_gettid)); }

// --- sampler -----------------------------------------------------------------

namespace {

// Shared with the signal handler, which may only touch lock-free atomics
// and the preallocated buffer.
std::atomic<std::size_t> g_next{0};
std::uintptr_t* g_buffer = nullptr;
std::atomic<std::size_t> g_capacity{0};

void OnProfSignal(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
  const std::uintptr_t pc = 0;  // unknown architecture: counted as system
#endif
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_capacity.load(std::memory_order_relaxed)) g_buffer[i] = pc;
}

void SetTimer(int interval_us) {
  itimerval timer{};
  timer.it_interval.tv_sec = interval_us / 1000000;
  timer.it_interval.tv_usec = interval_us % 1000000;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

Sampler::Sampler(std::size_t capacity) : buffer_(capacity, 0) {
  g_next.store(0);
  g_buffer = buffer_.data();
  g_capacity.store(capacity);
  struct sigaction sa {};
  sa.sa_sigaction = OnProfSignal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
}

Sampler::~Sampler() {
  SetTimer(0);
  // A signal already pending must not find the default action, which
  // terminates the process, nor a freed buffer.
  signal(SIGPROF, SIG_IGN);
  g_capacity.store(0);
  g_buffer = nullptr;
}

void Sampler::Start(int interval_us) { SetTimer(interval_us); }

void Sampler::Stop() { SetTimer(0); }

std::vector<std::uintptr_t> Sampler::Samples() const {
  const std::size_t n =
      std::min(g_next.load(std::memory_order_acquire), buffer_.size());
  return {buffer_.begin(), buffer_.begin() + static_cast<long>(n)};
}

// --- symbols and modules -----------------------------------------------------

const char* const kHostModules[] = {
    "apps",          "mem.diff",  "mem.word_tracker",  "mem.page_table",
    "core.protocol", "core.gc",   "core.sync",         "core.vector_clock",
    "system",        "other",
};
const std::size_t kNumHostModules = std::size(kHostModules);

namespace {

constexpr std::size_t kSystemModule = 8;
constexpr std::size_t kOtherModule = 9;

// Qualified-name prefixes per module.  Several can occur in one demangled
// name (a template argument, a return type); the one that starts earliest
// names the function itself.  "std::" and "__gnu_cxx::" map to other so
// that a library template instantiated over a pagedsm type is not
// credited to that type's module.
const std::pair<const char*, std::size_t> kModulePrefixes[] = {
    {"dsm::apps::", 0},
    {"dsm::Diff::", 1},
    {"dsm::WordTracker::", 2},
    {"dsm::PageTable::", 3},
    {"dsm::CanonicalStore::", 3},
    {"dsm::Node::Gc", 5},
    {"dsm::FlattenedChain::", 5},
    {"dsm::Node::", 4},
    {"dsm::Proc::", 4},
    {"dsm::IntervalArchive::", 4},
    {"dsm::IntervalRecord::", 4},
    {"dsm::ArchiveTelemetry::", 4},
    {"dsm::DynamicAggregator::", 4},
    {"dsm::CommStats::", 4},
    {"dsm::SharerDirectory::", 4},
    {"dsm::BarrierService::", 6},
    {"dsm::LockService::", 6},
    {"dsm::VectorClock::", 7},
    {"std::", kOtherModule},
    {"__gnu_cxx::", kOtherModule},
};

}  // namespace

std::size_t ModuleOfSymbol(const std::string& demangled) {
  std::size_t best_pos = std::string::npos;
  std::size_t module = kOtherModule;
  for (const auto& [prefix, m] : kModulePrefixes) {
    const std::size_t pos = demangled.find(prefix);
    // Strictly earlier wins; at equal positions the first listed (more
    // specific) prefix wins, e.g. dsm::Node::Gc over dsm::Node::.
    if (pos != std::string::npos &&
        (best_pos == std::string::npos || pos < best_pos)) {
      best_pos = pos;
      module = m;
    }
  }
  return module;
}

namespace {

std::string Demangle(const char* name) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> out(
      abi::__cxa_demangle(name, nullptr, nullptr, &status), std::free);
  return status == 0 && out != nullptr ? std::string(out.get())
                                       : std::string(name);
}

struct ExeLayout {
  std::uintptr_t bias = 0;
  std::uintptr_t code_begin = 0;
  std::uintptr_t code_end = 0;
};

int FindMainProgram(dl_phdr_info* info, std::size_t /*size*/, void* data) {
  // The first object reported is the main program.
  auto* layout = static_cast<ExeLayout*>(data);
  layout->bias = info->dlpi_addr;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD || (ph.p_flags & PF_X) == 0) continue;
    const std::uintptr_t begin = info->dlpi_addr + ph.p_vaddr;
    const std::uintptr_t end = begin + ph.p_memsz;
    if (layout->code_begin == 0 || begin < layout->code_begin) {
      layout->code_begin = begin;
    }
    layout->code_end = std::max(layout->code_end, end);
  }
  return 1;  // stop after the main program
}

}  // namespace

Symbolizer::Symbolizer(const std::string& exe_path) {
  ExeLayout layout;
  dl_iterate_phdr(FindMainProgram, &layout);
  exe_begin_ = layout.code_begin;
  exe_end_ = layout.code_end;

  std::ifstream in(exe_path, std::ios::binary);
  const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (image.size() < sizeof(Elf64_Ehdr)) return;
  Elf64_Ehdr eh;
  std::memcpy(&eh, image.data(), sizeof(eh));
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shentsize != sizeof(Elf64_Shdr) ||
      eh.e_shoff + std::uint64_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          image.size()) {
    return;
  }
  auto section = [&](std::size_t i) {
    Elf64_Shdr sh;
    std::memcpy(&sh, image.data() + eh.e_shoff + i * sizeof(Elf64_Shdr),
                sizeof(sh));
    return sh;
  };
  for (std::size_t i = 0; i < eh.e_shnum; ++i) {
    const Elf64_Shdr symtab = section(i);
    if (symtab.sh_type != SHT_SYMTAB || symtab.sh_link >= eh.e_shnum) continue;
    const Elf64_Shdr strtab = section(symtab.sh_link);
    if (symtab.sh_offset + symtab.sh_size > image.size() ||
        strtab.sh_offset + strtab.sh_size > image.size()) {
      return;
    }
    const std::size_t count = symtab.sh_size / sizeof(Elf64_Sym);
    for (std::size_t k = 0; k < count; ++k) {
      Elf64_Sym sym;
      std::memcpy(&sym,
                  image.data() + symtab.sh_offset + k * sizeof(Elf64_Sym),
                  sizeof(sym));
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
          sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.sh_size) {
        continue;
      }
      const char* name = image.data() + strtab.sh_offset + sym.st_name;
      const std::uintptr_t begin = layout.bias + sym.st_value;
      symbols_.push_back(
          {begin, begin + sym.st_size, ModuleOfSymbol(Demangle(name))});
    }
  }
  std::sort(symbols_.begin(), symbols_.end(),
            [](const Symbol& a, const Symbol& b) { return a.begin < b.begin; });
}

std::size_t Symbolizer::ModuleOf(std::uintptr_t pc) const {
  if (pc < exe_begin_ || pc >= exe_end_) return kSystemModule;
  auto it = std::upper_bound(
      symbols_.begin(), symbols_.end(), pc,
      [](std::uintptr_t v, const Symbol& s) { return v < s.begin; });
  if (it == symbols_.begin()) return kOtherModule;
  --it;
  return pc < it->end ? it->module : kOtherModule;
}

}  // namespace dsmbench
