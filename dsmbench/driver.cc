// dsmbench: the pagedsm benchmark driver.
//
//   dsmbench --workload <paper-lrc|paper-hlrc|kv-hot> --seed <n>
//            --seconds <s> --trace <0|1>
//
// One process, one calling thread.  A run builds every cell of the
// workload once cold (the set-up measurement and the warm-up), runs the
// Reference backend once per distinct program as the output oracle, checks
// the warm-up outputs and then its own checks (self-test), and measures
// whole passes over the cells, in a seed-shuffled order, until --seconds
// have passed.  Every pass is checked.  The last line of standard output is
// one JSON object with the metrics; --trace 1 reports the per-layer
// metrics instead of the end-to-end ones.  README.md describes the
// workloads, metrics and checks.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "apps/registry.h"
#include "common/rng.h"
#include "core/runtime.h"
#include "trace.h"

namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main: the earliest point of
// the process this program can time.
const Clock::time_point kProcessStart = Clock::now();

constexpr double kMB = 1e6;
constexpr double kNanosPerSecond = 1e9;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

rusage Usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

// --- workloads ---------------------------------------------------------------

struct Cell {
  std::string app;
  std::string dataset;
  dsm::BackendKind backend;
  dsm::AggregationMode aggregation;
  int pages_per_unit;
  int procs;  // at most 8: above that apps::Execute grows the heap
};

// The RuntimeConfig of a cell, with the heap sized the way apps::Execute
// sizes it: the application's request rounded up to whole units.
dsm::RuntimeConfig ConfigFor(const Cell& c, std::size_t app_heap_bytes) {
  dsm::RuntimeConfig cfg;
  cfg.num_procs = c.procs;
  cfg.backend = c.backend;
  cfg.aggregation = c.aggregation;
  cfg.pages_per_unit = c.pages_per_unit;
  const std::size_t unit = cfg.unit_bytes();
  cfg.heap_bytes = (app_heap_bytes + unit - 1) / unit * unit;
  return cfg;
}

std::string Label(const Cell& c) {
  const dsm::RuntimeConfig cfg = ConfigFor(c, 0);
  return c.app + "/" + c.dataset + "/" + cfg.UnitLabel() + "/" +
         cfg.BackendLabel() + "/" + std::to_string(c.procs) + "p";
}

// The paper's barrier-synchronised suite (Figure 2 datasets plus Barnes and
// ILINK of Figure 1) at its 8 processors, at 4 KB and 16 KB static units
// and with dynamic aggregation.  Water and TSP are left out: their modelled
// state follows host lock-grant order.
std::vector<Cell> PaperCells(dsm::BackendKind backend) {
  const std::pair<const char*, const char*> programs[] = {
      {"Jacobi", "1Kx1K"},   {"MGS", "1Kx1K"},   {"3D-FFT", "64x64x32"},
      {"Shallow", "1Kx0.5K"}, {"Barnes", "16K"}, {"ILINK", "CLP"},
  };
  std::vector<Cell> cells;
  for (const auto& [app, dataset] : programs) {
    cells.push_back({app, dataset, backend, dsm::AggregationMode::kStatic, 1, 8});
    cells.push_back({app, dataset, backend, dsm::AggregationMode::kStatic, 4, 8});
    cells.push_back({app, dataset, backend, dsm::AggregationMode::kDynamic, 1, 8});
  }
  return cells;
}

std::vector<Cell> WorkloadCells(const std::string& name) {
  if (name == "paper-lrc") return PaperCells(dsm::BackendKind::kLrc);
  if (name == "paper-hlrc") return PaperCells(dsm::BackendKind::kHlrc);
  if (name == "kv-hot") {
    // Lock-contended request traffic.  HLRC at 4 processors is the KV
    // cell whose modelled state repeats best (README.md, "Cells left
    // out").
    return {{"KV", "hot", dsm::BackendKind::kHlrc,
             dsm::AggregationMode::kStatic, 1, 4}};
  }
  return {};
}

// --- one cell ----------------------------------------------------------------

struct CellRun {
  double make_app_s = 0;   // apps::MakeApp
  double runtime_s = 0;    // Runtime construction
  double app_setup_s = 0;  // Application::Setup
  double run_s = 0;        // Runtime::Run, wall clock
  double run_user_s = 0;
  double run_sys_s = 0;
  double ctx_switches = 0;
  double collect_s = 0;  // Runtime::CollectStats
  // Traced passes only: processor bodies' thread CPU time and the rest of
  // their wall time, summed over processors.
  double body_cpu_s = 0;
  double body_blocked_s = 0;
  dsm::RunStats stats;
  double result = 0;

  double setup_s() const { return make_app_s + runtime_s + app_setup_s; }
};

CellRun RunCell(const Cell& cell, dsmbench::SpanLog* spans, bool time_bodies,
                std::uint32_t parent) {
  const std::string label = Label(cell);
  dsmbench::ScopedSpan cell_span(spans, "cell", parent, label);
  CellRun r;

  auto t0 = Clock::now();
  std::unique_ptr<dsm::apps::Application> app;
  {
    dsmbench::ScopedSpan s(spans, "apps::MakeApp", cell_span.id(), label);
    app = dsm::apps::MakeApp(cell.app, cell.dataset);
  }
  auto t1 = Clock::now();
  std::unique_ptr<dsm::Runtime> rt;
  {
    dsmbench::ScopedSpan s(spans, "Runtime::Runtime", cell_span.id(), label);
    rt = std::make_unique<dsm::Runtime>(ConfigFor(cell, app->heap_bytes()));
  }
  auto t2 = Clock::now();
  {
    dsmbench::ScopedSpan s(spans, "Application::Setup", cell_span.id(), label);
    app->Setup(*rt);
  }
  auto t3 = Clock::now();
  r.make_app_s = Seconds(t1 - t0);
  r.runtime_s = Seconds(t2 - t1);
  r.app_setup_s = Seconds(t3 - t2);

  std::vector<double> body_wall(static_cast<std::size_t>(cell.procs), 0.0);
  std::vector<double> body_cpu(static_cast<std::size_t>(cell.procs), 0.0);
  {
    dsmbench::ScopedSpan run_span(spans, "Runtime::Run", cell_span.id(), label);
    const std::uint32_t run_id = run_span.id();
    const rusage u0 = Usage();
    t0 = Clock::now();
    if (time_bodies) {
      // Each slot is written by its own processor's thread; Run joins
      // them all before the slots are read.
      rt->Run([&](dsm::Proc& p) {
        dsmbench::ScopedSpan s(spans, "Application::Body", run_id, label);
        const auto w0 = Clock::now();
        const double c0 = ThreadCpuSeconds();
        app->Body(p);
        body_cpu[static_cast<std::size_t>(p.id())] = ThreadCpuSeconds() - c0;
        body_wall[static_cast<std::size_t>(p.id())] = Seconds(Clock::now() - w0);
      });
    } else {
      rt->Run([&](dsm::Proc& p) { app->Body(p); });
    }
    t1 = Clock::now();
    const rusage u1 = Usage();
    r.run_s = Seconds(t1 - t0);
    r.run_user_s = TimevalSeconds(u1.ru_utime) - TimevalSeconds(u0.ru_utime);
    r.run_sys_s = TimevalSeconds(u1.ru_stime) - TimevalSeconds(u0.ru_stime);
    r.ctx_switches = static_cast<double>((u1.ru_nvcsw + u1.ru_nivcsw) -
                                         (u0.ru_nvcsw + u0.ru_nivcsw));
  }
  for (std::size_t p = 0; p < body_wall.size(); ++p) {
    r.body_cpu_s += body_cpu[p];
    r.body_blocked_s += std::max(0.0, body_wall[p] - body_cpu[p]);
  }
  {
    dsmbench::ScopedSpan s(spans, "Runtime::CollectStats", cell_span.id(),
                           label);
    t0 = Clock::now();
    r.stats = rt->CollectStats();
    r.collect_s = Seconds(Clock::now() - t0);
  }
  {
    dsmbench::ScopedSpan s(spans, "Application::result", cell_span.id(), label);
    r.result = app->result();
  }
  return r;
}

// The output oracle: the same program, dataset and processor count on the
// Reference backend (one sequentially consistent image, no diffs or
// notices).
double ReferenceResult(const Cell& c, dsmbench::SpanLog* spans) {
  dsmbench::ScopedSpan s(spans, "apps::Execute(Reference)", 0,
                         c.app + "/" + c.dataset);
  auto app = dsm::apps::MakeApp(c.app, c.dataset);
  dsm::RuntimeConfig cfg;
  cfg.num_procs = c.procs;
  cfg.backend = dsm::BackendKind::kReference;
  return dsm::apps::Execute(*app, cfg).result;
}

// --- output checks -----------------------------------------------------------

enum : unsigned {
  kResultMatchesReference = 1u << 0,
  kDataTalliesAgree = 1u << 1,     // classified bytes == applied bytes
  kMessageTalliesAgree = 1u << 2,  // wire messages == protocol messages
  kHlrcDataFromHomes = 1u << 3,    // fetched bytes == applied, no diff requests
  kLrcNoHomeTraffic = 1u << 4,
};
const char* const kCheckNames[] = {
    "result == Reference result (bitwise)",
    "comm.total_data_bytes() == comm.delivered_data_bytes",
    "net.total_messages() == comm.total_messages()",
    "HLRC: home_fetch_bytes == delivered_data_bytes, no diff requests",
    "LRC: no home traffic",
};

// Bit mask of the checks a cell's outputs fail under `backend`.
unsigned FailedChecks(dsm::BackendKind backend, double result,
                      double reference, const dsm::RunStats& s) {
  unsigned failed = 0;
  if (std::bit_cast<std::uint64_t>(result) !=
      std::bit_cast<std::uint64_t>(reference)) {
    failed |= kResultMatchesReference;
  }
  if (s.comm.total_data_bytes() != s.comm.delivered_data_bytes) {
    failed |= kDataTalliesAgree;
  }
  if (s.net.total_messages() != s.comm.total_messages()) {
    failed |= kMessageTalliesAgree;
  }
  if (backend == dsm::BackendKind::kHlrc &&
      (s.comm.home_fetch_bytes != s.comm.delivered_data_bytes ||
       s.net.messages(dsm::MessageKind::kDiffRequest) != 0)) {
    failed |= kHlrcDataFromHomes;
  }
  if (backend == dsm::BackendKind::kLrc) {
    std::uint64_t home = s.comm.home_flush_messages + s.comm.home_flushes +
                         s.comm.home_flush_bytes + s.comm.home_fetches +
                         s.comm.home_fetch_bytes;
    for (std::size_t k = dsm::kFirstHomeMessageKind; k < dsm::kNumMessageKinds;
         ++k) {
      home += s.net.messages(static_cast<dsm::MessageKind>(k));
    }
    if (home != 0) failed |= kLrcNoHomeTraffic;
  }
  return failed;
}

void ReportFailure(const std::string& what, unsigned failed) {
  for (std::size_t i = 0; i < std::size(kCheckNames); ++i) {
    if ((failed & (1u << i)) != 0) {
      std::fprintf(stderr, "dsmbench: %s fails: %s\n", what.c_str(),
                   kCheckNames[i]);
    }
  }
}

// Shows that every check can fail: each mutation of a checked cell's
// outputs must trip its check.  Returns how many mutations went unnoticed.
int SelfTest(const Cell& cell, const CellRun& run, double reference,
             const std::vector<double>& other_references) {
  struct Mutation {
    const char* what;
    unsigned expect;
    dsm::BackendKind judge_as;
    double result;
    dsm::RunStats stats;
  };
  std::vector<Mutation> mutations;
  auto add = [&](const char* what, unsigned expect) -> Mutation& {
    mutations.push_back({what, expect, cell.backend, run.result, run.stats});
    return mutations.back();
  };
  add("result off by one bit", kResultMatchesReference).result =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(run.result) ^ 1u);
  for (const double other : other_references) {
    if (std::bit_cast<std::uint64_t>(other) !=
        std::bit_cast<std::uint64_t>(reference)) {
      add("result of another program", kResultMatchesReference).result = other;
      break;
    }
  }
  add("one applied word not classified", kDataTalliesAgree)
      .stats.comm.delivered_data_bytes += 4;
  add("one classified word never applied", kDataTalliesAgree)
      .stats.comm.useless_msg_data_bytes += 4;
  add("one wire message the protocol did not send", kMessageTalliesAgree)
      .stats.net.Record(dsm::MessageKind::kBarrierArrival, 0);
  add("one protocol message missing from the wire", kMessageTalliesAgree)
      .stats.comm.sync_messages += 1;
  // The other backend's statistics: judge this cell's stats by the rules
  // of the backend it did not run.
  if (cell.backend == dsm::BackendKind::kLrc) {
    add("LRC statistics judged as HLRC", kHlrcDataFromHomes).judge_as =
        dsm::BackendKind::kHlrc;
    add("one home flush under LRC", kLrcNoHomeTraffic).stats.comm.home_flushes +=
        1;
  } else {
    add("HLRC statistics judged as LRC", kLrcNoHomeTraffic).judge_as =
        dsm::BackendKind::kLrc;
    auto& m = add("one diff request under HLRC", kHlrcDataFromHomes);
    m.stats.net.Record(dsm::MessageKind::kDiffRequest, 0);
    m.stats.comm.sync_messages += 1;  // keep the message tallies equal
  }

  int missed = 0;
  for (const Mutation& m : mutations) {
    const unsigned failed =
        FailedChecks(m.judge_as, m.result, reference, m.stats);
    if ((failed & m.expect) == 0) {
      std::fprintf(stderr, "dsmbench: self-test: check missed \"%s\"\n", m.what);
      ++missed;
    }
  }
  std::fprintf(stderr, "dsmbench: self-test: %zu of %zu mutations detected\n",
               mutations.size() - static_cast<std::size_t>(missed),
               mutations.size());
  return missed;
}

// --- metrics -----------------------------------------------------------------

using Sums = std::map<std::string, double>;

void AddCell(Sums& m, const CellRun& r) {
  const dsm::RunStats& s = r.stats;
  const dsm::CommBreakdown& c = s.comm;
  const dsm::NetStats& n = s.net;
  using K = dsm::MessageKind;

  m["host_s"] += r.run_s;
  m["host_cpu_s"] += r.run_user_s + r.run_sys_s;
  m["modelled_s"] += static_cast<double>(s.exec_time) / kNanosPerSecond;
  m["messages"] += static_cast<double>(n.total_messages());
  m["data_mb"] += static_cast<double>(n.total_bytes()) / kMB;

  m["run.user_cpu_s"] += r.run_user_s;
  m["run.sys_cpu_s"] += r.run_sys_s;
  m["run.ctx_switches"] += r.ctx_switches;
  m["proc.body_cpu_s"] += r.body_cpu_s;
  m["proc.body_blocked_s"] += r.body_blocked_s;
  m["stats.collect_s"] += r.collect_s;

  m["protocol.read_faults"] += static_cast<double>(c.read_faults);
  m["protocol.write_faults"] += static_cast<double>(c.write_faults);
  m["protocol.twins_created"] += static_cast<double>(c.twins_created);
  m["protocol.diffs_created"] += static_cast<double>(c.diffs_created);
  m["protocol.diffs_applied"] += static_cast<double>(c.diffs_applied);
  m["protocol.units_invalidated"] += static_cast<double>(c.units_invalidated);

  m["comm.useful_messages"] += static_cast<double>(c.useful_messages);
  m["comm.useless_messages"] += static_cast<double>(c.useless_messages);
  m["comm.useful_data_mb"] += static_cast<double>(c.useful_data_bytes) / kMB;
  m["comm.useless_data_mb"] += static_cast<double>(c.useless_data_bytes()) / kMB;
  // Signature bucket k counts the exchanges of faults that contacted k
  // writers, k per fault.
  double multi_writer_faults = 0;
  for (std::size_t k = 2; k < c.signature.num_buckets(); ++k) {
    multi_writer_faults += static_cast<double>(c.signature.total(k) / k);
  }
  m["comm.multi_writer_faults"] += multi_writer_faults;
  m["aggregation.group_prefetch_units"] +=
      static_cast<double>(c.group_prefetch_units);

  m["hlrc.home_flushes"] += static_cast<double>(c.home_flushes);
  m["hlrc.home_flush_mb"] += static_cast<double>(c.home_flush_bytes) / kMB;
  m["hlrc.home_fetches"] += static_cast<double>(c.home_fetches);
  m["hlrc.home_fetch_mb"] += static_cast<double>(c.home_fetch_bytes) / kMB;

  m["gc.passes"] += static_cast<double>(s.mem.gc_passes);
  m["gc.peak_archive_mb"] += static_cast<double>(s.mem.peak_archive_bytes) / kMB;
  m["gc.peak_live_intervals"] += static_cast<double>(s.mem.peak_live_intervals);
  m["gc.chains_built"] += static_cast<double>(s.mem.chains_built);
  m["gc.chains_shared"] += static_cast<double>(s.mem.chains_shared);

  m["net.diff_mb"] +=
      static_cast<double>(n.bytes(K::kDiffRequest) + n.bytes(K::kDiffResponse)) /
      kMB;
  m["net.home_mb"] += static_cast<double>(
                          n.bytes(K::kHomeFlush) + n.bytes(K::kHomeFlushAck) +
                          n.bytes(K::kHomeFetch) + n.bytes(K::kHomeFetchReply)) /
                      kMB;
  m["net.lock_messages"] +=
      static_cast<double>(n.messages(K::kLockRequest) + n.messages(K::kLockGrant));
  m["net.barrier_messages"] += static_cast<double>(
      n.messages(K::kBarrierArrival) + n.messages(K::kBarrierRelease));

  const auto [lo, hi] =
      std::minmax_element(s.node_times.begin(), s.node_times.end());
  m["sim.node_spread_s"] += static_cast<double>(*hi - *lo) / kNanosPerSecond;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median over passes of each per-pass sum.
Sums Medians(const std::vector<Sums>& passes) {
  Sums out;
  for (const auto& [name, unused] : passes.front()) {
    std::vector<double> v;
    for (const Sums& p : passes) v.push_back(p.at(name));
    out[name] = Median(v);
  }
  return out;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported with --trace 0.  sim_s is simulated (modelled) seconds.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"host_s", "s"},    {"host_cpu_s", "s"},
    {"peak_rss_mb", "MB"},  {"modelled_s", "sim_s"},
    {"messages", "count"},  {"data_mb", "MB"},
};

// Reported with --trace 1.
constexpr MetricSpec kPerLayer[] = {
    {"run.user_cpu_s", "s"},
    {"run.sys_cpu_s", "s"},
    {"run.ctx_switches", "count"},
    {"proc.body_cpu_s", "s"},
    {"proc.body_blocked_s", "s"},
    {"stats.collect_s", "s"},
    {"setup.app_s", "s"},
    {"setup.runtime_s", "s"},
    {"protocol.read_faults", "count"},
    {"protocol.write_faults", "count"},
    {"protocol.twins_created", "count"},
    {"protocol.diffs_created", "count"},
    {"protocol.diffs_applied", "count"},
    {"protocol.units_invalidated", "count"},
    {"comm.useful_messages", "count"},
    {"comm.useless_messages", "count"},
    {"comm.useful_data_mb", "MB"},
    {"comm.useless_data_mb", "MB"},
    {"comm.multi_writer_faults", "count"},
    {"aggregation.group_prefetch_units", "count"},
    {"hlrc.home_flushes", "count"},
    {"hlrc.home_flush_mb", "MB"},
    {"hlrc.home_fetches", "count"},
    {"hlrc.home_fetch_mb", "MB"},
    {"gc.passes", "count"},
    {"gc.peak_archive_mb", "MB"},
    {"gc.peak_live_intervals", "count"},
    {"gc.chains_built", "count"},
    {"gc.chains_shared", "count"},
    {"net.diff_mb", "MB"},
    {"net.home_mb", "MB"},
    {"net.lock_messages", "count"},
    {"net.barrier_messages", "count"},
    {"sim.node_spread_s", "sim_s"},
    {"host.apps_s", "s"},
    {"host.mem.diff_s", "s"},
    {"host.mem.word_tracker_s", "s"},
    {"host.mem.page_table_s", "s"},
    {"host.core.protocol_s", "s"},
    {"host.core.gc_s", "s"},
    {"host.core.sync_s", "s"},
    {"host.core.vector_clock_s", "s"},
    {"host.system_s", "s"},
    {"host.other_s", "s"},
    {"trace.samples", "count"},
    {"trace.host_s", "s"},
    {"trace.untraced_host_s", "s"},
};

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseUnsigned(const char* s, std::uint64_t* out) {
  if (*s == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || s[0] == '-') return false;
  *out = v;
  return true;
}

bool Parse(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &v)) {
      a->seed = v;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &v) && v >= 1 &&
               v <= 3600) {
      a->seconds = static_cast<double>(v);
    } else if (flag == "--trace" && ParseUnsigned(value, &v) && v <= 1) {
      a->trace = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return !a->workload.empty() && have_seed && a->seconds > 0 && a->trace >= 0;
}

// A seeded cell order for one pass.
std::vector<std::size_t> Permutation(dsm::Xoshiro256& rng, std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  return order;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper-lrc|paper-hlrc|kv-hot> --seed <n>"
                 " --seconds <s> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  const std::vector<Cell> cells = WorkloadCells(args.workload);
  if (cells.empty()) {
    std::fprintf(stderr, "dsmbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = args.trace == 1;
  std::unique_ptr<dsmbench::SpanLog> spans;
  if (traced) spans = std::make_unique<dsmbench::SpanLog>(kProcessStart);

  dsm::Xoshiro256 rng(args.seed);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> references;  // by app/dataset/procs
  auto ref_key = [](const Cell& c) {
    return c.app + "/" + c.dataset + "/" + std::to_string(c.procs);
  };
  auto check_pass = [&](const std::vector<CellRun>& runs) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const unsigned bad = FailedChecks(cells[i].backend, runs[i].result,
                                        references.at(ref_key(cells[i])),
                                        runs[i].stats);
      attempted += 1;
      if (bad != 0) {
        failed += 1;
        ReportFailure(Label(cells[i]), bad);
      }
    }
  };
  // One pass over every cell, in `order`; runs[i] is cells[i].
  auto run_pass = [&](const std::vector<std::size_t>& order,
                      dsmbench::SpanLog* log, bool time_bodies) {
    dsmbench::ScopedSpan pass_span(log, "pass", 0, std::string());
    std::vector<CellRun> runs(cells.size());
    for (const std::size_t i : order) {
      runs[i] = RunCell(cells[i], log, time_bodies, pass_span.id());
    }
    return runs;
  };

  // Cold pass: the first set-up of every cell in this process, and the
  // warm-up (the first pass of a process runs up to 2x slower).  It runs
  // the cells in workload order, so that what a set-up inherits from the
  // set-ups and runs before it (allocator state, page faults) does not
  // depend on the seed.
  std::vector<std::size_t> workload_order(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) workload_order[i] = i;
  const double startup_s = Seconds(Clock::now() - kProcessStart);
  const std::vector<CellRun> cold =
      run_pass(workload_order, spans.get(), false);
  double setup_s = startup_s;
  double setup_app_s = 0;
  double setup_runtime_s = 0;
  for (const CellRun& r : cold) {
    setup_s += r.setup_s();
    setup_app_s += r.make_app_s + r.app_setup_s;
    setup_runtime_s += r.runtime_s;
  }

  for (const Cell& c : cells) {
    if (references.count(ref_key(c)) == 0) {
      references[ref_key(c)] = ReferenceResult(c, spans.get());
    }
  }
  check_pass(cold);
  std::vector<double> reference_values;
  for (const auto& [key, value] : references) reference_values.push_back(value);
  const int self_test_missed =
      SelfTest(cells[0], cold[0], references.at(ref_key(cells[0])),
               reference_values);

  // Measured passes.  A traced run alternates traced and untraced passes
  // so that the tracing overhead is measured in the same process.
  std::unique_ptr<dsmbench::Sampler> sampler;
  if (traced) sampler = std::make_unique<dsmbench::Sampler>(std::size_t{1} << 21);
  std::vector<Sums> passes;
  std::vector<Sums> untraced_passes;
  double traced_cpu_s = 0;
  const auto measure_start = Clock::now();
  const std::size_t min_passes = traced ? 2 : 1;
  while (passes.size() + untraced_passes.size() < min_passes ||
         Seconds(Clock::now() - measure_start) < args.seconds) {
    const bool trace_this = traced && passes.size() <= untraced_passes.size();
    const rusage u0 = Usage();
    if (trace_this) sampler->Start(1000);
    const std::vector<CellRun> runs =
        run_pass(Permutation(rng, cells.size()),
                 trace_this ? spans.get() : nullptr, trace_this);
    if (trace_this) sampler->Stop();
    const rusage u1 = Usage();
    check_pass(runs);
    Sums sums;
    for (const CellRun& r : runs) AddCell(sums, r);
    std::fprintf(stderr,
                 "dsmbench: pass %zu%s: host_s %.4f host_cpu_s %.4f "
                 "modelled_s %.6f messages %.0f\n",
                 passes.size() + untraced_passes.size(),
                 trace_this ? " (traced)" : "", sums["host_s"],
                 sums["host_cpu_s"], sums["modelled_s"], sums["messages"]);
    if (traced && !trace_this) {
      untraced_passes.push_back(std::move(sums));
    } else {
      passes.push_back(std::move(sums));
    }
    if (trace_this) {
      traced_cpu_s += TimevalSeconds(u1.ru_utime) + TimevalSeconds(u1.ru_stime) -
                      TimevalSeconds(u0.ru_utime) - TimevalSeconds(u0.ru_stime);
    }
  }

  Sums values = Medians(passes);
  values["setup_s"] = setup_s;
  values["setup.app_s"] = setup_app_s;
  values["setup.runtime_s"] = setup_runtime_s;
  values["peak_rss_mb"] = static_cast<double>(Usage().ru_maxrss) * 1024 / kMB;
  if (traced) {
    // Host CPU per module: each module's share of the samples times the
    // CPU time the traced passes used, per traced pass.
    const std::vector<std::uintptr_t> pcs = sampler->Samples();
    sampler.reset();
    const dsmbench::Symbolizer symbols(argv[0]);
    if (!symbols.ok()) {
      std::fprintf(stderr, "dsmbench: no symbol table in %s\n", argv[0]);
    }
    std::vector<double> per_module(dsmbench::kNumHostModules, 0.0);
    for (const std::uintptr_t pc : pcs) per_module[symbols.ModuleOf(pc)] += 1;
    const double scale =
        pcs.empty() ? 0.0
                    : traced_cpu_s / static_cast<double>(pcs.size()) /
                          static_cast<double>(passes.size());
    for (std::size_t m = 0; m < dsmbench::kNumHostModules; ++m) {
      values[std::string("host.") + dsmbench::kHostModules[m] + "_s"] =
          per_module[m] * scale;
    }
    values["trace.samples"] = static_cast<double>(pcs.size());
    values["trace.host_s"] = values.at("host_s");
    values["trace.untraced_host_s"] = Medians(untraced_passes).at("host_s");

    const std::filesystem::path dir = ".bench_out";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (args.workload + "-seed" +
                                     std::to_string(args.seed) + ".trace.json"))
                                 .string();
    if (!spans->WriteChromeTrace(path)) {
      std::fprintf(stderr, "dsmbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "dsmbench: %zu spans written to %s\n", spans->size(),
                 path.c_str());
  }

  std::fprintf(stderr,
               "dsmbench: %s seed %llu: %zu measured passes of %zu cells, "
               "%llu of %llu cells failed\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               passes.size() + untraced_passes.size(), cells.size(),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted));
  const bool correct = failed == 0 && self_test_missed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const char* sep = "";
  for (const MetricSpec& m : traced ? std::span<const MetricSpec>(kPerLayer)
                                    : std::span<const MetricSpec>(kEndToEnd)) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", sep, m.name,
                values.at(m.name), m.unit);
    sep = ", ";
  }
  std::printf("}}\n");
  return 0;
}
