// perfbench runner: runs one workload against the library's public APIs
// and writes what it measured (ops, spans, counters) for stats.py.
//
//   perfbench_runner --workload <field_bulk|tenant_mix|archive_rw>
//       --seed N --seconds S --trace 0|1 --out result.json
//       [--trace-out trace.json] [--work-dir DIR] [--setups K]
//       [--pair-rounds R]
//
// The pool size comes from CUSZP2_WORKERS, which perfbench/run.py sets per
// workload. Exit status: 0 when every output check passed, 1 when any
// failed, 2 on a usage error.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string num(f64 v) {
  char buf[40];
  if (!std::isfinite(v)) return "null";  // JSON has no inf or nan
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool writeFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

namespace {

f64 clockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<f64>(ts.tv_sec) * 1e6 +
         static_cast<f64>(ts.tv_nsec) * 1e-3;
}

}  // namespace

f64 Recorder::cpuUs() { return clockUs(CLOCK_PROCESS_CPUTIME_ID); }

f64 Recorder::threadCpuUs() { return clockUs(CLOCK_THREAD_CPUTIME_ID); }

f64 peakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool Recorder::writeResult(const std::string& path, const Options& opt,
                           const std::vector<f64>& setupSeconds,
                           const std::vector<f64>& setupCpuSeconds,
                           f64 windowSeconds) const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"workload\": " + quoted(opt.workload) +
                    ", \"seed\": " + std::to_string(opt.seed) +
                    ", \"traced\": " + (opt.trace ? "true" : "false") +
                    ", \"window_s\": " + num(windowSeconds) +
                    ", \"peak_rss_mb\": " + num(peakRssMiB()) +
                    ", \"setup_s\": [";
  for (usize i = 0; i < setupSeconds.size(); ++i) {
    out += (i ? ", " : "") + num(setupSeconds[i]);
  }
  out += "], \"setup_cpu_s\": [";
  for (usize i = 0; i < setupCpuSeconds.size(); ++i) {
    out += (i ? ", " : "") + num(setupCpuSeconds[i]);
  }
  out += "],\n\"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    out += (first ? "" : ", ") + quoted(k) + ": " + num(v);
    first = false;
  }
  out += "},\n\"errors\": [";
  for (usize i = 0; i < errors_.size(); ++i) {
    out += (i ? ", " : "") + quoted(errors_[i]);
  }
  out += "], \"cpu_marks\": [";
  for (usize i = 0; i < cpuMarks_.size(); ++i) {
    out += std::string(i ? ", " : "") + "[" + num(cpuMarks_[i].first) + ", " +
           num(cpuMarks_[i].second) + "]";
  }
  out += "], \"error_count\": " + std::to_string(errorCount_) +
         ",\n\"ops\": [\n";
  for (usize i = 0; i < ops_.size(); ++i) {
    const Op& o = ops_[i];
    out += "[" + std::to_string(o.id) + ", " + quoted(o.kind) + ", " +
           num(o.intendedUs) + ", " + num(o.sentUs) + ", " + num(o.doneUs) +
           ", " + std::to_string(o.originalBytes) + ", " +
           std::to_string(o.streamBytes) + ", " + (o.ok ? "1" : "0") +
           ", " + (o.traced ? "1" : "0") + ", " + num(o.cpuUs) + "]";
    out += i + 1 < ops_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return writeFile(path, out);
}

bool Recorder::writeTrace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"traceEvents\": [\n";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "  {\"name\": " + quoted(s.name) + ", \"ph\": \"X\", \"ts\": " +
           num(s.startUs) + ", \"dur\": " + num(s.endUs - s.startUs) +
           ", \"pid\": 1, \"tid\": 1, \"args\": {\"op\": " +
           std::to_string(s.op) + ", \"span\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent);
    for (const SpanArg& a : s.args) {
      out += ", " + quoted(a.key) + ": " + num(a.value);
    }
    out += "}}";
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return writeFile(path, out);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<field_bulk|tenant_mix|archive_rw> --seed N --seconds S "
               "--trace 0|1 --out FILE [--trace-out FILE] [--work-dir DIR] "
               "[--setups K] [--pair-rounds R] [--rate JOBS_PER_S]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.outPath = value;
    } else if (flag == "--trace-out") {
      opt.tracePath = value;
    } else if (flag == "--work-dir") {
      opt.workDir = value;
    } else if (flag == "--setups") {
      opt.setups = static_cast<u32>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--pair-rounds") {
      opt.pairRounds =
          static_cast<u32>(std::strtoul(value.c_str(), &end, 10));
    } else if (flag == "--rate") {
      opt.rate = std::strtod(value.c_str(), &end);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return usage(("bad number for " + flag).c_str());
    }
  }
  if (opt.outPath.empty() || !(opt.seconds > 0.0) || opt.setups == 0) {
    return usage("--out, a positive --seconds and --setups >= 1 are required");
  }

  Recorder rec;
  RunInfo info;
  try {
    if (opt.workload == "field_bulk") {
      info = runFieldBulk(opt, rec);
    } else if (opt.workload == "tenant_mix") {
      info = runTenantMix(opt, rec);
    } else if (opt.workload == "archive_rw") {
      info = runArchiveRw(opt, rec);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  rec.count("nproc", std::thread::hardware_concurrency());
  if (!rec.writeResult(opt.outPath, opt, info.setupSeconds,
                       info.setupCpuSeconds,
                       info.windowSeconds) ||
      (!opt.tracePath.empty() && !rec.writeTrace(opt.tracePath))) {
    std::fprintf(stderr, "perfbench_runner: cannot write results\n");
    return 1;
  }
  return rec.errorCount() == 0 ? 0 : 1;
}
