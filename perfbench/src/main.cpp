// perfbench -- runs one workload and prints its report as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--tiny]
//
// Human-readable lines go to stderr; the last stdout line is the JSON
// report that run.py turns into the benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace pb {

void finish_trace(const Options& o, Report& rep,
                  const std::vector<Span>& spans, double lanes,
                  bool pool_roots, double overhead_pct) {
  rep.set("trace.coverage", coverage(spans, lanes, pool_roots), "ratio");
  rep.set("trace.overhead_pct", overhead_pct, "%");
  std::size_t negative = 0;
  for (const double s : self_ms(spans)) negative += s < -1e-6 ? 1 : 0;
  if (negative != 0) rep.fail("spans with negative self time");
  const std::string path = o.work_dir + "/spans-" + o.workload + ".json";
  if (!write_span_file(path, spans)) rep.fail("cannot write " + path);
  rep.info["spans"] = static_cast<double>(spans.size());
}

}  // namespace pb

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

void print_report(const pb::Options& o, const pb::Report& rep) {
  std::string j = "{\"workload\": " + json_str(o.workload) +
                  ", \"seed\": " + std::to_string(o.seed) +
                  ", \"trace\": " + (o.trace ? "1" : "0") +
                  ", \"attempted\": " + std::to_string(rep.attempted) +
                  ", \"failed\": " + std::to_string(rep.failed) +
                  ", \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    j += (i ? ", " : "") + json_str(rep.errors[i]);
  }
  j += "], \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : rep.metrics) {
    std::snprintf(num, sizeof num, "%.17g", m.value);
    j += std::string{first ? "" : ", "} + json_str(name) +
         ": {\"value\": " + num + ", \"unit\": " + json_str(m.unit) + "}";
    first = false;
  }
  j += "}, \"exact\": {";
  first = true;
  for (const auto& [name, v] : rep.exact) {
    j += std::string{first ? "" : ", "} + json_str(name) + ": " + json_str(v);
    first = false;
  }
  j += "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : rep.info) {
    std::snprintf(num, sizeof num, "%.17g", v);
    j += std::string{first ? "" : ", "} + json_str(name) + ": " + num;
    first = false;
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
    } else if (a == "--trace") {
      o.trace = next() == "1";
    } else if (a == "--work-dir") {
      o.work_dir = next();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return 2;
    }
  }

  pb::Report rep;
  try {
    if (o.workload == "paper-functional") {
      pb::run_paper_functional(o, rep);
    } else if (o.workload == "paper-cycle") {
      pb::run_paper_cycle(o, rep);
    } else if (o.workload == "sweep-dse") {
      pb::run_sweep_dse(o, rep);
    } else if (o.workload == "service-mix") {
      pb::run_service_mix(o, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    rep.fail(std::string{"workload threw: "} + e.what());
  }
  rep.set("peak_rss_mb", pb::peak_rss_mb(), "MB");
  print_report(o, rep);
  return 0;
}
