// perfbench binary: runs one workload and writes its raw samples,
// counter deltas, check results and (traced runs) spans as one JSON
// document. perfbench/run.py builds this binary, runs it and turns the raw
// document into named metrics.
//
//   perfbench --workload <fig3|fine-grain|dataflow|serve> --seed <n>
//             --seconds <s> --trace <0|1> --out <file>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <fig3|fine-grain|dataflow|serve> "
               "--seed <n> --seconds <s> --trace <0|1> --out <file>\n",
               argv0);
  return 2;
}

std::string to_json(const RunContext& ctx) {
  Json j;
  j.begin_object()
      .field("workload", ctx.workload)
      .field("seed", ctx.seed)
      .field("seconds", ctx.seconds)
      .field("trace", ctx.trace)
      .field("threads", ctx.threads)
      .field("hardware_threads", std::thread::hardware_concurrency());
  ctx.checks.write(j);
  j.key("samples").begin_object();
  for (const auto& [name, vs] : ctx.samples) j.array(name, vs);
  j.end_object();
  j.key("scalars").begin_object();
  for (const auto& [name, v] : ctx.scalars) j.field(name, v);
  j.end_object();
  j.key("counters").begin_object();
  for (const auto& [name, c] : ctx.counters) {
    j.key(name);
    c.write(j);
  }
  j.end_object();
  for (const auto& [name, fragment] : ctx.sections) j.key(name).raw(fragment);
  ctx.spans.write(j);
  j.end_object();
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const auto want = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (want("--workload")) ctx.workload = argv[++i];
    else if (want("--seed")) { ctx.seed = std::strtoull(argv[++i], nullptr, 10); have_seed = true; }
    else if (want("--seconds")) ctx.seconds = std::strtod(argv[++i], nullptr);
    else if (want("--trace")) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return usage(argv[0]);
      ctx.trace = t == "1";
    }
    else if (want("--out")) out = argv[++i];
    else return usage(argv[0]);
  }
  if (!have_seed || out.empty() || !(ctx.seconds > 0)) return usage(argv[0]);
  ctx.spans.set_enabled(ctx.trace);
  try {
    if (ctx.workload == "fig3") run_fig3(ctx);
    else if (ctx.workload == "fine-grain") run_fine_grain(ctx);
    else if (ctx.workload == "dataflow") run_dataflow(ctx);
    else if (ctx.workload == "serve") run_serve(ctx);
    else return usage(argv[0]);
    if (ctx.trace) run_probes(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::ofstream f(out);
  f << to_json(ctx) << '\n';
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
