// diasbench: runs one named workload through DiasDispatcher on the real
// engine and prints its metrics as the last line of standard output.
//
//   diasbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>]
//
// Normally started through run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  diasbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) {
    std::fprintf(stderr, "need --workload and a positive --seconds\n");
    return 2;
  }
  try {
    return diasbench::run_benchmark(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "diasbench: %s\n", e.what());
    return 1;
  }
}
