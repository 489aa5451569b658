// amf_generate — synthetic instance/trace generator for the CLI suite.
//
//   amf_generate problem [--jobs N] [--sites M] [--skew Z] [--seed S]
//                        [--demand-model uncapped|proportional]
//   amf_generate trace   [--jobs N] [--sites M] [--skew Z] [--seed S]
//                        [--load L]
//
// Writes the instance (AllocationProblem CSV) or trace (trace CSV) to
// stdout, in the formats read by amf_solve and accepted by
// workload::load_trace — completing the generate → solve → simulate
// pipeline from the shell.
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include "amf.hpp"
#include "util/flags.hpp"

namespace {

int usage(bool help = false) {
  (help ? std::cout : std::cerr)
      << "usage: amf_generate problem|trace [--jobs N] [--sites M] "
         "[--resources R] [--skew Z] [--seed S] [--load L] "
         "[--demand-model uncapped|proportional]\n"
         "  --resources R  draw R-resource instances (vector capacities,\n"
         "                 Leontief job profiles); 1 = classic scalar\n";
  return help ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace amf;
  if (argc < 2) return usage();
  std::string mode = argv[1];
  if (mode == "--help" || mode == "-h") return usage(true);
  if (mode != "problem" && mode != "trace") return usage();

  int jobs = 100, sites = 10, resources = 1;
  double skew = 1.0, load = 0.8;
  std::uint64_t seed = 42;
  auto demand_model = workload::DemandModel::kUncapped;
  for (int i = 2; i < argc; ++i) {
    // Strict numeric operand: a missing, malformed or out-of-range value
    // is a usage error (exit 2), never a silent 0.
    auto number = [&](auto* out, auto... range) {
      return i + 1 < argc && util::parse_number(argv[++i], out, range...);
    };
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      return usage(true);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!number(&jobs, 0)) return usage();
    } else if (std::strcmp(argv[i], "--sites") == 0) {
      if (!number(&sites, 1)) return usage();
    } else if (std::strcmp(argv[i], "--resources") == 0) {
      if (!number(&resources, 1)) return usage();
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      if (!number(&skew, 0.0)) return usage();
    } else if (std::strcmp(argv[i], "--load") == 0) {
      if (!number(&load, std::numeric_limits<double>::min())) return usage();
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!number(&seed)) return usage();
    } else if (std::strcmp(argv[i], "--demand-model") == 0 && i + 1 < argc) {
      std::string model = argv[++i];
      if (model == "uncapped")
        demand_model = workload::DemandModel::kUncapped;
      else if (model == "proportional")
        demand_model = workload::DemandModel::kProportionalToWork;
      else
        return usage();
    } else {
      return usage();
    }
  }

  try {
    auto cfg = workload::paper_default(skew, seed);
    cfg.jobs = jobs;
    cfg.sites = sites;
    cfg.sites_per_job_max = std::min(cfg.sites_per_job_max, sites);
    cfg.resources = resources;
    cfg.demand_model = demand_model;
    workload::Generator generator(cfg);
    if (mode == "problem") {
      generator.generate().save(std::cout);
    } else {
      auto trace = workload::generate_trace(generator, load, jobs);
      workload::save_trace(trace, std::cout);
    }
  } catch (const std::exception& e) {
    std::cerr << "amf_generate: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
