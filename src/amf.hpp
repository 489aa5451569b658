// amf.hpp — umbrella header: the full public API of the amf library.
//
// Quickstart:
//
//   amf::core::AllocationProblem problem(demands, capacities, workloads);
//   amf::core::AmfAllocator amf;
//   auto allocation = amf.allocate(problem);             // fair aggregates
//   amf::core::JctAddon addon;
//   auto fast = addon.optimize(problem, allocation);     // same aggregates,
//                                                        // better JCTs
//
// See examples/quickstart.cpp for a guided tour.
#pragma once

#include "core/allocation.hpp"
#include "core/amf.hpp"
#include "core/eamf.hpp"
#include "core/jct.hpp"
#include "core/metrics.hpp"
#include "core/persite.hpp"
#include "core/problem.hpp"
#include "core/properties.hpp"
#include "core/reference.hpp"
#include "core/robust.hpp"
#include "core/single_site.hpp"
#include "core/stability.hpp"
#include "lp/simplex.hpp"
#include "multiresource/drf.hpp"
#include "sim/engine.hpp"
#include "workload/faults.hpp"
#include "workload/generator.hpp"
#include "workload/scenario.hpp"
#include "workload/trace.hpp"
