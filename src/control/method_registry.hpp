/// \file method_registry.hpp
/// \brief `OptimMethod` -> driver table behind `pulse_optim`.
///
/// Each pulse-optimization method has one `MethodInfo` row: a human display
/// name, the closed-system-only flag (enforced uniformly by `pulse_optim`),
/// and the driver that maps the spec onto the method's typed entry point
/// (`grape_optimize`, `grape_gradient_descent`, `crab_optimize`,
/// `krotov_unitary`, `goat_optimize`).  `pulse_optim` is a pure lookup +
/// dispatch -- adding a method means adding a row here, not growing a switch.

#pragma once

#include "control/pulseoptim.hpp"

namespace qoc::control {

class ControlProblem;

/// Everything a method driver may consume: the user spec, the lifted
/// problem, the shared evaluator, and the open/closed flag.
struct MethodContext {
    const PulseOptimSpec& spec;
    const GrapeProblem& prob;
    const ControlProblem& cp;
    bool open_system = false;
};

/// Fills the method-specific fields of `result` (everything except the
/// spec-derived dt/open_system/initial_amps, which `pulse_optim` sets).
using MethodDriver = void (*)(const MethodContext&, PulseOptimResult&);

struct MethodInfo {
    OptimMethod method = OptimMethod::kLbfgsB;
    const char* display_name = "";  ///< for error messages and reports
    bool closed_only = false;       ///< throws for open (Liouvillian) specs
    MethodDriver driver = nullptr;
};

/// Lookup by enum; every `OptimMethod` value has a row.
const MethodInfo& find_method(OptimMethod method);

}  // namespace qoc::control
