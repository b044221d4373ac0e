/// \file control_problem.hpp
/// \brief `control::ControlProblem` -- the ONE piecewise-constant control
///        evaluator every optimizer front end (GRAPE, Krotov, CRAB, GOAT)
///        dispatches through.
///
/// Wraps a `GrapeProblem` (the common PWC problem statement) and exposes the
/// primitives an optimizer needs: slot exponents, final evolution, fidelity
/// error, and the exact objective gradient via one adjoint Frechet
/// derivative per slot.  Validation, subspace/state-transfer overlap handling and
/// the fidelity formulas live HERE once, instead of being re-derived per
/// front end.
///
/// Parallelism: the per-timeslot propagator/gradient fan-outs run on
/// `qoc::runtime::TaskPool::global()`, with per-task scratch leased from a
/// `runtime::WorkspacePool` (replacing the old per-OpenMP-thread scratch
/// vector).  Every slot writes only its own output matrices and all
/// reductions are serial, so results are bitwise identical for any pool
/// size -- the same guarantee the OpenMP implementation made.

#pragma once

#include <vector>

#include "control/grape.hpp"
#include "linalg/expm.hpp"
#include "runtime/workspace_pool.hpp"

namespace qoc::control {

/// Reusable evaluator over a PWC control problem.  Construct once, evaluate
/// many times: propagator workspaces and partial-product storage are reused
/// across calls, so after the first evaluation at a fixed problem shape the
/// hot loop performs no heap allocation.
class ControlProblem {
public:
    /// Validates the problem (throws `std::invalid_argument` on a malformed
    /// spec) and precomputes the overlap target / exponent directions.
    ControlProblem(const GrapeProblem& problem, bool open_system);

    /// Convenience: infers open vs closed from the fidelity type.
    explicit ControlProblem(const GrapeProblem& problem)
        : ControlProblem(problem, is_open(problem)) {}

    /// The convention every front end uses: kTraceDiff marks an open-system
    /// (superoperator) problem, kPsu/kSu a closed-system one.
    static bool is_open(const GrapeProblem& problem) {
        return problem.fidelity == FidelityType::kTraceDiff;
    }

    ControlProblem(const ControlProblem&) = delete;
    ControlProblem& operator=(const ControlProblem&) = delete;

    const GrapeProblem& problem() const { return prob_; }
    bool open_system() const { return open_; }

    std::size_t n_params() const { return n_ts_ * n_ctrl_; }
    std::size_t n_ctrl() const { return n_ctrl_; }
    std::size_t n_ts() const { return n_ts_; }
    double dt() const { return dt_; }

    /// Comparison matrix M of the trace overlap Tr(M^dag U): the plain
    /// target, the isometry-sandwiched target, or |psi_t><psi_0| for state
    /// transfer.  Krotov's co-state seeding reads this.
    const Mat& overlap_target() const { return overlap_target_; }

    /// Fidelity normalization (subspace dimension; 1 for state transfer).
    double norm_dim() const { return norm_dim_; }

    ControlAmplitudes unflatten(const std::vector<double>& x) const;
    std::vector<double> flatten(const ControlAmplitudes& amps) const;

    /// Slot exponent `scale * (drift + sum u_j ctrl_j)`, written into `out`
    /// without allocating (on shape reuse).  `amps` points at `n_ctrl()`
    /// contiguous amplitudes.
    void slot_exponent_into(const double* amps, Mat& out) const;

    /// Slot exponent `scale * (drift + sum u_j ctrl_j)`.
    Mat slot_exponent(const std::vector<double>& amps) const;

    /// Final evolution operator for an amplitude table.
    Mat evolution(const ControlAmplitudes& amps) const;

    /// Fidelity error of a final evolution operator.
    double fid_err_of(const Mat& evo) const;

    /// Fidelity error of an amplitude table (no gradient).
    double fid_err(const ControlAmplitudes& amps) const { return fid_err_of(evolution(amps)); }

    /// Full objective: fidelity error (plus energy penalty when configured)
    /// and its exact gradient with respect to the flattened amplitudes
    /// (slot-major, control-minor).
    double objective(const std::vector<double>& x, std::vector<double>& grad) const;

private:
    /// Per-task scratch: the expm engine workspace plus the slot/gradient
    /// temporaries (`adj` is a slot's adjoint derivative L(A_k, R_k)).
    /// Shapes stabilize after the first objective call, so reuse is
    /// allocation-free.
    struct EvalScratch {
        linalg::ExpmWorkspace ws;
        Mat gen, prop, tmp, adj;
    };

    GrapeProblem prob_;
    bool open_;
    std::size_t n_ctrl_ = 0;
    std::size_t n_ts_ = 0;
    double dt_ = 0.0;
    double norm_dim_ = 1.0;
    Mat overlap_target_;
    std::vector<Mat> exp_dirs_;

    // Reusable evaluation workspace (mutable: objective() is logically
    // const; these caches never change observable results).
    mutable runtime::WorkspacePool<EvalScratch> scratch_pool_;
    mutable std::vector<linalg::PadeState> slots_;  ///< per-slot Pade state; exp() = P_k
    mutable std::vector<Mat> fwd_, bwd_;
    mutable Mat c_adj_;
};

}  // namespace qoc::control
