/// \file expm.hpp
/// \brief Matrix exponential (Higham Pade 13 scaling-and-squaring) and its
///        Frechet derivatives from one Pade engine: the forward
///        multi-direction form and the adjoint form the GRAPE gradient
///        uses.  Beside it, the action of the exponential on a thin block
///        (Al-Mohy-Higham truncated Taylor), for streams that only ever
///        multiply the exponential into a vector or two.

#pragma once

#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace qoc::linalg {

/// Matrix exponential `e^A` for a general complex square matrix, via
/// scaling-and-squaring with Pade approximants of order 3/5/7/9/13
/// (Higham 2005).  One-shot wrapper over `expm_into` with a fresh
/// workspace.  Throws `std::invalid_argument` on non-square input or a
/// non-finite entry.
Mat expm(const Mat& a);

// --- Pade engine -------------------------------------------------------------

/// Everything the derivative of one exponential `e^A` reads, as left by its
/// forward evaluation: `e^A = r(A_s)^{2^s}` with `A_s = A / 2^s` and `r` the
/// order-`m` Pade approximant `(V - U)^{-1} (V + U)`.  Buffers only grow, so
/// refilling a state at a shape it has seen does not allocate.
struct PadeState {
    int order = 0;           ///< Pade order m (3, 5, 7, 9 or 13)
    int squarings = 0;       ///< s
    Mat as;                  ///< scaled generator A_s
    std::vector<Mat> pows;   ///< pows[k] = A_s^{2k}, k >= 1
    Mat usum;                ///< odd-coefficient polynomial (orders 3..9)
    Mat w1, z1, w;           ///< order-13 factored polynomials
    Lu fact;                 ///< LU of V - U
    std::vector<Mat> squares;  ///< squares[i] = r^{2^i}, i = 0..s

    /// `e^A`, the last square.
    const Mat& exp() const { return squares[static_cast<std::size_t>(squarings)]; }
};

/// Reusable scratch for the engine.  All buffers are implementation detail:
/// contents are unspecified between calls, and the only guarantee is that
/// repeated calls at the same matrix size perform no heap allocation.  One
/// workspace must not be shared between threads; the GRAPE evaluator leases
/// one per task.
class ExpmWorkspace {
public:
    ExpmWorkspace() = default;

    PadeState pade;  ///< state of the last `expm_into` / `expm_frechet_multi`
    // forward and per-direction scratch
    Mat u, v, es, m2, m4, m6, lw1, lw, lusum, lu_m, lv_m, rhs, t1, t2;
    std::vector<Mat> mk;  ///< derivative powers M_{2k} (orders 3..9)
};

/// `out = e^A` through the workspace engine: allocation-free on shape reuse.
/// Used by the PWC propagator builders, Krotov and the device executor,
/// which exponentiate thousands of same-size slot generators.
void expm_into(const Mat& a, Mat& out, ExpmWorkspace& ws);

/// Computes `e^A` and the Frechet derivatives `L(A, E_j)` for all `n_dirs`
/// directions at once.
///
/// One set of Pade intermediates (A^2, A^4, A^6, the factored polynomials
/// and one LU of V - U) is built for A and reused for every direction,
/// Al-Mohy-Higham style; per direction only the derivative polynomials, one
/// back-substitution and the squaring-phase products remain (~N^3 gemms,
/// against the (2N)^3 ~ 8x expm of a Van Loan augmented block).
///
/// `frechet_out` must point at `n_dirs` writable matrices (resized in
/// place); `exp_out`/`frechet_out` must not alias `a`/`dirs`.  Every
/// direction must have the shape of `a`, and `a` must be finite
/// (`std::invalid_argument` otherwise).  Results are deterministic for a
/// given input regardless of how calls are distributed over threads.
void expm_frechet_multi(const Mat& a, const Mat* dirs, std::size_t n_dirs,
                        Mat& exp_out, Mat* frechet_out, ExpmWorkspace& ws);

/// Convenience overload with value-semantics results (tests, one-shot use).
std::pair<Mat, std::vector<Mat>> expm_frechet_multi(const Mat& a,
                                                    const std::vector<Mat>& dirs);

/// Forward half of the adjoint pair: evaluates `e^A` (read it as
/// `state.exp()`) and keeps its Pade state in `state` for a later
/// `expm_frechet_adjoint`.  `ws` is scratch only.  Throws like `expm`.
void expm_retain(const Mat& a, PadeState& state, ExpmWorkspace& ws);

/// Adjoint half: `out = L(A, R)` for the exponential whose state `state`
/// holds, evaluated in reverse order -- the squaring updates
/// `G <- r_i G + G r_i` for i = s-1..0 starting from `G = R`, then one Pade
/// derivative step along `G / 2^s`.  Because
/// `Tr(R L(A, E)) = Tr(L(A, R) E)` holds for the Pade approximant and for
/// every squaring step, `Tr(out E)` is the derivative of `Tr(R e^A)` along
/// any direction E: one derivative serves every control of a GRAPE slot.
/// `out` must not alias `r`; `r` must have the shape of A.
void expm_frechet_adjoint(const PadeState& state, const Mat& r, Mat& out,
                          ExpmWorkspace& ws);

// --- action of the exponential -----------------------------------------------

/// Degree and step count of a truncated-Taylor action: `e^A B` is taken as
/// `T_m(A/s)^s B`, with `T_m` the degree-m Taylor polynomial.
struct TaylorDegree {
    int m = 0;  ///< degree per step; 0 only for A = 0, where e^A B = B
    int s = 1;  ///< number of steps
};

/// (m, s) for every generator whose 1-norm is at most `norm_1`: of the pairs
/// with `norm_1 / s <= theta_m`, the one with the fewest products m * s
/// (the smallest m on a tie), with theta_m from the double-precision table
/// of Al-Mohy & Higham, "Computing the action of the matrix exponential"
/// (SIAM J. Sci. Comput. 33, 2011), m <= 55.  Throws
/// `std::invalid_argument` on a negative or non-finite bound.
TaylorDegree expm_action_degree(double norm_1);

/// Scratch of `expm_action_into`.  Shape-reused: repeated calls at one block
/// shape perform no heap allocation.  Not to be shared between threads.
struct ExpmActionWorkspace {
    Mat term;  ///< the current Taylor term
    Mat prod;  ///< `A * term`, before its 1/(s j) scale
};

/// `b <- e^A b` for an n x n `a` and an n x k block `b`, without forming
/// e^A: s steps of `F <- F + sum_j T_j`, `T_j = A T_{j-1} / (s j)`,
/// `T_0 = F` (Al-Mohy & Higham, Algorithm 3.2, without the shift).  A step
/// stops before degree m once two consecutive terms sum to at most 2^-53
/// times the partial sum, in the max row sum of |Re| + |Im| (within a
/// factor sqrt(2) of the infinity norm, without a square root).
///
/// Every product is one `simd::gemv_strided` call per column of `b`
/// (stride k), so each element follows the kernel family's rounding
/// contract and the scalar replay gives the same bits.  `deg` must come
/// from a bound on ||a||_1 (`expm_action_degree`).  Throws
/// `std::invalid_argument` when `a` is not square or `b` has another row
/// count.  `b` must not alias `a` or the workspace.
void expm_action_into(const Mat& a, TaylorDegree deg, Mat& b, ExpmActionWorkspace& ws);

/// The same with (m, s) taken from ||a||_1 itself; throws also on a
/// non-finite entry of `a`.
void expm_action_into(const Mat& a, Mat& b, ExpmActionWorkspace& ws);

}  // namespace qoc::linalg
