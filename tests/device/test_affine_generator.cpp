/// Oracle tests for the executor's affine Lindblad generators and its block
/// propagation loop.
///
/// The executor builds dt * L(s) once per device as
///   L0 + sum_k x_k L_k + sum_q (x_q^2 Lxx_q + y_q^2 Lyy_q + x_q y_q Lxy_q)
/// and advances d^2 x k blocks through per-sample propagators, or, for thin
/// unshared streams, by the action of each sample's exponential.  Here both
/// are held against the direct construction (a fresh Hamiltonian, collapse
/// list and `quantum::liouvillian` per sample, lindblad_reference.hpp),
/// against the Pade state stream built on it and against the composed
/// superoperator.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <vector>

#include "device/executor.hpp"
#include "linalg/kron.hpp"
#include "lindblad_reference.hpp"
#include "pulse/waveform.hpp"
#include "quantum/states.hpp"

namespace qoc::device {
namespace {

using cplx = std::complex<double>;

double max_abs_diff(const Mat& a, const Mat& b) {
    EXPECT_EQ(a.rows(), b.rows());
    EXPECT_EQ(a.cols(), b.cols());
    double m = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
    }
    return m;
}

/// A drifted montreal: detuning and amplitude error on both qubits, so every
/// term of the model is nonzero.
BackendConfig drifted(std::size_t levels, bool amp_noise) {
    BackendConfig cfg = ibmq_montreal();
    cfg.levels = levels;
    cfg.qubits[0].detuning = 3.0e-3;
    cfg.qubits[1].detuning = -2.0e-3;
    cfg.qubits[0].amp_scale = 1.04;
    cfg.qubits[1].amp_scale = 0.97;
    for (auto& q : cfg.qubits) q.drive_amp_noise = amp_noise ? 4.0e-3 : 0.0;
    return cfg;
}

const std::vector<cplx> kSamples = {
    {0.0, 0.0}, {0.3, 0.0}, {0.0, -0.2}, {0.25, 0.17}, {-0.4, 0.05}, {-0.11, -0.37}};

TEST(AffineGenerator, SingleQubitMatchesKronReference) {
    for (std::size_t levels : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        for (bool noise : {false, true}) {
            const BackendConfig cfg = drifted(levels, noise);
            const PulseExecutor exec(cfg);
            for (std::size_t q = 0; q < cfg.qubits.size(); ++q) {
                for (const cplx s : kSamples) {
                    const Mat ref = cfg.dt * reference::lindblad_generator_1q(cfg, s, q);
                    EXPECT_LE(max_abs_diff(exec.sample_generator_1q(s, q), ref), 1e-14)
                        << "levels " << levels << " noise " << noise << " qubit " << q
                        << " sample " << s;
                }
            }
        }
    }
}

TEST(AffineGenerator, PairMatchesKronReferenceOnEveryCoordinate) {
    // Each of the six coordinates alone, then all of them, then none.
    std::vector<std::array<cplx, 3>> points;
    for (std::size_t k = 0; k < 6; ++k) {
        std::array<cplx, 3> p{};
        p[k / 2] = (k % 2 == 0) ? cplx{0.37, 0.0} : cplx{0.0, -0.29};
        points.push_back(p);
    }
    points.push_back({cplx{0.21, -0.13}, cplx{-0.3, 0.08}, cplx{0.45, 0.31}});
    points.push_back({});
    for (bool noise : {false, true}) {
        const BackendConfig cfg = drifted(3, noise);
        const PulseExecutor exec(cfg);
        for (const auto& p : points) {
            const Mat ref = cfg.dt * reference::lindblad_generator_2q(cfg, p[0], p[1], p[2]);
            EXPECT_LE(max_abs_diff(exec.sample_generator_2q(p[0], p[1], p[2]), ref), 1e-14)
                << "noise " << noise << " d0 " << p[0] << " d1 " << p[1] << " u0 " << p[2];
        }
    }
}

TEST(AffineGenerator, StatePropagationMatchesComposedSuperop) {
    const BackendConfig cfg = drifted(3, true);
    const PulseExecutor exec(cfg);
    const auto wf = pulse::drag_waveform(160, {0.23, 0.0}, 0.04);
    // |+><+| on the qubit subspace: populations and coherences both move.
    Mat rho(3, 3);
    for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t j = 0; j < 2; ++j) rho(i, j) = 0.5;
    const Mat v0 = linalg::vec(rho);

    Mat state = v0;
    PropagationWorkspace ws;
    exec.propagate_1q(wf.samples(), 0, state, ws, PropagatorReuse::kNone);
    const Mat composed = exec.waveform_superop_1q(wf.samples(), 0) * v0;
    EXPECT_LE(max_abs_diff(state, composed), 1e-13);

    // The pair: a 16 x 2 block (control in |0> and |1>) through a CR-like
    // layer with all three channels driven.
    const auto d0 = pulse::drag_waveform(120, {0.2, 0.0}, 0.03).samples();
    const auto u0 = pulse::gaussian_square_waveform(200, {0.4, 0.1}, 0.6).samples();
    const std::vector<cplx> d1(80, cplx{0.0, 0.05});
    Mat block(16, 2);
    for (std::size_t c = 0; c < 2; ++c) {
        block.set_block(0, c,
                        linalg::vec(quantum::ket_to_dm(
                            quantum::basis_ket_bits({static_cast<int>(c), 0}))));
    }
    const Mat start = block;
    exec.propagate_2q(d0, d1, u0, block, ws, PropagatorReuse::kNone);
    EXPECT_LE(max_abs_diff(block, exec.layer_superop_2q(d0, d1, u0) * start), 1e-13);
}

TEST(AffineGenerator, CachedAndUncachedPropagationAreBitwiseEqual) {
    // Cache entries are the propagators the loop would compute, bit for bit.
    const PulseExecutor exec(drifted(3, true));
    const auto wf = pulse::drag_waveform(96, {0.31, 0.0}, 0.05);
    Mat shared = Mat::identity(9), fresh = Mat::identity(9);
    PropagationWorkspace ws;
    exec.propagate_1q(wf.samples(), 1, shared, ws, PropagatorReuse::kShared);
    exec.propagate_1q(wf.samples(), 1, fresh, ws, PropagatorReuse::kNone);
    EXPECT_EQ(max_abs_diff(shared, fresh), 0.0);
}

TEST(AffineGenerator, ActionStreamMatchesPadeStream1q) {
    // kNone on a 9 x 1 state takes the action route; the oracle forms every
    // sample's propagator.  Amplitudes up to the Rabi sweep's largest, on a
    // drifted device with amplitude noise.
    for (bool noise : {false, true}) {
        const BackendConfig cfg = drifted(3, noise);
        const PulseExecutor exec(cfg);
        Mat rho(3, 3);
        for (std::size_t i = 0; i < 2; ++i)
            for (std::size_t j = 0; j < 2; ++j) rho(i, j) = 0.5;
        for (const double amp : {0.05, 0.23, 0.4}) {
            const auto samples = pulse::drag_waveform(160, {amp, 0.0}, 0.04).samples();
            for (std::size_t q = 0; q < 2; ++q) {
                Mat state = linalg::vec(rho);
                Mat oracle = state;
                PropagationWorkspace ws;
                exec.propagate_1q(samples, q, state, ws, PropagatorReuse::kNone);
                reference::propagate_pade_1q(cfg, samples, q, oracle);
                EXPECT_LE(max_abs_diff(state, oracle), 1e-13)
                    << "noise " << noise << " amp " << amp << " qubit " << q;
            }
        }
    }
}

TEST(AffineGenerator, ActionStreamMatchesPadeStream2q) {
    // A 16 x 2 block (control in |0> and |1>) through a CR layer with all
    // three channels driven and streams of different lengths.
    const auto d0 = pulse::drag_waveform(120, {0.2, 0.0}, 0.03).samples();
    const auto u0 = pulse::gaussian_square_waveform(200, {0.4, 0.1}, 0.6).samples();
    const std::vector<cplx> d1(80, cplx{0.0, 0.05});
    for (bool noise : {false, true}) {
        const BackendConfig cfg = drifted(3, noise);
        const PulseExecutor exec(cfg);
        Mat block(16, 2);
        for (std::size_t c = 0; c < 2; ++c) {
            block.set_block(0, c,
                            linalg::vec(quantum::ket_to_dm(
                                quantum::basis_ket_bits({static_cast<int>(c), 0}))));
        }
        Mat oracle = block;
        PropagationWorkspace ws;
        exec.propagate_2q(d0, d1, u0, block, ws, PropagatorReuse::kNone);
        reference::propagate_pade_2q(cfg, d0, d1, u0, oracle);
        EXPECT_LE(max_abs_diff(block, oracle), 1e-13) << "noise " << noise;
    }
}

}  // namespace
}  // namespace qoc::device
