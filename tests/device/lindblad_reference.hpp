/// Reference Lindblad generators of the executor's device model, built the
/// direct way: a fresh Hamiltonian and collapse list per drive sample, then
/// `quantum::liouvillian` (Kronecker products plus dissipators).  The
/// executor evaluates the same generators from an affine form built once
/// per device; the oracle tests hold the two together.  On top of them, the
/// Pade state stream: every sample's propagator e^{dt L} formed by
/// `linalg::expm` and multiplied into the block, the oracle of the
/// executor's action-of-the-exponential route.

#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "device/backend_config.hpp"
#include "linalg/expm.hpp"
#include "linalg/kron.hpp"
#include "linalg/matrix.hpp"
#include "quantum/operators.hpp"
#include "quantum/superop.hpp"

namespace qoc::device::reference {

using linalg::Mat;

/// Pure-dephasing rate from T1/T2: 1/T2 = 1/(2 T1) + Gamma_phi.
inline double dephasing_rate(double t1, double t2) { return std::max(0.0, 1.0 / t2 - 0.5 / t1); }

/// L(s) of a `config.levels`-dim Duffing transmon driven with `sample`
/// (without the factor dt).
inline Mat lindblad_generator_1q(const BackendConfig& config, std::complex<double> sample,
                                 std::size_t qubit) {
    const auto& p = config.qubit(qubit);
    const std::size_t d = config.levels;
    const Mat a = quantum::annihilation(d);
    const Mat n_op = quantum::number_op(d);
    Mat anharm(d, d);
    for (std::size_t k = 0; k < d; ++k) {
        const double n = static_cast<double>(k);
        anharm(k, k) = 0.5 * n * (n - 1.0);
    }
    Mat h = p.anharmonicity * anharm + p.detuning * n_op;
    const std::complex<double> amp = 0.5 * p.omega_max * p.amp_scale * sample;
    // H_drive = (Omega/2)(s a^dag + s* a)
    Mat h_drive(d, d);
    for (std::size_t n = 1; n < d; ++n) {
        const double ladder = std::sqrt(static_cast<double>(n));
        h_drive(n, n - 1) = amp * ladder;
        h_drive(n - 1, n) = std::conj(amp) * ladder;
    }
    h += h_drive;
    std::vector<Mat> collapse;
    collapse.push_back(std::sqrt(1.0 / p.t1) * a);
    const double gphi = dephasing_rate(p.t1, p.t2);
    if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * n_op);
    // Multiplicative drive-amplitude noise: dephasing along the drive axis
    // with rate proportional to the instantaneous drive power.
    if (p.drive_amp_noise > 0.0 && sample != std::complex<double>{0.0, 0.0}) {
        collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
    }
    return quantum::liouvillian(h, collapse);
}

/// L(d0, d1, u0) of the two-level pair under the effective cross-resonance
/// Hamiltonian (paper Eq. 3), without the factor dt.
inline Mat lindblad_generator_2q(const BackendConfig& config, std::complex<double> d0,
                                 std::complex<double> d1, std::complex<double> u0) {
    using quantum::op_on_qubit;
    using quantum::sigma_x;
    using quantum::sigma_y;
    using quantum::sigma_z;
    const Mat n_q{{0.0, 0.0}, {0.0, 1.0}};
    const Mat n1 = op_on_qubit(n_q, 0, 2);
    const Mat n2 = op_on_qubit(n_q, 1, 2);
    Mat h = config.qubit(0).detuning * n1 + config.qubit(1).detuning * n2 +
            config.cr.zz_static * (n1 * n2);
    std::vector<Mat> collapse;
    for (std::size_t q = 0; q < 2; ++q) {
        const auto& p = config.qubit(q);
        collapse.push_back(std::sqrt(1.0 / p.t1) * op_on_qubit(quantum::sigma_minus(), q, 2));
        const double gphi = dephasing_rate(p.t1, p.t2);
        if (gphi > 0.0) collapse.push_back(std::sqrt(2.0 * gphi) * op_on_qubit(n_q, q, 2));
    }

    auto add_drive = [&](std::complex<double> s, std::size_t q) {
        const auto& p = config.qubit(q);
        const double rate = p.omega_max * p.amp_scale;
        if (s == std::complex<double>{0.0, 0.0} || rate == 0.0) return;
        const Mat h_drive = (0.5 * rate * s.real()) * op_on_qubit(sigma_x(), q, 2) +
                            (0.5 * rate * s.imag()) * op_on_qubit(sigma_y(), q, 2);
        h += h_drive;
        if (p.drive_amp_noise > 0.0) {
            collapse.push_back(std::sqrt(p.drive_amp_noise) * h_drive);
        }
    };
    add_drive(d0, 0);
    add_drive(d1, 1);

    if (u0 != std::complex<double>{0.0, 0.0}) {
        // ZX + IX on the target plus classical crosstalk on the control; the
        // drive phase rotates the target axis X -> Y.
        const Mat zx_part = linalg::kron(sigma_z(), sigma_x());
        const Mat zy_part = linalg::kron(sigma_z(), sigma_y());
        h += (0.5 * config.cr.zx_rate) * (u0.real() * zx_part + u0.imag() * zy_part);
        h += (0.5 * config.cr.ix_rate) *
             (u0.real() * op_on_qubit(sigma_x(), 1, 2) + u0.imag() * op_on_qubit(sigma_y(), 1, 2));
        h += (0.5 * config.cr.classical_crosstalk) *
             (u0.real() * op_on_qubit(sigma_x(), 0, 2) + u0.imag() * op_on_qubit(sigma_y(), 0, 2));
    }
    return quantum::liouvillian(h, collapse);
}

/// block <- e^{dt L(s_n)} ... e^{dt L(s_1)} block on `qubit`, one Pade
/// propagator per sample.
inline void propagate_pade_1q(const BackendConfig& config,
                              const std::vector<std::complex<double>>& samples,
                              std::size_t qubit, Mat& block) {
    for (const std::complex<double> s : samples) {
        block = linalg::expm(config.dt * lindblad_generator_1q(config, s, qubit)) * block;
    }
}

/// The pair's Pade state stream over D0, D1 and U0, zero-padded to a common
/// length.
inline void propagate_pade_2q(const BackendConfig& config,
                              const std::vector<std::complex<double>>& d0,
                              const std::vector<std::complex<double>>& d1,
                              const std::vector<std::complex<double>>& u0, Mat& block) {
    const std::size_t n = std::max({d0.size(), d1.size(), u0.size()});
    auto at = [](const std::vector<std::complex<double>>& s, std::size_t t) {
        return t < s.size() ? s[t] : std::complex<double>{};
    };
    for (std::size_t t = 0; t < n; ++t) {
        const Mat gen = lindblad_generator_2q(config, at(d0, t), at(d1, t), at(u0, t));
        block = linalg::expm(config.dt * gen) * block;
    }
}

}  // namespace qoc::device::reference
