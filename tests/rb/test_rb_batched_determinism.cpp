/// Determinism contracts of the batched (structure-of-arrays) RB seed
/// engine introduced with the structured superoperator kernels:
///
///  1. Partition invariance: any `seed_block` width -- scalar per-seed
///     blocks, the auto thread-spread width, one huge block -- commits
///     bitwise-identical curves, because the simd kernel family accumulates
///     each output element in the same order on the batched, strided and
///     single-column paths.
///  2. Thread invariance: 1-vs-N task-pool sizes are bitwise identical even
///     though the auto block width depends on the pool size.
///  3. Batched-vs-reference: the per-seed dense reference engine
///     (rb_reference.hpp), replaying the same RNG streams, reproduces the
///     batched curves to 1e-12 -- the two differ only in floating-point
///     association.

#include "rb/rb.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "device/calibration.hpp"
#include "linalg/kron.hpp"
#include "quantum/gates.hpp"
#include "rb/leakage_rb.hpp"
#include "rb/rb_reference.hpp"
#include "rb/seed_engine.hpp"
#include "runtime/task_pool.hpp"

namespace qoc::rb {
namespace {

device::PulseExecutor& exec() {
    static device::PulseExecutor instance{device::ibmq_montreal()};
    return instance;
}

const pulse::InstructionScheduleMap& defaults() {
    static pulse::InstructionScheduleMap map = device::build_default_gates(exec());
    return map;
}

const Clifford1Q& c1() {
    static Clifford1Q instance;
    return instance;
}

const GateSet1Q& gates1q() {
    static GateSet1Q instance{exec(), defaults(), 0, c1()};
    return instance;
}

RbOptions small_opts() {
    RbOptions opts;
    opts.lengths = {1, 20, 40};
    opts.seeds_per_length = 6;
    opts.shots = 1024;
    return opts;
}

void expect_bitwise(const RbCurve& a, const RbCurve& b, const char* what) {
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_EQ(a.points[i].mean_survival, b.points[i].mean_survival) << what << " i=" << i;
        EXPECT_EQ(a.points[i].sem, b.points[i].sem) << what << " i=" << i;
    }
    EXPECT_EQ(a.alpha, b.alpha) << what;
    EXPECT_EQ(a.epc, b.epc) << what;
}

TEST(RbBatchedDeterminism, SeedBlockWidthIsUnobservable1Q) {
    RbOptions opts = small_opts();
    opts.seed_block = 0;  // auto
    const RbCurve ref = run_rb_1q(exec(), gates1q(), 0, opts);
    for (std::size_t block : {1ul, 2ul, 3ul, 6ul, 32ul}) {
        opts.seed_block = block;
        expect_bitwise(ref, run_rb_1q(exec(), gates1q(), 0, opts), "seed_block");
    }
}

TEST(RbBatchedDeterminism, BatchedVsScalarSeedPropagation1Q) {
    // seed_block = 1 degenerates every block to the single-seed (scalar)
    // propagation; the wide block exercises the d^2 x B broadcast path.
    RbOptions scalar = small_opts();
    scalar.seed_block = 1;
    RbOptions wide = small_opts();
    wide.seed_block = wide.seeds_per_length;
    expect_bitwise(run_rb_1q(exec(), gates1q(), 0, scalar),
                   run_rb_1q(exec(), gates1q(), 0, wide), "scalar-vs-batched");
}

TEST(RbBatchedDeterminism, ThreadCountIsUnobservableDespiteAutoWidth) {
    // The auto block width DEPENDS on the pool size; bitwise equality across
    // pool sizes is exactly the partition-invariance corollary.
    const RbOptions opts = small_opts();
    auto run = [&] { return run_rb_1q(exec(), gates1q(), 0, opts); };
    RbCurve ref;
    {
        runtime::ScopedPoolSize scoped(1);
        ref = run();
    }
    for (std::size_t threads : {2ul, 4ul}) {
        runtime::ScopedPoolSize scoped(threads);
        expect_bitwise(ref, run(), "threads");
    }
}

TEST(RbBatchedDeterminism, PerSeedReferenceAgreesToTolerance1Q) {
    const RbOptions opts = small_opts();
    const RbCurve batched = run_rb_1q(exec(), gates1q(), 0, opts);
    const RbCurve dense = reference::rb_curve_1q(exec(), gates1q(), 0, opts);

    ASSERT_EQ(batched.points.size(), dense.points.size());
    for (std::size_t i = 0; i < batched.points.size(); ++i) {
        EXPECT_NEAR(batched.points[i].mean_survival, dense.points[i].mean_survival, 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.epc, dense.epc, 1e-9);
}

TEST(RbBatchedDeterminism, PerSeedReferenceAgreesToToleranceLeakage) {
    RbOptions opts = small_opts();
    opts.lengths = {1, 15, 30};
    const LeakageRbResult batched = run_leakage_rb_1q(exec(), gates1q(), opts);
    const LeakageRbResult dense = reference::leakage_rb_1q(exec(), gates1q(), opts);

    ASSERT_EQ(batched.leakage_population.size(), dense.leakage_population.size());
    for (std::size_t i = 0; i < batched.leakage_population.size(); ++i) {
        EXPECT_NEAR(batched.leakage_population[i], dense.leakage_population[i], 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.lambda, dense.lambda, 1e-9);
}

TEST(RbBatchedDeterminism, LeakageSeedBlockWidthIsUnobservable) {
    RbOptions opts = small_opts();
    opts.lengths = {1, 15, 30};
    opts.seed_block = 0;
    const LeakageRbResult ref = run_leakage_rb_1q(exec(), gates1q(), opts);
    for (std::size_t block : {1ul, 4ul, 32ul}) {
        opts.seed_block = block;
        const LeakageRbResult other = run_leakage_rb_1q(exec(), gates1q(), opts);
        ASSERT_EQ(ref.leakage_population.size(), other.leakage_population.size());
        for (std::size_t i = 0; i < ref.leakage_population.size(); ++i) {
            EXPECT_EQ(ref.leakage_population[i], other.leakage_population[i]) << "i=" << i;
        }
        EXPECT_EQ(ref.lambda, other.lambda);
    }
}

TEST(RbBatchedDeterminism, InterleavedBatchAgreesWithPerSeedReference1Q) {
    // IRB adds the broadcast interleave step (one apply_batch_into per
    // Clifford step for the whole block) on top of the mixed per-seed steps.
    const Mat x_super = exec().schedule_superop_1q(defaults().get("x", {0}), 0);
    const std::size_t x_index = c1().find(quantum::gates::x());
    RbOptions opts = small_opts();
    opts.lengths = {1, 16, 32};
    opts.seeds_per_length = 4;

    const IrbResult batched = run_irb_1q(exec(), gates1q(), 0, x_super, x_index, opts);
    const IrbResult dense = reference::irb_1q(exec(), gates1q(), 0, x_super, x_index, opts);

    for (std::size_t i = 0; i < batched.interleaved.points.size(); ++i) {
        EXPECT_NEAR(batched.interleaved.points[i].mean_survival,
                    dense.interleaved.points[i].mean_survival, 1e-12)
            << "i=" << i;
    }
    EXPECT_NEAR(batched.gate_error, dense.gate_error, 1e-9);
}

/// The per-column form of a 1Q block step: one structured apply per seed
/// column (a strided dense or CSR matvec), or one batched apply when the
/// block drew one Clifford.
void per_column_step(const GateSet1Q& gates, const std::size_t* idx, std::size_t bw, Mat& x,
                     Mat& x_next) {
    bool same = true;
    for (std::size_t j = 1; j < bw; ++j) same = same && idx[j] == idx[0];
    if (same) {
        gates.clifford_structured(idx[0]).apply_batch_into(x, x_next);
    } else {
        x_next.resize(x.rows(), x.cols());
        for (std::size_t j = 0; j < bw; ++j) {
            gates.clifford_structured(idx[j]).apply_col(x.data().data() + j,
                                                        x_next.data().data() + j, bw);
        }
    }
    std::swap(x, x_next);
}

TEST(RbBatchedDeterminism, MixedStepKeepsPerColumnStatesBitwiseOver4000Steps) {
    // RB survivals are quantized to 1/shots, so they cannot see a last-bit
    // change in a state; compare the final block states themselves.  Every
    // 50th step the whole block draws one Clifford (the batched branch).
    const Mat vec_rho0 = linalg::vec(exec().ground_state_1q());
    for (std::size_t bw : {3ul, 16ul}) {
        Mat a(vec_rho0.rows(), bw), b, scratch_a, scratch_b;
        for (std::size_t r = 0; r < a.rows(); ++r) {
            for (std::size_t j = 0; j < bw; ++j) a(r, j) = vec_rho0(r, 0);
        }
        b = a;
        std::mt19937_64 rng(4242 + bw);
        std::uniform_int_distribution<std::size_t> dist(0, Clifford1Q::kSize - 1);
        std::vector<std::size_t> idx(bw);
        for (std::size_t step = 0; step < 4000; ++step) {
            for (std::size_t& i : idx) i = dist(rng);
            if (step % 50 == 0) std::fill(idx.begin(), idx.end(), idx[0]);
            detail::step_block_1q(gates1q(), idx.data(), bw, a, scratch_a);
            per_column_step(gates1q(), idx.data(), bw, b, scratch_b);
        }
        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        for (std::size_t k = 0; k < a.data().size(); ++k) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.data()[k].real()),
                      std::bit_cast<std::uint64_t>(b.data()[k].real()))
                << "bw=" << bw << " element " << k;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.data()[k].imag()),
                      std::bit_cast<std::uint64_t>(b.data()[k].imag()))
                << "bw=" << bw << " element " << k;
        }
    }
}

}  // namespace
}  // namespace qoc::rb
