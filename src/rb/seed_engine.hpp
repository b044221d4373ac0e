/// \file seed_engine.hpp
/// \brief The batched (structure-of-arrays) 1Q seed engine behind standard,
///        interleaved and leakage RB.  Internal to `qoc_rb`; the public
///        entry points are in rb.hpp and leakage_rb.hpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "rb/rb.hpp"

namespace qoc::rb::detail {

/// Throws `std::invalid_argument` naming `caller` and the field when
/// `options` has fewer than 3 lengths, no seeds or fewer than 1 shot.
void validate_options(const RbOptions& options, const char* caller);

/// One Clifford step of a 1Q seed block: column j of the d^2 x bw block `x`
/// goes through Clifford `idx[j]`.  A block that drew one Clifford takes one
/// batched apply; a mixed block takes one `gemv_gather_block` call over the
/// gate set's packed table.  Both commit the bits of one strided matvec per
/// column.  The result is left in `x`; `x_next` is scratch.
void step_block_1q(const GateSet1Q& gates, const std::size_t* idx, std::size_t bw, Mat& x,
                   Mat& x_next);

/// A seed whose sequence has run, as handed to the readout.
struct FinishedSeed {
    const Mat& block;      ///< the seed block; column `col` is this seed's vec(rho)
    std::size_t col;
    std::size_t length;    ///< sequence length m
    std::size_t seed;      ///< seed index within the length
    std::mt19937_64& rng;  ///< the seed's stream after its sequence draws
    Mat& scratch;          ///< per-thread d^2 x 1 buffer
};

/// What distinguishes one 1Q RB experiment from another in the engine.
struct SeedBlocks1Q {
    const char* span;        ///< obs span around each block
    std::uint64_t stream;    ///< seed s of length index li draws from
                             ///< `mt19937_64(rng_seed + stream * (li * 1000 + s))`
    const Mat* interleave = nullptr;   ///< applied to the block after every Clifford
    std::size_t interleave_index = 0;  ///< its Clifford index (for the recovery)
};

/// Runs every length of `opts`.  Per seed, the sequence (and its recovery
/// Clifford) is drawn first; then the seed blocks advance through
/// `step_block_1q` from the ground state, and `readout` turns each finished
/// seed into its value, in seed order within a block.  Returns the values
/// per length, per seed.
std::vector<std::vector<double>> run_seed_blocks_1q(
    const PulseExecutor& exec, const GateSet1Q& gates, const RbOptions& opts,
    const SeedBlocks1Q& blocks, const std::function<double(const FinishedSeed&)>& readout);

}  // namespace qoc::rb::detail
