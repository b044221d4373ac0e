/// \file io.hpp
/// \brief Serialization of pulses, schedules and benchmarking results to
///        CSV, so designs can be archived, replayed across "days" and
///        plotted externally -- the workflow the paper's multi-day drift
///        experiments require (optimize once, re-run for a week).  Also the
///        JSONL record formats the calibration service persists: pulse-store
///        entries (bitwise-exact, doubles as u64 bit patterns) and fleet
///        request logs (the deterministic-replay input).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "dynamics/propagator.hpp"
#include "pulse/schedule.hpp"
#include "rb/rb.hpp"

namespace qoc::io {

/// Writes control amplitudes as CSV: header `slot,u0,u1,...`, one row per
/// timeslot.
void write_amplitudes_csv(std::ostream& os, const dynamics::ControlAmplitudes& amps);

/// Reads amplitudes back.  Throws `std::runtime_error` on malformed input
/// (ragged rows, non-numeric or non-finite cells, missing header).
dynamics::ControlAmplitudes read_amplitudes_csv(std::istream& is);

/// File-path convenience wrappers.
void save_amplitudes(const std::string& path, const dynamics::ControlAmplitudes& amps);
dynamics::ControlAmplitudes load_amplitudes(const std::string& path);

/// Writes a channel's complex samples as CSV: `t_dt,re,im`.
void write_samples_csv(std::ostream& os, const std::vector<std::complex<double>>& samples);
std::vector<std::complex<double>> read_samples_csv(std::istream& is);

/// Writes an RB curve: `length,survival,sem,fit` plus a comment header with
/// the fit parameters and EPC.
void write_rb_curve_csv(std::ostream& os, const rb::RbCurve& curve);

// --- calibration-service JSONL records -----------------------------------
//
// Low-level, self-describing record structs so `qoc::io` stays below the
// service layer in the dependency order.  Every double travels as the
// decimal rendering of its IEEE-754 bit pattern (a u64), so a store written
// and re-read is BITWISE identical to the in-memory one -- the property the
// service's warm-restart and deterministic-replay contracts rest on.  The
// reader parses exactly the canonical form the writer emits (one compact
// JSON object per line, fixed field order) and throws `std::runtime_error`
// on anything malformed.

/// One content-addressed pulse-store entry.  Serialized with a `"v":2`
/// schema tag: v2 keys fold the optimizer method into the digest, so the
/// reader rejects untagged v1 files (their keys could alias across solvers)
/// rather than silently serving stale entries.
struct PulseStoreRecord {
    std::uint64_t key = 0;           ///< FNV-1a content digest
    std::string gate;                ///< "x", "y", "sx", "h" or "cx"
    std::uint64_t qubit = 0;         ///< target qubit (0 for cx)
    std::uint64_t duration_dt = 0;
    std::uint64_t fid_bits = 0;      ///< bit pattern of the model infidelity
    std::uint64_t state = 0;         ///< EntryState as integer (0 fresh, 1 suspect)
    std::uint64_t design_count = 0;  ///< times this key was (re)designed
    /// Exact per-qubit parameter snapshot the entry was last validated
    /// against, flattened as bit patterns (see service::flatten_params).
    std::vector<std::uint64_t> validated_bits;
    struct Channel {
        std::uint64_t type = 0;      ///< pulse::ChannelType as integer
        std::uint64_t index = 0;
        std::vector<std::uint64_t> re_bits;  ///< per-sample real-part bits
        std::vector<std::uint64_t> im_bits;
    };
    std::vector<Channel> channels;

    bool operator==(const PulseStoreRecord&) const = default;
};

void write_pulse_store_jsonl(std::ostream& os, const std::vector<PulseStoreRecord>& records);
std::vector<PulseStoreRecord> read_pulse_store_jsonl(std::istream& is);

/// One fleet-driver request, enough to re-issue it deterministically.
struct RequestLogRecord {
    std::uint64_t index = 0;   ///< issue order (responses digest in this order)
    std::int64_t day = 0;
    std::uint64_t device_id = 0;
    std::string gate;
    std::uint64_t qubit = 0;
    std::uint64_t duration_dt = 0;
    std::uint64_t n_timeslots = 0;
    std::int64_t max_iterations = 0;
    std::uint64_t design_seed = 0;
    std::uint64_t priority = 0;

    bool operator==(const RequestLogRecord&) const = default;
};

void write_request_log_jsonl(std::ostream& os, const std::vector<RequestLogRecord>& records);
std::vector<RequestLogRecord> read_request_log_jsonl(std::istream& is);

}  // namespace qoc::io
