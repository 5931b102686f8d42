// EINTR-retrying, short-transfer-looping wrappers around the raw POSIX I/O
// calls (DESIGN.md §15). Every pread/read/send/recv in the library goes
// through these, and the library issues no raw write —
// scripts/check_raw_io.sh lint-fails any new raw call site — so
// interrupted syscalls and partial transfers are handled in exactly one
// place, and the qdv::fault injector has one choke point per site to
// perturb.
//
// File helpers throw std::runtime_error on hard errors; socket helpers
// return status (peers legitimately vanish). All are thread-safe (no shared
// state beyond the fault schedule).
#pragma once

#include <cstddef>
#include <cstdint>

#include "fault/fault.hpp"

namespace qdv::io {

/// pread exactly @p n bytes at @p offset, looping over short reads and
/// EINTR. Returns the bytes read — n, or less on end-of-file. Throws
/// std::runtime_error on a read error.
std::size_t pread_full(int fd, void* dst, std::size_t n, std::uint64_t offset);

/// read() the next @p n bytes, same contract as pread_full.
std::size_t read_full(int fd, void* dst, std::size_t n);

/// Outcome of a socket transfer.
enum class XferResult {
  kOk,       // all n bytes moved
  kClosed,   // peer closed / connection reset
  kTimeout,  // SO_RCVTIMEO / SO_SNDTIMEO expired
};

/// send() exactly @p n bytes on a socket, looping over short sends and
/// EINTR; @p site tags the transfer for fault injection.
XferResult send_full(int fd, const void* src, std::size_t n, fault::Site site);

/// One recv() of at most @p cap bytes — line-oriented protocols read in
/// chunks and scan for the delimiter themselves. On kOk, @p got holds the
/// chunk size (> 0); kClosed covers orderly shutdown and hard errors.
XferResult recv_some(int fd, void* dst, std::size_t cap, fault::Site site,
                     std::size_t& got);

}  // namespace qdv::io
