#include "io/io_util.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

namespace qdv::io {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

// Flip one seeded-random bit in a freshly transferred span — downstream
// checksums must catch it.
void flip_bit(void* data, std::size_t n) {
  if (n == 0) return;
  const std::uint64_t r = fault::draw();
  static_cast<unsigned char*>(data)[(r >> 3) % n] ^=
      static_cast<unsigned char>(1u << (r & 7));
}

void maybe_delay(fault::Site site) {
  if (fault::roll(site, fault::Kind::kLatency))
    std::this_thread::sleep_for(
        std::chrono::milliseconds(1 + fault::draw() % 10));
}

}  // namespace

std::size_t pread_full(int fd, void* dst, std::size_t n, std::uint64_t offset) {
  auto* out = static_cast<char*>(dst);
  std::size_t total = 0;
  while (total < n) {
    std::size_t ask = n - total;
    if (fault::enabled()) {
      maybe_delay(fault::Site::kFile);
      if (fault::roll(fault::Site::kFile, fault::Kind::kEintr)) continue;
      if (fault::roll(fault::Site::kFile, fault::Kind::kTruncate))
        return total;  // simulated premature EOF
      if (ask > 1 && fault::roll(fault::Site::kFile, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t got =
        ::pread(fd, out + total, ask, static_cast<off_t>(offset + total));
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("pread failed");
    }
    if (got == 0) return total;  // end of file
    if (fault::enabled() &&
        fault::roll(fault::Site::kFile, fault::Kind::kBitFlip))
      flip_bit(out + total, static_cast<std::size_t>(got));
    total += static_cast<std::size_t>(got);
  }
  return total;
}

std::size_t read_full(int fd, void* dst, std::size_t n) {
  auto* out = static_cast<char*>(dst);
  std::size_t total = 0;
  while (total < n) {
    std::size_t ask = n - total;
    if (fault::enabled()) {
      maybe_delay(fault::Site::kFile);
      if (fault::roll(fault::Site::kFile, fault::Kind::kEintr)) continue;
      if (fault::roll(fault::Site::kFile, fault::Kind::kTruncate)) return total;
      if (ask > 1 && fault::roll(fault::Site::kFile, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t got = ::read(fd, out + total, ask);
    if (got < 0) {
      if (errno == EINTR) continue;
      throw_errno("read failed");
    }
    if (got == 0) return total;
    if (fault::enabled() &&
        fault::roll(fault::Site::kFile, fault::Kind::kBitFlip))
      flip_bit(out + total, static_cast<std::size_t>(got));
    total += static_cast<std::size_t>(got);
  }
  return total;
}

XferResult send_full(int fd, const void* src, std::size_t n,
                     fault::Site site) {
  const auto* in = static_cast<const char*>(src);
  std::size_t total = 0;
  while (total < n) {
    std::size_t ask = n - total;
    if (fault::enabled()) {
      maybe_delay(site);
      if (fault::roll(site, fault::Kind::kEintr)) continue;
      if (fault::roll(site, fault::Kind::kConnReset) ||
          fault::roll(site, fault::Kind::kTruncate))
        return XferResult::kClosed;
      if (ask > 1 && fault::roll(site, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t put = ::send(fd, in + total, ask, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return XferResult::kTimeout;
      return XferResult::kClosed;  // EPIPE / ECONNRESET / ...
    }
    total += static_cast<std::size_t>(put);
  }
  return XferResult::kOk;
}

XferResult recv_some(int fd, void* dst, std::size_t cap, fault::Site site,
                     std::size_t& got) {
  got = 0;
  for (;;) {
    std::size_t ask = cap;
    if (fault::enabled()) {
      maybe_delay(site);
      if (fault::roll(site, fault::Kind::kEintr)) continue;
      if (fault::roll(site, fault::Kind::kConnReset) ||
          fault::roll(site, fault::Kind::kTruncate))
        return XferResult::kClosed;
      if (ask > 1 && fault::roll(site, fault::Kind::kShortRead))
        ask = 1 + ask / 2;
    }
    const ssize_t n = ::recv(fd, dst, ask, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return XferResult::kTimeout;
      return XferResult::kClosed;
    }
    if (n == 0) return XferResult::kClosed;
    if (fault::enabled() && fault::roll(site, fault::Kind::kBitFlip))
      flip_bit(dst, static_cast<std::size_t>(n));
    got = static_cast<std::size_t>(n);
    return XferResult::kOk;
  }
}

}  // namespace qdv::io
