#include "sim/transport.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace whatsup::sim {

namespace {

[[noreturn]] void die(const std::string& what) {
  throw std::runtime_error("SocketTransport: " + what);
}

// Wire-level truth for one fragment process: framed bytes actually moved
// through the socket mesh (includes frame headers, unlike the engine's
// slot-labeled envelope byte counters) and time parked in the poll loop.
struct TransportMetrics {
  obs::MetricId exchanges = obs::counter("transport.socket.exchanges");
  obs::MetricId wire_bytes_out = obs::counter("transport.socket.bytes_out", "bytes");
  obs::MetricId wire_bytes_in = obs::counter("transport.socket.bytes_in", "bytes");
  obs::HistogramId wait =
      obs::histogram("transport.socket.exchange_ns", obs::time_bounds_ns(), "ns");

  static const TransportMetrics& get() {
    static const TransportMetrics m;
    return m;
  }
};

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    die("fcntl(O_NONBLOCK) failed: " + std::string(std::strerror(errno)));
  }
}

void close_all(const std::vector<int>& fds) {
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
}

}  // namespace

SocketTransport::SocketTransport(std::size_t fragment_id,
                                 std::vector<int> peer_fds)
    : fragment_(fragment_id), fds_(std::move(peer_fds)) {
  // The destructor does not run for a constructor that throws, so the
  // fds this object already owns are closed here before rethrowing.
  try {
    if (fragment_ >= fds_.size()) die("fragment_id out of range");
    for (std::size_t f = 0; f < fds_.size(); ++f) {
      if (f == fragment_) continue;
      if (fds_[f] < 0) die("missing peer fd");
      set_nonblocking(fds_[f]);
    }
    inbuf_.resize(fds_.size());
  } catch (...) {
    close_all(fds_);
    throw;
  }
}

SocketTransport::~SocketTransport() { close_all(fds_); }

std::vector<std::vector<std::uint8_t>> SocketTransport::exchange(
    const std::vector<std::vector<std::uint8_t>>& out) {
  const std::size_t n = fds_.size();
  if (out.size() != n) die("batch count does not match fragment count");
  std::vector<std::vector<std::uint8_t>> in(n);
  WUP_TRACE_SCOPE("socket_exchange");
  const bool obs_on = obs::enabled();
  const std::uint64_t obs_t0 = obs_on ? obs::now_ns() : 0;

  // Frame every outgoing batch up front (empty batches still ship an empty
  // frame — the frame is the barrier token).
  std::vector<std::vector<std::uint8_t>> wbuf(n);
  std::vector<std::size_t> woff(n, 0);
  std::vector<bool> got(n, false);
  std::size_t pending_writes = 0;
  std::size_t pending_reads = 0;
  for (std::size_t f = 0; f < n; ++f) {
    if (f == fragment_) continue;
    net::frame_append(wbuf[f], std::span<const std::uint8_t>(out[f]));
    ++pending_writes;
    ++pending_reads;
    // A fast peer may already have shipped this slot's frame.
    std::size_t off = 0;
    std::span<const std::uint8_t> payload;
    const auto status =
        net::frame_extract(inbuf_[f].data(), inbuf_[f].size(), off, payload);
    if (status == net::FrameStatus::kCorrupt) die("corrupt frame from peer");
    if (status == net::FrameStatus::kOk) {
      in[f].assign(payload.begin(), payload.end());
      inbuf_[f].erase(inbuf_[f].begin(),
                      inbuf_[f].begin() + static_cast<std::ptrdiff_t>(off));
      got[f] = true;
      --pending_reads;
    }
  }

  std::vector<pollfd> pfds;
  pfds.reserve(n);
  std::uint8_t chunk[1 << 16];
  while (pending_writes > 0 || pending_reads > 0) {
    pfds.clear();
    for (std::size_t f = 0; f < n; ++f) {
      if (f == fragment_) continue;
      short events = 0;
      if (woff[f] < wbuf[f].size()) events |= POLLOUT;
      if (!got[f]) events |= POLLIN;
      if (events == 0) continue;
      pfds.push_back(pollfd{fds_[f], events, 0});
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      die("poll failed: " + std::string(std::strerror(errno)));
    }
    for (const pollfd& p : pfds) {
      // Recover the fragment index for this fd.
      std::size_t f = 0;
      while (f < n && fds_[f] != p.fd) ++f;
      if ((p.revents & (POLLOUT | POLLERR | POLLHUP)) != 0 &&
          woff[f] < wbuf[f].size()) {
        // MSG_NOSIGNAL: a dead peer must surface as EPIPE (-> exception),
        // not a process-wide SIGPIPE.
        const ssize_t written = ::send(p.fd, wbuf[f].data() + woff[f],
                                       wbuf[f].size() - woff[f], MSG_NOSIGNAL);
        if (written < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            die("write failed: " + std::string(std::strerror(errno)));
          }
        } else {
          woff[f] += static_cast<std::size_t>(written);
          if (woff[f] == wbuf[f].size()) --pending_writes;
        }
      }
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) != 0 && !got[f]) {
        const ssize_t got_bytes = ::read(p.fd, chunk, sizeof(chunk));
        if (got_bytes < 0) {
          if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
            die("read failed: " + std::string(std::strerror(errno)));
          }
          continue;
        }
        if (got_bytes == 0) die("peer closed the connection mid-run");
        inbuf_[f].insert(inbuf_[f].end(), chunk, chunk + got_bytes);
        std::size_t off = 0;
        std::span<const std::uint8_t> payload;
        const auto status =
            net::frame_extract(inbuf_[f].data(), inbuf_[f].size(), off, payload);
        if (status == net::FrameStatus::kCorrupt) {
          die("corrupt frame from peer");
        }
        if (status == net::FrameStatus::kOk) {
          in[f].assign(payload.begin(), payload.end());
          inbuf_[f].erase(inbuf_[f].begin(),
                          inbuf_[f].begin() + static_cast<std::ptrdiff_t>(off));
          got[f] = true;
          --pending_reads;
        }
      }
    }
  }
  if (obs_on) {
    const TransportMetrics& om = TransportMetrics::get();
    obs::add(om.exchanges);
    std::uint64_t wire_out = 0;
    for (const auto& w : wbuf) wire_out += w.size();
    obs::add(om.wire_bytes_out, wire_out);
    std::uint64_t wire_in = 0;
    for (std::size_t f = 0; f < n; ++f) {
      if (f != fragment_) wire_in += in[f].size();
    }
    obs::add(om.wire_bytes_in, wire_in);
    obs::observe(om.wait, obs::now_ns() - obs_t0);
  }
  return in;
}

std::vector<std::vector<int>> socketpair_mesh(std::size_t n) {
  std::vector<std::vector<int>> mesh(n, std::vector<int>(n, -1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      int pair[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
        throw std::runtime_error("socketpair failed: " +
                                 std::string(std::strerror(errno)));
      }
      mesh[i][j] = pair[0];
      mesh[j][i] = pair[1];
    }
  }
  return mesh;
}

}  // namespace whatsup::sim
