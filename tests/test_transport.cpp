// SocketTransport (sim/transport.hpp): the socket mesh the
// fragment-partitioned engine exchanges envelope batches over. The tests
// drive real AF_UNIX socketpairs from threads — the same mesh the forking
// bench launcher hands to worker processes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/transport.hpp"

namespace whatsup::sim {
namespace {

using Batches = std::vector<std::vector<std::uint8_t>>;

void close_row(const std::vector<int>& row) {
  for (int fd : row) {
    if (fd >= 0) ::close(fd);
  }
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A deterministic per-(slot, sender, receiver) payload so every byte of
// every exchanged batch can be verified on the receiving side.
std::vector<std::uint8_t> batch_for(std::size_t slot, std::size_t from,
                                    std::size_t to) {
  // Length varies with the slot so some batches span multiple reads and
  // some are empty (pure barrier tokens).
  const std::size_t len = (slot * 7 + from * 3 + to) % 5 == 0
                              ? 0
                              : (slot * 131 + from * 17 + to * 5) % 3000;
  std::vector<std::uint8_t> bytes(len);
  for (std::size_t i = 0; i < len; ++i) {
    bytes[i] = static_cast<std::uint8_t>(slot * 31 + from * 7 + to * 3 + i);
  }
  return bytes;
}

// Full-duplex lockstep over a mesh of `n` fragments for `slots` barriers:
// every worker ships a distinct batch to every peer each slot and must
// receive exactly its peers' batches for that slot, in order, even when a
// fast peer's next-slot frame arrives early (the per-peer receive buffers
// keep frames strictly FIFO).
void exercise_mesh(std::size_t n, std::size_t slots) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      try {
        SocketTransport transport(w, std::move(mesh[w]));
        ASSERT_EQ(transport.fragments(), n);
        ASSERT_EQ(transport.fragment_id(), w);
        for (std::size_t slot = 0; slot < slots; ++slot) {
          Batches out(n);
          for (std::size_t to = 0; to < n; ++to) {
            if (to != w) out[to] = batch_for(slot, w, to);
          }
          const Batches in = transport.exchange(out);
          ASSERT_EQ(in.size(), n);
          EXPECT_TRUE(in[w].empty());
          for (std::size_t from = 0; from < n; ++from) {
            if (from == w) continue;
            EXPECT_EQ(in[from], batch_for(slot, from, w))
                << "worker " << w << " slot " << slot << " from " << from;
          }
          // Odd workers lag behind on odd slots so their peers race ahead
          // and ship the next slot's frames early.
          if (w % 2 == 1 && slot % 2 == 1) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        }
      } catch (const std::exception& e) {
        errors[w] = e.what();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t w = 0; w < n; ++w) {
    EXPECT_EQ(errors[w], "") << "worker " << w;
  }
}

TEST(Transport, SocketMeshTwoFragments) { exercise_mesh(2, 12); }

TEST(Transport, SocketMeshFourFragmentsManySlots) { exercise_mesh(4, 25); }

TEST(Transport, PeerCloseIsFatal) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(2);
  // Fragment 1 never shows up: close its whole row.
  close_row(mesh[1]);
  SocketTransport transport(0, std::move(mesh[0]));
  EXPECT_THROW(transport.exchange(Batches(2)), std::runtime_error);
}

TEST(Transport, CorruptFrameIsFatal) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(2);
  // Write garbage straight onto fragment 1's socket to fragment 0: an
  // absurd length prefix fails frame validation on the receiving side.
  const std::uint8_t junk[8] = {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0};
  ASSERT_EQ(::write(mesh[1][0], junk, sizeof(junk)),
            static_cast<ssize_t>(sizeof(junk)));
  SocketTransport transport(0, std::move(mesh[0]));
  EXPECT_THROW(transport.exchange(Batches(2)), std::runtime_error);
  close_row(mesh[1]);
}

TEST(Transport, FailedConstructionClosesOutOfRangeRow) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(2);
  const std::size_t before = open_fd_count();
  // Fragment id 2 is out of range for a 2-fragment row; the constructor
  // owned the row's one live fd and must close it on the way out.
  EXPECT_THROW(SocketTransport(2, std::move(mesh[0])), std::runtime_error);
  EXPECT_EQ(open_fd_count(), before - 1);
  close_row(mesh[1]);
}

TEST(Transport, FailedConstructionClosesRowWithMissingPeer) {
  std::vector<std::vector<int>> mesh = socketpair_mesh(3);
  ::close(mesh[0][2]);
  mesh[0][2] = -1;  // fragment 2's slot missing; slot 1 is live
  const std::size_t before = open_fd_count();
  EXPECT_THROW(SocketTransport(0, std::move(mesh[0])), std::runtime_error);
  EXPECT_EQ(open_fd_count(), before - 1);
  close_row(mesh[1]);
  close_row(mesh[2]);
}

TEST(Transport, MeshShapeAndOwnership) {
  const std::size_t n = 3;
  std::vector<std::vector<int>> mesh = socketpair_mesh(n);
  ASSERT_EQ(mesh.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(mesh[i].size(), n);
    EXPECT_EQ(mesh[i][i], -1);
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) EXPECT_GE(mesh[i][j], 0);
    }
  }
  for (const auto& row : mesh) close_row(row);
}

}  // namespace
}  // namespace whatsup::sim
