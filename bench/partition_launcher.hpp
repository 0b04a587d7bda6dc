// Forking launcher for fragment-partitioned bench runs.
//
// Spawns one worker process per fragment over a pre-built AF_UNIX
// socketpair mesh (sim/transport.hpp), runs the caller's workload in every
// worker — the calling process doubles as fragment 0 — and reduces the
// workers' per-cycle partial Tracker digests by summation (mod 2^64,
// Tracker::digest is commutative), which reproduces the single-process
// digest series exactly. Bench mains use this for --partitions N; the
// distributed-smoke CI job diffs the resulting trajectory fingerprint
// against a single-process run.
//
// fork() is only safe here because bench mains call this before creating
// any threads; each worker's engine builds its own pool post-fork.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/transport.hpp"

namespace whatsup::bench {

namespace detail {

inline void write_all(int fd, const void* data, std::size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("partition launcher: pipe write failed");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

inline void read_all(int fd, void* data, std::size_t size) {
  char* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      throw std::runtime_error(
          "partition launcher: worker pipe closed early (worker crashed?)");
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

}  // namespace detail

// Runs `worker` once per fragment — fragment 0 in the calling process,
// fragments 1..partitions-1 in forked children — and returns the
// element-wise sum (mod 2^64) of the digest series every worker returns.
// All series must have equal length (they are per-cycle and the workers
// run in lockstep). Throws std::invalid_argument for partitions < 2 (a
// single-process run needs no launcher) and std::runtime_error if a worker
// exits abnormally.
inline std::vector<std::uint64_t> run_partitioned(
    std::size_t partitions,
    const std::function<std::vector<std::uint64_t>(sim::SocketTransport&)>& worker) {
  if (partitions <= 1) {
    throw std::invalid_argument("partition launcher: needs at least 2 partitions");
  }
  std::vector<std::vector<int>> mesh = sim::socketpair_mesh(partitions);
  std::vector<int> pipes(partitions, -1);  // parent's read end per child
  std::vector<pid_t> pids(partitions, -1);
  for (std::size_t w = 1; w < partitions; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw std::runtime_error("partition launcher: pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("partition launcher: fork failed");
    if (pid == 0) {
      // Child = fragment w: keep only this fragment's mesh row and the
      // write end of its own result pipe.
      ::close(fds[0]);
      for (std::size_t i = 0; i < partitions; ++i) {
        if (i == w) continue;
        for (int fd : mesh[i]) {
          if (fd >= 0) ::close(fd);
        }
        if (pipes[i] >= 0) ::close(pipes[i]);
      }
      int status = 0;
      try {
        sim::SocketTransport transport(w, std::move(mesh[w]));
        const std::vector<std::uint64_t> series = worker(transport);
        const std::uint64_t count = series.size();
        detail::write_all(fds[1], &count, sizeof(count));
        detail::write_all(fds[1], series.data(), series.size() * sizeof(std::uint64_t));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "worker %zu: %s\n", w, e.what());
        status = 1;
      }
      ::close(fds[1]);
      ::_exit(status);
    }
    ::close(fds[1]);
    pipes[w] = fds[0];
    pids[w] = pid;
    // The parent no longer needs this child's mesh row.
    for (int& fd : mesh[w]) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }

  // Parent = fragment 0.
  std::vector<std::uint64_t> sum;
  {
    sim::SocketTransport transport(0, std::move(mesh[0]));
    sum = worker(transport);
  }
  for (std::size_t w = 1; w < partitions; ++w) {
    std::uint64_t count = 0;
    detail::read_all(pipes[w], &count, sizeof(count));
    std::vector<std::uint64_t> series(count);
    detail::read_all(pipes[w], series.data(), count * sizeof(std::uint64_t));
    ::close(pipes[w]);
    if (series.size() != sum.size()) {
      throw std::runtime_error("partition launcher: digest series length mismatch");
    }
    for (std::size_t c = 0; c < series.size(); ++c) sum[c] += series[c];
    int status = 0;
    if (::waitpid(pids[w], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      throw std::runtime_error("partition launcher: worker " + std::to_string(w) +
                               " exited abnormally");
    }
  }
  return sum;
}

}  // namespace whatsup::bench
