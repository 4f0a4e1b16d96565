// dmc::par — the process-wide worker pool every parallel code path in the
// repository goes through (enforced by the dmc-lint `raw-thread` rule: no
// raw std::thread / std::async outside src/par/).
//
// The model is deliberately small: one work-stealing-by-chunks job at a
// time. parallel_for(threads, n, body) runs body(0..n-1) with the calling
// thread participating alongside up to threads-1 lazily-spawned workers;
// indices are claimed in contiguous chunks off a shared atomic cursor, so
// idle threads steal whatever range is left. Nested or concurrent
// parallel_for calls from inside a job degrade to an inline serial loop
// (deadlock-free by construction), and threads <= 1 or n <= 1 takes the
// exact legacy serial path with no pool interaction at all.
//
// Exceptions thrown by body are captured (first one wins), further chunk
// claims are cancelled, and the exception is rethrown on the calling
// thread once all participants have drained.
#pragma once

#include <cstddef>
#include <functional>

namespace dmc::par {

/// std::thread::hardware_concurrency(), clamped to at least 1.
int hardware_threads();

/// True while the calling thread is executing inside a parallel_for body
/// (its own or as a pool worker). Nested parallel_for calls run inline.
bool in_parallel_region();

/// Runs body(i) for i in [0, n). `threads` is the total desired
/// parallelism including the caller (0 = hardware_threads()); 1 is the
/// exact serial path. Blocks until every index has run.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace dmc::par
