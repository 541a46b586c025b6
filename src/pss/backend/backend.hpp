// Compute backend — the kernel dispatch seam of the paper's architecture.
//
// ParallelSpikeSim maps every hot loop (encode, current accumulation, neuron
// update, STDP row update) onto GPU kernels. Our Engine emulates the CUDA
// launch model on a thread pool; a Backend pairs that Engine with one
// KernelTable, so every hot loop is dispatched through a single table:
//
//   Backend  — a name, the Engine kernels launch on, and a KernelTable.
//   Registry — backends are constructed by name:
//     "cpu"        the reference kernels (kernels_cpu.cpp) every
//                  differential test compares against;
//     "cpu_sparse" the fast path: event-list encoders, CSR spike
//                  propagation, lazy STDP and the spatially hoisted conv
//                  (kernels_sparse.cpp) over the reference dense slots.
//
// Rule: new hot-path kernels must be *registered* — added to the KernelTable
// and implemented per backend — never inlined as ad-hoc Engine::launch
// lambdas at call sites. The table is the single place compute is dispatched
// from (see DESIGN.md "Compute backends").
//
// Contract: every dense kernel slot is bitwise-identical to `cpu` at any
// worker count (cpu_sparse's conv_accumulate reorders the loops, not the
// additions). The event-driven slots cpu_sparse adds have their own
// contracts (see kernels_sparse.cpp); WtaNetwork probes the table and
// switches to the event-driven presentation loop when they are present.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pss/engine/launch.hpp"

namespace pss {

struct KernelTable;

/// A named kernel table bound to the Engine its kernels launch on. Launches
/// run synchronously on the Engine, and pool state lives in host memory.
class Backend {
 public:
  Backend(const char* name, Engine* engine, const KernelTable& table)
      : name_(name), engine_(engine ? engine : &default_engine()),
        table_(&table) {}

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  const char* name() const { return name_; }

  /// The launch engine this backend enqueues kernels on.
  Engine& engine() const { return *engine_; }

  /// The registered kernel implementations this backend dispatches.
  const KernelTable& kernels() const { return *table_; }

 private:
  const char* name_;
  Engine* engine_;
  const KernelTable* table_;
};

/// Names of all registered backends, in registration order (cpu first — the
/// default).
std::vector<std::string> backend_names();

/// Constructs a backend by name, bound to `engine` (nullptr = the process
/// default engine). Throws pss::Error for unknown names, listing the valid
/// ones.
std::unique_ptr<Backend> make_backend(const std::string& name,
                                      Engine* engine = nullptr);

/// Process-wide `cpu` backend over default_engine(), for components
/// constructed without an explicit backend (tests, benches, standalone use).
Backend& default_backend();

}  // namespace pss
