#include "pss/backend/backend.hpp"

#include "pss/backend/kernels.hpp"
#include "pss/common/error.hpp"

namespace pss {

namespace {

struct BackendEntry {
  const char* name;
  const KernelTable& (*table)();
};

// The registry is a constant table of function pointers, so concurrent
// backend_names()/make_backend() calls need no lock.
constexpr BackendEntry kEntries[] = {
    {"cpu", cpu_kernel_table},
    {"cpu_sparse", cpu_sparse_kernel_table},
};

}  // namespace

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const BackendEntry& e : kEntries) names.emplace_back(e.name);
  return names;
}

std::unique_ptr<Backend> make_backend(const std::string& name,
                                      Engine* engine) {
  std::string known;
  for (const BackendEntry& e : kEntries) {
    if (name == e.name) {
      return std::make_unique<Backend>(e.name, engine, e.table());
    }
    if (!known.empty()) known += "|";
    known += e.name;
  }
  throw Error("unknown backend '" + name + "' (known: " + known + ")");
}

Backend& default_backend() {
  static Backend backend("cpu", &default_engine(), cpu_kernel_table());
  return backend;
}

}  // namespace pss
