// Seeded violation for the raw-perf-syscall rule: opening a hardware-counter
// fd, which the rule allows nowhere.
#include <sys/syscall.h>
#include <unistd.h>

struct perf_event_attr;

long open_counter(perf_event_attr* attr) {
  return syscall(SYS_perf_event_open, attr, 0, -1, -1, 0);
}

long open_counter_nr(perf_event_attr* attr) {
  return syscall(__NR_perf_event_open, attr, 0, -1, -1, 0);
}
