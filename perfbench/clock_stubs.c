#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

/* Monotonic clock in seconds: immune to wall-clock steps mid-run. */
value perfbench_now(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}
