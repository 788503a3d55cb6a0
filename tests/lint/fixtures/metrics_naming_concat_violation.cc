// Fixture: a '+' elsewhere in the call does not excuse a bad literal name.
#include "metrics_naming_clean.h"

void RegisterBadNames(FakeRegistry& registry, double shard) {
  int* a = registry.GetCounter("cyqr_serving_rung_");  // nothing appended
  int* b = registry.GetHistogram("cyqr_serving_rung_ms", {1.0 + shard});
  (void)a;
  (void)b;
}
