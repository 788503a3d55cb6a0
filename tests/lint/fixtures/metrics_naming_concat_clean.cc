// Fixture: metric names built at runtime from a literal piece — clean.
#include "metrics_naming_clean.h"

#include <string>

void RegisterBuiltNames(FakeRegistry& registry, const std::string& outcome,
                        const std::string& layer) {
  int* rung = registry.GetCounter("cyqr_serving_rung_" + outcome + "_total");
  int* gauge = registry.GetGauge("cyqr_" + layer + "_queue_depth_count");
  int* latency =
      registry.GetHistogram("cyqr_" + layer + "_latency_millis", {1.0});
  (void)rung;
  (void)gauge;
  (void)latency;
}
