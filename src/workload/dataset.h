// Named pointsets with CSV persistence, the one dataset format every program
// reads and writes. Generators already emit coordinates in the paper's
// [0, 10000] domain (workload/generator.h).
#ifndef RINGJOIN_WORKLOAD_DATASET_H_
#define RINGJOIN_WORKLOAD_DATASET_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "geometry/point.h"

namespace rcj {

/// A named pointset.
struct Dataset {
  std::string name;
  std::vector<PointRecord> points;
};

/// CSV persistence: header "id,x,y", one point per line.
Status SaveCsv(const Dataset& dataset, const std::string& path);
Result<Dataset> LoadCsv(const std::string& path);

}  // namespace rcj

#endif  // RINGJOIN_WORKLOAD_DATASET_H_
