#include "workload/dataset.h"

#include <cinttypes>
#include <cstdio>

namespace rcj {

Status SaveCsv(const Dataset& dataset, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot open for write: " + path);
  std::fprintf(f, "id,x,y\n");
  for (const PointRecord& r : dataset.points) {
    std::fprintf(f, "%" PRId64 ",%.17g,%.17g\n", r.id, r.pt.x, r.pt.y);
  }
  std::fclose(f);
  return Status::OK();
}

Result<Dataset> LoadCsv(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  Dataset out;
  out.name = path;
  char line[256];
  bool first = true;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (first) {  // header
      first = false;
      continue;
    }
    PointRecord r;
    if (std::sscanf(line, "%" SCNd64 ",%lf,%lf", &r.id, &r.pt.x, &r.pt.y) ==
        3) {
      out.points.push_back(r);
    } else {
      std::fclose(f);
      return Status::Corruption("malformed CSV line in " + path);
    }
  }
  std::fclose(f);
  return out;
}

}  // namespace rcj
