#include "qserv/catalog_config.h"

#include "datagen/schemas.h"
#include "util/strings.h"

namespace qserv::core {

const PartitionedTable* CatalogConfig::findTable(
    const std::string& name) const {
  for (const auto& t : tables) {
    if (util::iequals(t.name, name)) return &t;
  }
  return nullptr;
}

CatalogConfig CatalogConfig::lsst(int numStripes, int numSubStripes,
                                  double overlapDeg) {
  CatalogConfig cfg;
  cfg.numStripes = numStripes;
  cfg.numSubStripesPerStripe = numSubStripes;
  cfg.overlapDeg = overlapDeg;
  cfg.tables.push_back(PartitionedTable{
      "Object", "ra_PS", "decl_PS", "objectId", datagen::kObjectRowBytes,
      /*hasOverlap=*/true, datagen::objectSchema()});
  cfg.tables.push_back(PartitionedTable{
      "Source", "ra", "decl", "objectId", datagen::kSourceRowBytes,
      /*hasOverlap=*/false, datagen::sourceSchema()});
  return cfg;
}

}  // namespace qserv::core
