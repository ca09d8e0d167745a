/// \file catalog_config.h
/// \brief Frontend metadata: which tables are spatially partitioned and how.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sphgeom/chunker.h"
#include "sql/schema.h"

namespace qserv::core {

/// One spatially partitioned ("director" or child) table.
struct PartitionedTable {
  std::string name;        ///< logical name users query, e.g. "Object"
  std::string raColumn;    ///< partitioning longitude column, e.g. "ra_PS"
  std::string declColumn;  ///< partitioning latitude column, e.g. "decl_PS"
  /// Column the secondary index maps (usually objectId); empty if none.
  std::string idColumn;
  /// Paper-scale MyISAM bytes per row, for the cost model.
  double paperRowBytes = 0.0;
  /// True when the table keeps precomputed overlap rows (near-neighbor
  /// joins are only valid on such tables).
  bool hasOverlap = false;
  /// Columns of the table's chunk tables; EXPLAIN plans against them.
  sql::Schema schema;
};

struct CatalogConfig {
  int numStripes = 85;
  int numSubStripesPerStripe = 12;
  double overlapDeg = 1.0 / 60.0;  // 1 arc-minute (paper §6.1.2)
  std::vector<PartitionedTable> tables;

  sphgeom::Chunker makeChunker() const {
    return sphgeom::Chunker(numStripes, numSubStripesPerStripe, overlapDeg);
  }

  const PartitionedTable* findTable(const std::string& name) const;

  /// The paper's LSST configuration: Object and Source partitioned on the
  /// Object position, Object carrying overlap and the objectId index.
  static CatalogConfig lsst(int numStripes = 85, int numSubStripes = 12,
                            double overlapDeg = 1.0 / 60.0);
};

}  // namespace qserv::core
