/// \file partitioner.h
/// \brief Two-level spatial partitioning of catalog rows into chunk tables.
///
/// Produces, per chunk CC (paper §5.2):
///   Object_CC        — objects whose position falls in the chunk; rows carry
///                      chunkId and subChunkId columns (HV3 groups by chunkId,
///                      subchunk builds filter on subChunkId).
///   ObjectOverlap_CC — objects that do NOT belong to CC but lie within the
///                      overlap margin of its boundary (§4.4 "Overlap"), so
///                      near-neighbor joins never need other nodes' data.
///   Source_CC        — sources co-located with their host object's chunk
///                      (time-series joins stay node-local).
/// plus the secondary-index entries objectId -> (chunkId, subChunkId) used by
/// the frontend (§5.5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datagen/catalog_gen.h"
#include "sphgeom/chunker.h"
#include "sql/database.h"

namespace qserv::datagen {

std::string chunkTableName(const std::string& base, std::int32_t chunkId);
std::string overlapTableName(const std::string& base, std::int32_t chunkId);
std::string subChunkTableName(const std::string& base, std::int32_t chunkId,
                              std::int32_t subChunkId);

struct SecondaryIndexEntry {
  std::int64_t objectId = 0;
  std::int32_t chunkId = 0;
  std::int32_t subChunkId = 0;
};

struct ChunkData {
  std::int32_t chunkId = 0;
  sql::TablePtr objects;        // Object_CC
  sql::TablePtr objectOverlap;  // ObjectOverlap_CC
  sql::TablePtr sources;        // Source_CC (may be empty)
};

struct PartitionedCatalog {
  std::vector<ChunkData> chunks;  // ascending chunkId, non-empty chunks only
  std::vector<SecondaryIndexEntry> index;
};

/// Partition \p objects and \p sources with \p chunker. Sources whose
/// objectId has no partitioned object are dropped (mirrors the paper's
/// clipped Source coverage producing null LV2 results). Rows outside
/// [-90, 90] latitude (top-band duplicator spill) are dropped.
util::Result<PartitionedCatalog> partitionCatalog(
    const sphgeom::Chunker& chunker, std::span<const ObjectRow> objects,
    std::span<const SourceRow> sources);

/// The one index rule for chunk tables, used by initial placement, replica
/// installs and EXPLAIN: the id column on every chunk table (paper §5.5:
/// "Chunk tables on workers' MySQL instances are also indexed by
/// objectId"), plus subChunkId on tables with overlap, the only ones a
/// worker splits into subchunks (its subchunk builds probe that index
/// instead of scanning the chunk). Columns the table lacks are skipped.
util::Status indexChunkTable(sql::Database& db, const std::string& table,
                             const std::string& idColumn, bool hasOverlap);

/// Register one chunk's tables into \p db and index them by
/// indexChunkTable (Object carries overlap, Source does not).
util::Status loadChunkIntoDatabase(sql::Database& db, const ChunkData& chunk);

}  // namespace qserv::datagen
