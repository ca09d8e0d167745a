#include "datagen/partitioner.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "datagen/schemas.h"
#include "util/strings.h"

namespace qserv::datagen {

std::string chunkTableName(const std::string& base, std::int32_t chunkId) {
  return base + "_" + std::to_string(chunkId);
}

std::string overlapTableName(const std::string& base, std::int32_t chunkId) {
  return base + "Overlap_" + std::to_string(chunkId);
}

std::string subChunkTableName(const std::string& base, std::int32_t chunkId,
                              std::int32_t subChunkId) {
  return base + "_" + std::to_string(chunkId) + "_" +
         std::to_string(subChunkId);
}

namespace {

std::vector<sql::Value> objectValues(const ObjectRow& o, std::int32_t chunkId,
                                     std::int32_t subChunkId) {
  std::vector<sql::Value> row(kObjNumCols);
  row[kObjObjectId] = sql::Value(o.objectId);
  row[kObjRaPs] = sql::Value(o.ra);
  row[kObjDeclPs] = sql::Value(o.decl);
  row[kObjURadiusPs] = sql::Value(o.uRadius);
  row[kObjUFluxPs] = sql::Value(o.flux[0]);
  row[kObjGFluxPs] = sql::Value(o.flux[1]);
  row[kObjRFluxPs] = sql::Value(o.flux[2]);
  row[kObjIFluxPs] = sql::Value(o.flux[3]);
  row[kObjZFluxPs] = sql::Value(o.flux[4]);
  row[kObjYFluxPs] = sql::Value(o.flux[5]);
  row[kObjUFluxSg] = sql::Value(o.uFluxSg);
  row[kObjChunkId] = sql::Value(static_cast<std::int64_t>(chunkId));
  row[kObjSubChunkId] = sql::Value(static_cast<std::int64_t>(subChunkId));
  return row;
}

std::vector<sql::Value> sourceValues(const SourceRow& s, std::int32_t chunkId,
                                     std::int32_t subChunkId) {
  std::vector<sql::Value> row(kSrcNumCols);
  row[kSrcSourceId] = sql::Value(s.sourceId);
  row[kSrcObjectId] = sql::Value(s.objectId);
  row[kSrcRa] = sql::Value(s.ra);
  row[kSrcDecl] = sql::Value(s.decl);
  row[kSrcPsfFlux] = sql::Value(s.psfFlux);
  row[kSrcPsfFluxErr] = sql::Value(s.psfFluxErr);
  row[kSrcTaiMidPoint] = sql::Value(s.taiMidPoint);
  row[kSrcChunkId] = sql::Value(static_cast<std::int64_t>(chunkId));
  row[kSrcSubChunkId] = sql::Value(static_cast<std::int64_t>(subChunkId));
  return row;
}

}  // namespace

util::Result<PartitionedCatalog> partitionCatalog(
    const sphgeom::Chunker& chunker, std::span<const ObjectRow> objects,
    std::span<const SourceRow> sources) {
  PartitionedCatalog out;
  std::map<std::int32_t, ChunkData> chunks;  // ordered by chunkId

  auto chunkFor = [&](std::int32_t chunkId) -> ChunkData& {
    auto it = chunks.find(chunkId);
    if (it == chunks.end()) {
      ChunkData data;
      data.chunkId = chunkId;
      data.objects = std::make_shared<sql::Table>(
          chunkTableName("Object", chunkId), objectSchema());
      data.objectOverlap = std::make_shared<sql::Table>(
          overlapTableName("Object", chunkId), objectSchema());
      data.sources = std::make_shared<sql::Table>(
          chunkTableName("Source", chunkId), sourceSchema());
      it = chunks.emplace(chunkId, std::move(data)).first;
    }
    return it->second;
  };

  struct ObjectHome {
    std::int32_t chunkId;
    std::int32_t subChunkId;
  };
  std::unordered_map<std::int64_t, ObjectHome> homes;
  homes.reserve(objects.size());

  const double overlap = chunker.overlapDeg();
  for (const ObjectRow& o : objects) {
    if (o.decl < -90.0 || o.decl > 90.0) continue;  // duplicator spill
    std::int32_t chunkId = chunker.chunkAt(o.ra, o.decl);
    std::int32_t subChunkId = chunker.subChunkAt(chunkId, o.ra, o.decl);
    QSERV_RETURN_IF_ERROR(
        chunkFor(chunkId).objects->appendRow(objectValues(o, chunkId,
                                                          subChunkId)));
    homes[o.objectId] = {chunkId, subChunkId};
    out.index.push_back({o.objectId, chunkId, subChunkId});

    // Overlap assignment: the row also lands in the overlap table of every
    // *other* chunk whose dilated box contains it. The candidate search must
    // use the *chunk's* longitude margin, which can exceed the point's own
    // (a more polar chunk dilates wider); bound it by the worst latitude a
    // candidate chunk edge can have: |dec| + overlap + one stripe height.
    if (overlap > 0.0) {
      double worstLat = std::min(89.99, std::fabs(o.decl) + overlap +
                                            chunker.stripeHeightDeg());
      double lonMargin =
          overlap / std::max(1e-6, std::cos(sphgeom::degToRad(worstLat)));
      lonMargin = std::min(lonMargin, 180.0);
      sphgeom::SphericalBox pointNbhd(o.ra - lonMargin, o.decl - overlap,
                                      o.ra + lonMargin, o.decl + overlap);
      for (std::int32_t cand : chunker.chunksIntersecting(pointNbhd)) {
        if (cand == chunkId) continue;
        if (chunker.chunkBox(cand).dilated(overlap).contains(o.ra, o.decl)) {
          QSERV_RETURN_IF_ERROR(chunkFor(cand).objectOverlap->appendRow(
              objectValues(o, chunkId, subChunkId)));
        }
      }
    }
  }

  std::uint64_t dropped = 0;
  for (const SourceRow& s : sources) {
    auto it = homes.find(s.objectId);
    if (it == homes.end()) {
      ++dropped;
      continue;
    }
    QSERV_RETURN_IF_ERROR(chunkFor(it->second.chunkId)
                              .sources->appendRow(sourceValues(
                                  s, it->second.chunkId,
                                  it->second.subChunkId)));
  }
  (void)dropped;

  out.chunks.reserve(chunks.size());
  for (auto& [id, data] : chunks) out.chunks.push_back(std::move(data));
  std::sort(out.index.begin(), out.index.end(),
            [](const auto& a, const auto& b) { return a.objectId < b.objectId; });
  return out;
}

util::Status indexChunkTable(sql::Database& db, const std::string& table,
                             const std::string& idColumn, bool hasOverlap) {
  sql::TablePtr t = db.findTable(table);
  if (!t) return util::Status::notFound("unknown table " + table);
  std::vector<std::string> columns{idColumn};
  if (hasOverlap) columns.push_back("subChunkId");
  for (const std::string& column : columns) {
    if (!column.empty() && t->schema().indexOf(column)) {
      QSERV_RETURN_IF_ERROR(db.createIndex(table, column));
    }
  }
  return util::Status::ok();
}

util::Status loadChunkIntoDatabase(sql::Database& db, const ChunkData& chunk) {
  QSERV_RETURN_IF_ERROR(db.registerTable(chunk.objects));
  QSERV_RETURN_IF_ERROR(db.registerTable(chunk.objectOverlap));
  QSERV_RETURN_IF_ERROR(db.registerTable(chunk.sources));
  QSERV_RETURN_IF_ERROR(
      indexChunkTable(db, chunk.objects->name(), "objectId", true));
  return indexChunkTable(db, chunk.sources->name(), "objectId", false);
}

}  // namespace qserv::datagen
