/// \file rowcodec.h
/// \brief Column-major binary table serialization — the "more efficient
/// method" of result transfer the paper wants to replace mysqldump with
/// (§5.4, §7.1: mysqldump's "costs in speed, disk, network, and database
/// transactions are strong motivations to explore a more efficient
/// method"). Whole typed columns move as raw arrays, the column-wise
/// layout Becla et al. describe for these catalogs.
///
/// Format (all integers and arrays little-endian):
///   magic  "QBN2"            4 bytes
///   name   u16 len + bytes
///   ncols  u16
///   nrows  u64
///   per column, one column after another:
///     u8 type (0=int, 1=double, 2=string), u16 name len + bytes
///     u8 null flag: 0 = no NULLs, 1 = a mask of nrows bytes follows
///       (1 = NULL)
///     int / double: nrows raw 8-byte values (0 under a NULL)
///     string: nrows u32 lengths, then the concatenated bytes
/// Bytes after the last column (the worker's observables comment and MD5
/// trailer) are ignored.
#pragma once

#include <string>
#include <string_view>

#include "sql/database.h"
#include "sql/table.h"

namespace qserv::sql {

/// Magic prefix distinguishing binary payloads from SQL-dump text.
inline constexpr std::string_view kRowCodecMagic = "QBN2";

/// True when \p payload starts with the binary magic.
bool isBinaryTablePayload(std::string_view payload);

/// Serialize \p table under \p targetName.
std::string encodeTableBinary(const Table& table,
                              const std::string& targetName);

/// Decode a binary payload into a new, unregistered table. Rejects damaged
/// input with a Status, in time and memory bounded by the payload size.
util::Result<TablePtr> decodeTableBinary(std::string_view payload);

/// Decode a binary payload and register the table in \p db (replacing any
/// same-named table, like a dump's DROP + CREATE).
util::Result<TablePtr> loadBinaryTable(Database& db,
                                       std::string_view payload);

}  // namespace qserv::sql
