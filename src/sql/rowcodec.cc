#include "sql/rowcodec.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace qserv::sql {

namespace {

static_assert(static_cast<int>(ColumnType::kString) == 2);  // wire code

/// Reverse the bytes of each of \p n elements of \p size bytes: arrays
/// travel little-endian, so only a big-endian host pays for this.
void toWireOrder(char* data, std::size_t n, std::size_t size) {
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < n; ++i) {
      std::reverse(data + i * size, data + (i + 1) * size);
    }
  }
}

template <typename T>
void putArray(std::string& out, const T* data, std::size_t n) {
  const std::size_t at = out.size();
  out.append(reinterpret_cast<const char*>(data), n * sizeof(T));
  toWireOrder(out.data() + at, n, sizeof(T));
}

template <typename T>
void put(std::string& out, T v) { putArray(out, &v, 1); }

/// Bounds-checked cursor: every read first checks that the bytes are
/// there, so a damaged count fails before anything is allocated.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  bool bytes(std::string_view& out, std::size_t n) {
    if (n > remaining()) return false;
    out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool get(T& v) { return array(&v, 1); }
  template <typename T>
  bool vec(std::vector<T>& out, std::size_t n) {
    if (n > remaining() / sizeof(T)) return false;
    out.resize(n);
    return array(out.data(), n);
  }
  bool strings(std::vector<std::string>& out, std::size_t n) {
    std::vector<std::uint32_t> lens;
    if (!vec(lens, n)) return false;
    std::uint64_t total = 0;
    for (std::uint32_t len : lens) total += len;
    std::string_view data;
    if (!bytes(data, total)) return false;
    out.reserve(n);
    for (std::uint32_t len : lens) {
      out.emplace_back(data.substr(0, len));
      data.remove_prefix(len);
    }
    return true;
  }

 private:
  template <typename T>
  bool array(T* out, std::size_t n) {
    if (n > remaining() / sizeof(T)) return false;
    if (n == 0) return true;
    std::memcpy(out, data_.data() + pos_, n * sizeof(T));
    toWireOrder(reinterpret_cast<char*>(out), n, sizeof(T));
    pos_ += n * sizeof(T);
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

bool isBinaryTablePayload(std::string_view payload) {
  return payload.starts_with(kRowCodecMagic);
}

std::string encodeTableBinary(const Table& table,
                              const std::string& targetName) {
  const std::size_t nrows = table.numRows();
  std::size_t size = kRowCodecMagic.size() + 12 + targetName.size();
  for (std::size_t c = 0; c < table.numColumns(); ++c) {
    const ColumnDef& col = table.schema().column(c);
    size += 4 + col.name.size() + (table.zoneMap(c).nullCount ? nrows : 0);
    if (col.type == ColumnType::kString) {
      for (const std::string& s : table.stringColumn(c)) size += 4 + s.size();
    } else {
      size += 8 * nrows;
    }
  }
  std::string out;
  out.reserve(size);
  out.append(kRowCodecMagic);
  put(out, static_cast<std::uint16_t>(targetName.size()));
  out.append(targetName);
  put(out, static_cast<std::uint16_t>(table.numColumns()));
  put(out, static_cast<std::uint64_t>(nrows));
  for (std::size_t c = 0; c < table.numColumns(); ++c) {
    const ColumnDef& col = table.schema().column(c);
    put(out, static_cast<std::uint8_t>(col.type));
    put(out, static_cast<std::uint16_t>(col.name.size()));
    out.append(col.name);
    const bool hasNulls = table.zoneMap(c).nullCount > 0;
    put(out, static_cast<std::uint8_t>(hasNulls));
    if (hasNulls) putArray(out, table.nullMask(c).data(), nrows);
    switch (col.type) {
      case ColumnType::kInt:
        putArray(out, table.intColumn(c).data(), nrows);
        break;
      case ColumnType::kDouble:
        putArray(out, table.doubleColumn(c).data(), nrows);
        break;
      case ColumnType::kString:
        for (const std::string& s : table.stringColumn(c)) {
          put(out, static_cast<std::uint32_t>(s.size()));
        }
        for (const std::string& s : table.stringColumn(c)) out.append(s);
        break;
    }
  }
  return out;
}

util::Result<TablePtr> decodeTableBinary(std::string_view payload) {
  if (!isBinaryTablePayload(payload)) {
    return util::Status::invalidArgument("not a binary table payload");
  }
  Reader reader(payload.substr(kRowCodecMagic.size()));
  auto corrupt = [] {
    return util::Status::invalidArgument("damaged binary table payload");
  };

  std::uint16_t nameLen = 0, ncols = 0;
  std::uint64_t nrows = 0;
  std::string_view name;
  if (!reader.get(nameLen) || !reader.bytes(name, nameLen) ||
      !reader.get(ncols) || !reader.get(nrows)) {
    return corrupt();
  }
  // A column header takes at least 4 bytes, and a row at least 4 bytes
  // per column (a string length): counts the rest of the payload cannot
  // hold, rows without columns included, are rejected before anything is
  // allocated.
  const std::size_t rowBytes = 4 * std::size_t{ncols};
  if (ncols > reader.remaining() / 4 ||
      (nrows > 0 && (ncols == 0 || nrows > reader.remaining() / rowBytes))) {
    return util::Status::invalidArgument(
        "binary table payload claims more rows or columns than it holds");
  }
  std::vector<ColumnDef> defs;
  std::vector<Table::ColumnData> cols;
  defs.reserve(ncols);
  cols.reserve(ncols);
  for (std::uint16_t c = 0; c < ncols; ++c) {
    std::uint8_t type = 0, hasNulls = 0;
    std::uint16_t len = 0;
    std::string_view colName;
    if (!reader.get(type) || !reader.get(len) ||
        !reader.bytes(colName, len) || !reader.get(hasNulls) || type > 2 ||
        hasNulls > 1) {
      return corrupt();
    }
    Table::ColumnData& col = cols.emplace_back();
    bool ok = !hasNulls || reader.vec(col.nulls, nrows);
    const auto colType = static_cast<ColumnType>(type);
    switch (colType) {
      case ColumnType::kInt: ok = ok && reader.vec(col.ints, nrows); break;
      case ColumnType::kDouble:
        ok = ok && reader.vec(col.doubles, nrows);
        break;
      case ColumnType::kString:
        ok = ok && reader.strings(col.strings, nrows);
        break;
    }
    if (!ok) return corrupt();
    defs.push_back(ColumnDef{std::string(colName), colType});
  }
  auto table =
      std::make_shared<Table>(std::string(name), Schema(std::move(defs)));
  QSERV_RETURN_IF_ERROR(table->appendColumns(std::move(cols), nrows));
  return table;
}

util::Result<TablePtr> loadBinaryTable(Database& db,
                                       std::string_view payload) {
  QSERV_ASSIGN_OR_RETURN(TablePtr table, decodeTableBinary(payload));
  QSERV_RETURN_IF_ERROR(db.dropTable(table->name(), /*ifExists=*/true));
  QSERV_RETURN_IF_ERROR(db.registerTable(table));
  return table;
}

}  // namespace qserv::sql
