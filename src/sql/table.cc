#include "sql/table.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

#include "util/strings.h"

namespace qserv::sql {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.resize(schema_.numColumns());
  for (std::size_t i = 0; i < schema_.numColumns(); ++i) {
    columns_[i].type = schema_.column(i).type;
  }
}

void Table::Column::append(const Value& v) {
  const bool null = v.isNull();
  nulls.push_back(null ? 1 : 0);
  switch (type) {
    case ColumnType::kInt: ints.push_back(null ? 0 : v.asInt()); break;
    case ColumnType::kDouble:
      doubles.push_back(null ? 0.0 : v.toDouble());
      break;
    case ColumnType::kString:
      strings.push_back(null ? std::string() : v.asString());
      break;
  }
  foldZone(nulls.size() - 1);
}

void Table::Column::foldZone(std::size_t from) {
  const std::size_t end = nulls.size();
  switch (type) {
    case ColumnType::kInt:
      for (std::size_t r = from; r < end; ++r) {
        if (nulls[r]) {
          ++zone.nullCount;
          ints[r] = 0;
          continue;
        }
        const std::int64_t x = ints[r];
        if (!zone.hasValue) {
          zone.hasValue = true;
          zone.intMin = zone.intMax = x;
        } else {
          if (x < zone.intMin) zone.intMin = x;
          if (x > zone.intMax) zone.intMax = x;
        }
      }
      break;
    case ColumnType::kDouble:
      for (std::size_t r = from; r < end; ++r) {
        if (nulls[r]) {
          ++zone.nullCount;
          doubles[r] = 0.0;
          continue;
        }
        const double x = doubles[r];
        if (std::isnan(x)) {
          zone.hasNaN = true;
        } else if (!zone.hasValue) {
          zone.hasValue = true;
          zone.dblMin = zone.dblMax = x;
        } else {
          if (x < zone.dblMin) zone.dblMin = x;
          if (x > zone.dblMax) zone.dblMax = x;
        }
      }
      break;
    case ColumnType::kString:
      // Strings get no min/max; nullCount stays useful.
      for (std::size_t r = from; r < end; ++r) {
        if (nulls[r]) {
          ++zone.nullCount;
          strings[r].clear();
        } else {
          zone.hasValue = true;
        }
      }
      break;
  }
}

namespace {
/// Make room for \p n more elements. An empty vector reserves exactly (a
/// bulk load grows no slack); a non-empty one keeps std::vector's geometric
/// growth, so a run of small appends costs amortized linear time instead of
/// one reallocation and full copy per append.
template <typename T>
void growFor(std::vector<T>& v, std::size_t n) {
  const std::size_t need = v.size() + n;
  if (need <= v.capacity()) return;
  v.reserve(v.empty() ? need : std::max(need, 2 * v.capacity()));
}
}  // namespace

void Table::Column::reserveMore(std::size_t n) {
  growFor(nulls, n);
  switch (type) {
    case ColumnType::kInt: growFor(ints, n); break;
    case ColumnType::kDouble: growFor(doubles, n); break;
    case ColumnType::kString: growFor(strings, n); break;
  }
}

util::Status Table::appendRow(std::span<const Value> values) {
  if (values.size() != schema_.numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: row has %zu values, schema has %zu columns", name_.c_str(),
        values.size(), schema_.numColumns()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!valueMatches(columns_[i].type, values[i])) {
      return util::Status::invalidArgument(util::format(
          "table %s column %s: %s value does not match declared type %s",
          name_.c_str(), schema_.column(i).name.c_str(),
          valueTypeName(values[i].type()), columnTypeName(columns_[i].type)));
    }
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    columns_[i].append(values[i]);
  }
  ++numRows_;
  return util::Status::ok();
}

util::Status Table::appendRows(std::span<const std::vector<Value>> rows) {
  // Validate everything before touching column storage so a bad row in the
  // middle of a batch cannot leave the table half-appended.
  for (const auto& values : rows) {
    if (values.size() != schema_.numColumns()) {
      return util::Status::invalidArgument(util::format(
          "table %s: row has %zu values, schema has %zu columns", name_.c_str(),
          values.size(), schema_.numColumns()));
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (!valueMatches(columns_[i].type, values[i])) {
        return util::Status::invalidArgument(util::format(
            "table %s column %s: %s value does not match declared type %s",
            name_.c_str(), schema_.column(i).name.c_str(),
            valueTypeName(values[i].type()), columnTypeName(columns_[i].type)));
      }
    }
  }
  for (Column& c : columns_) c.reserveMore(rows.size());
  for (const auto& values : rows) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      columns_[i].append(values[i]);
    }
  }
  numRows_ += rows.size();
  return util::Status::ok();
}

util::Status Table::appendFrom(const Table& src) {
  if (src.numColumns() != numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: cannot append from %s: %zu columns vs %zu", name_.c_str(),
        src.name_.c_str(), src.numColumns(), numColumns()));
  }
  std::size_t n = src.numRows();
  for (std::size_t i = 0; i < numColumns(); ++i) {
    const Column& s = src.columns_[i];
    if (s.type == columns_[i].type) continue;
    if (columns_[i].type == ColumnType::kDouble && s.type == ColumnType::kInt) {
      continue;  // widened below
    }
    if (s.zone.nullCount == n) continue;  // all-NULL source feeds any type
    return util::Status::invalidArgument(util::format(
        "table %s column %s: cannot append %s column %s of type %s",
        name_.c_str(), schema_.column(i).name.c_str(), src.name_.c_str(),
        src.schema_.column(i).name.c_str(), columnTypeName(s.type)));
  }
  for (std::size_t i = 0; i < numColumns(); ++i) {
    Column& d = columns_[i];
    const Column& s = src.columns_[i];
    const std::size_t from = d.nulls.size();
    d.reserveMore(n);
    d.nulls.insert(d.nulls.end(), s.nulls.begin(), s.nulls.end());
    // A source column of another type is either widened (INT into DOUBLE)
    // or all-NULL, which appends typed padding only.
    switch (d.type) {
      case ColumnType::kInt:
        if (s.type == ColumnType::kInt) {
          d.ints.insert(d.ints.end(), s.ints.begin(), s.ints.end());
        } else {
          d.ints.resize(from + n, 0);
        }
        break;
      case ColumnType::kDouble:
        if (s.type == ColumnType::kDouble) {
          d.doubles.insert(d.doubles.end(), s.doubles.begin(), s.doubles.end());
        } else if (s.type == ColumnType::kInt) {
          d.doubles.insert(d.doubles.end(), s.ints.begin(), s.ints.end());
        } else {
          d.doubles.resize(from + n, 0.0);
        }
        break;
      case ColumnType::kString:
        if (s.type == ColumnType::kString) {
          d.strings.insert(d.strings.end(), s.strings.begin(), s.strings.end());
        } else {
          d.strings.resize(from + n);
        }
        break;
    }
    d.foldZone(from);
  }
  numRows_ += n;
  return util::Status::ok();
}

namespace {

template <typename T>
void appendVector(std::vector<T>& dst, std::vector<T>&& src) {
  if (dst.empty()) {
    dst = std::move(src);
  } else {
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  }
}

}  // namespace

util::Status Table::appendColumns(std::vector<ColumnData> cols,
                                  std::size_t rows) {
  if (cols.size() != numColumns()) {
    return util::Status::invalidArgument(util::format(
        "table %s: %zu columns appended, schema has %zu", name_.c_str(),
        cols.size(), numColumns()));
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const ColumnData& s = cols[i];
    const std::size_t values = columns_[i].type == ColumnType::kInt
                                   ? s.ints.size()
                               : columns_[i].type == ColumnType::kDouble
                                   ? s.doubles.size()
                                   : s.strings.size();
    if (values != rows || (!s.nulls.empty() && s.nulls.size() != rows)) {
      return util::Status::invalidArgument(util::format(
          "table %s column %s: %zu values and %zu NULL flags for %zu rows",
          name_.c_str(), schema_.column(i).name.c_str(), values,
          s.nulls.size(), rows));
    }
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    Column& d = columns_[i];
    ColumnData& s = cols[i];
    const std::size_t from = d.nulls.size();
    if (s.nulls.empty()) {
      d.nulls.resize(from + rows, 0);
    } else {
      appendVector(d.nulls, std::move(s.nulls));
    }
    switch (d.type) {
      case ColumnType::kInt: appendVector(d.ints, std::move(s.ints)); break;
      case ColumnType::kDouble:
        appendVector(d.doubles, std::move(s.doubles));
        break;
      case ColumnType::kString:
        appendVector(d.strings, std::move(s.strings));
        break;
    }
    d.foldZone(from);
  }
  numRows_ += rows;
  return util::Status::ok();
}

Value Table::cell(std::size_t row, std::size_t col) const {
  assert(row < numRows_ && col < columns_.size());
  const Column& c = columns_[col];
  if (c.nulls[row]) return Value::null();
  switch (c.type) {
    case ColumnType::kInt: return Value(c.ints[row]);
    case ColumnType::kDouble: return Value(c.doubles[row]);
    case ColumnType::kString: return Value(c.strings[row]);
  }
  return Value::null();
}

std::vector<Value> Table::row(std::size_t r) const {
  std::vector<Value> out;
  out.reserve(numColumns());
  for (std::size_t c = 0; c < numColumns(); ++c) out.push_back(cell(r, c));
  return out;
}

const std::vector<std::int64_t>& Table::intColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kInt);
  return columns_[col].ints;
}

const std::vector<double>& Table::doubleColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kDouble);
  return columns_[col].doubles;
}

const std::vector<std::string>& Table::stringColumn(std::size_t col) const {
  assert(columns_[col].type == ColumnType::kString);
  return columns_[col].strings;
}

bool Table::isNull(std::size_t row, std::size_t col) const {
  assert(row < numRows_ && col < columns_.size());
  return columns_[col].nulls[row] != 0;
}

const std::vector<std::uint8_t>& Table::nullMask(std::size_t col) const {
  assert(col < columns_.size());
  return columns_[col].nulls;
}

const ZoneMap& Table::zoneMap(std::size_t col) const {
  assert(col < columns_.size());
  return columns_[col].zone;
}

std::size_t Table::payloadBytes() const {
  std::size_t total = 0;
  for (const Column& c : columns_) {
    switch (c.type) {
      case ColumnType::kInt: total += c.ints.size() * sizeof(std::int64_t); break;
      case ColumnType::kDouble: total += c.doubles.size() * sizeof(double); break;
      case ColumnType::kString:
        for (const auto& s : c.strings) total += s.size() + 1;
        break;
    }
    total += c.nulls.size();
  }
  return total;
}

}  // namespace qserv::sql
