/// \file executor.h
/// \brief Statement execution against a Database.
///
/// A SELECT runs in two steps. planSelect() (sql/plan.h) makes every
/// structural decision once: shortcuts, each table's access path (index
/// probe, kernel scan or row scan), each join stage (hash, zone or nested
/// loop), aggregation, order and limit. executeSelect() then runs that plan:
/// read candidate rows -> join them stage by stage -> aggregate/group ->
/// project -> order -> limit, counting ExecStats as it goes. This covers
/// every query shape in the paper's evaluation (§6.2), including the
/// near-neighbor self-join and the Object x Source equi-join with a residual
/// spatial predicate.
#pragma once

#include "sql/ast.h"
#include "sql/database.h"

namespace qserv::sql {

/// Execute \p stmt against \p db. SELECT returns its result table (named
/// "result"); other statements return an empty zero-column table.
util::Result<TablePtr> executeStatement(Database& db, const Statement& stmt,
                                        ExecStats& stats);

/// Plan and execute a parsed SELECT.
util::Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                                     ExecStats& stats);

}  // namespace qserv::sql
