/// \file observables_codec.h
/// \brief In-band encoding of work observables inside result dumps.
///
/// The worker appends one SQL comment line to the mysqldump-style result
/// stream; comments are ignored when the master replays the dump, but the
/// dispatcher parses the line to feed the virtual-time queue simulation.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "simio/cost_model.h"

namespace qserv::core {

/// "-- QSERV-OBS bytes=... rows=... pairs=... built=... idx=... rbytes=...
///  rrows=...\n"
std::string encodeObservables(const simio::WorkObservables& w);

/// Parse the observables comment from a dump; nullopt when absent or
/// malformed. Every field must be present, in order, as an unsigned decimal
/// (no sign, nan or inf) that fits its type, and the line must end in '\n'.
std::optional<simio::WorkObservables> decodeObservables(std::string_view dump);

}  // namespace qserv::core
