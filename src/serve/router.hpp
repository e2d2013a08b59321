// Request execution for the serve layer: one parsed work request in, one
// result JSON out. This is where serve meets the existing subsystems —
// experiments run through the ExperimentRegistry exactly as the CLI
// driver runs them (same params type, same result_to_json envelope, so an
// experiment response is byte-for-byte what `cvmt run <id> --format=json`
// prints, its batch inline on the calling worker), and single simulations
// run through the worker's warm SimSession.
#pragma once

#include "serve/protocol.hpp"
#include "sim/session.hpp"

namespace cvmt {

/// Executes a work request (kExperiment / kRun) on the calling
/// worker's session. Returns the "result" payload of the ok response.
/// Throws RequestError for request-level failures (unknown experiment);
/// anything else that escapes is the server's "internal" error.
[[nodiscard]] JsonValue execute_request(const Request& req,
                                        SimSession& session);

}  // namespace cvmt
