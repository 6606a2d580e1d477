// The body of every bench and example main.
#pragma once

#include "common/error.hpp"
#include "common/log.hpp"

namespace dt {

/// Returns body(args...), or, when that throws a dt::Error (rejected
/// input or a failed check), logs "<program>: <message>" as one error
/// line and returns 1, so a script can tell it from a crash (an uncaught
/// exception aborts with 134).
template <class Body, class... Args>
int run_main(const char* program, Body body, Args... args) {
  try {
    return body(args...);
  } catch (const Error& e) {
    DT_LOG_ERROR << program << ": " << e.what();
    return 1;
  }
}

}  // namespace dt
