// Checked text-to-number conversion for the file readers (trace text/JSONL,
// sweep configs). Unlike std::stoll and friends, a malformed or
// out-of-range token raises CheckError, so callers that catch CheckError
// report it as a diagnostic instead of dying on std::invalid_argument.
#pragma once

#include <charconv>
#include <string_view>

#include "util/check.hpp"

namespace psc {

// Parses all of `tok` as a T (an integer type or double); `what` names the
// field in the error message.
template <class T>
T parse_number(std::string_view tok, std::string_view what) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  PSC_CHECK(ec == std::errc() && p == end,
            "bad " << what << " '" << tok << "'");
  return v;
}

}  // namespace psc
