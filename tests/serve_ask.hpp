// Test helper for the serving suites: ask a QueryService a question that
// must succeed. A failed query fails the calling test and yields an empty
// QueryResult, so `.lookups.at(0)` / `.census.value()` on it throw (which
// gtest reports) instead of reading through an error.
#pragma once

#include <gtest/gtest.h>

#include <utility>

#include "serve/query.hpp"

namespace pl::serve {

inline QueryResult ask(QueryService& service, const Query& query) {
  pl::StatusOr<QueryResult> result = service.query(query);
  EXPECT_TRUE(result.ok()) << result.status().to_string();
  return result.ok() ? std::move(*result) : QueryResult{};
}

}  // namespace pl::serve
