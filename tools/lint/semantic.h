/**
 * @file
 * Cross-TU semantic rules over parsed FileSummary records.
 *
 * Five rules run on the whole-repo call graph:
 *
 *  - hot-path-alloc: no allocation primitive in any function
 *    transitively reachable from a thread-pool chunk body or a SIMD
 *    microkernel. Findings print the full reachability proof;
 *    `// lrd-lint: allow(hot-path-alloc)` on the allocation line
 *    escapes (e.g. per-worker replica setup).
 *  - lock-discipline: `// lrd-lint: mutex(<name>)` annotations must
 *    name a declared mutex that is actually acquired, writers of the
 *    annotated global must hold it, and the repo-wide lock
 *    acquisition order must be acyclic.
 *  - unchecked-result: a statement-level call whose every in-tree
 *    candidate returns Status/Result discards the error; assign it
 *    or cast to void.
 *  - fp-order: += / -= / *= / /= on a captured floating-point
 *    accumulator inside a parallel chunk body reorders the reduction
 *    across thread counts; use the fixed-order helpers in
 *    src/parallel/ (which are exempt).
 *  - dead-symbol: an external-linkage function defined under src/
 *    whose name is never referenced outside its own declarations has
 *    no in-tree caller (tests count as callers).
 *
 * hot-path-alloc and fp-order report only on src/ and tools/ files:
 * tests and benches intentionally allocate and accumulate inside
 * chunk bodies when exercising the pool itself.
 */

#ifndef LRD_TOOLS_LINT_SEMANTIC_H
#define LRD_TOOLS_LINT_SEMANTIC_H

#include <vector>

#include "lint.h"
#include "parser.h"

namespace lrd::lint {

/** The five cross-TU rules over a parsed tree. */
std::vector<Diagnostic>
runSemanticRules(const std::vector<FileSummary> &sums);

/** Include-graph rules from cached summaries (no re-lex). */
std::vector<Diagnostic>
checkIncludeGraph(const std::vector<FileSummary> &sums);

/**
 * Full analysis over parsed summaries: per-file token findings (as
 * recorded in each summary), include-graph rules, and the semantic
 * rules, sorted by (file, line, rule).
 */
std::vector<Diagnostic>
analyzeSummaries(const std::vector<FileSummary> &sums);

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_SEMANTIC_H
