/**
 * @file
 * Whole-repo call graph over FileSummary records.
 *
 * RepoGraph links every parsed translation unit into one index:
 * name-based call resolution, the hot-path reachability set (seeded
 * from SIMD microkernels and thread-pool chunk bodies, then
 * propagated through calls and through callback conduits), mutex
 * identity and lock-ordering edges, and the
 * repo-wide identifier liveness set.
 *
 * Resolution is name matching, not overload resolution: a call
 * resolves to every in-tree definition that the written name could
 * denote (same-file restriction for internal-linkage functions,
 * suffix matching for qualified names). Rules that need certainty
 * (unchecked-result) only fire when every candidate agrees.
 */

#ifndef LRD_TOOLS_LINT_CALLGRAPH_H
#define LRD_TOOLS_LINT_CALLGRAPH_H

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "parser.h"

namespace lrd::lint {

/** Index of one function: (file index, function index). */
struct FunctionRef
{
    int file = -1;
    int fn = -1;

    bool valid() const { return file >= 0 && fn >= 0; }
    bool
    operator<(const FunctionRef &o) const
    {
        return file != o.file ? file < o.file : fn < o.fn;
    }
    bool
    operator==(const FunctionRef &o) const
    {
        return file == o.file && fn == o.fn;
    }
};

/** Why a function is on the hot path (one hop of the proof). */
struct HotMark
{
    /** Caller that made this function hot; invalid for roots. */
    FunctionRef parent;
    /** Human-readable hop: root reason or "called from ... at f:l". */
    std::string via;
};

/** One directed lock-order edge with its witness. */
struct LockEdge
{
    std::string from;
    std::string to;
    /** "qualName (file:line)" of the acquisition establishing it. */
    std::string witness;
    /** Location of the first acquisition (diagnostic anchor). */
    std::string file;
    int line = 0;
};

class RepoGraph
{
  public:
    explicit RepoGraph(const std::vector<FileSummary> &files);

    const std::vector<FileSummary> &files() const { return files_; }
    const FileSummary &
    file(const FunctionRef &r) const
    {
        return files_[static_cast<size_t>(r.file)];
    }
    const FunctionInfo &
    fn(const FunctionRef &r) const
    {
        return file(r).functions[static_cast<size_t>(r.fn)];
    }

    /**
     * Definitions a call written as `callee` ("f", "A::f", ".f")
     * from `callerFile` may reach. Empty for out-of-tree names.
     */
    std::vector<FunctionRef> resolve(int callerFile,
                                     const std::string &callee) const;

    /** Like resolve(), but including body-less prototypes. */
    std::vector<FunctionRef>
    resolveAny(int callerFile, const std::string &callee) const;

    /** Hot-path set with per-function provenance. */
    const std::map<FunctionRef, HotMark> &hotSet() const
    {
        return hot_;
    }
    bool isHot(const FunctionRef &r) const { return hot_.count(r) > 0; }

    /**
     * The reachability proof for a hot function, root first:
     * "qualName (file:line)" per hop joined with " -> ".
     */
    std::string hotPath(const FunctionRef &r) const;

    /**
     * Canonical identity of the mutex named `siteName` as seen from
     * `fileIdx` ("ThreadPool::mu_", "src/obs/trace.cc::State::mu");
     * empty when the name matches no unique in-tree declaration.
     */
    std::string mutexKey(int fileIdx, const std::string &siteName) const;

    /** Keys of every mutex acquired anywhere in the tree. */
    const std::set<std::string> &acquiredKeys() const
    {
        return acquired_;
    }

    /** Mutexes a call into `r` may acquire (transitive closure). */
    const std::set<std::string> &
    transitiveLocks(const FunctionRef &r) const;

    /** All lock-order edges (deterministic order). */
    const std::vector<LockEdge> &lockEdges() const { return edges_; }

    /**
     * One lock-order cycle if any exists: the edge sequence forming
     * it. Empty when the acquisition order is acyclic.
     */
    std::vector<LockEdge> findLockCycle() const;

    /** Identifiers referenced anywhere outside their declaration. */
    const std::set<std::string> &liveNames() const { return live_; }

    /** "file:line" for a function (diagnostic convenience). */
    std::string where(const FunctionRef &r) const;

  private:
    void buildIndex();
    void seedHotRoots();
    void propagateHot();
    void buildLocks();

    const std::vector<FileSummary> &files_;
    /** name -> definitions (bodies only, no lambdas). */
    std::map<std::string, std::vector<FunctionRef>> defsByName_;
    /** name -> definitions and prototypes (no lambdas). */
    std::map<std::string, std::vector<FunctionRef>> allByName_;
    std::map<FunctionRef, HotMark> hot_;
    /** Names of functions whose callback parameters run hot. */
    std::set<std::string> conduits_;
    std::set<std::string> acquired_;
    std::map<FunctionRef, std::set<std::string>> transLocks_;
    std::vector<LockEdge> edges_;
    std::set<std::string> live_;
};

} // namespace lrd::lint

#endif // LRD_TOOLS_LINT_CALLGRAPH_H
