#include "callgraph.h"

#include <algorithm>
#include <deque>
#include <functional>

namespace lrd::lint {

namespace {

/** Last component of "a::b::c". */
std::string
lastComponent(const std::string &name)
{
    const size_t pos = name.rfind("::");
    return pos == std::string::npos ? name : name.substr(pos + 2);
}

/** Bare callable name: strip the member "." prefix. */
std::string
bareName(const std::string &callee)
{
    return !callee.empty() && callee[0] == '.' ? callee.substr(1)
                                               : callee;
}

/** Does qualName end with the written qualified name, on a "::"
 *  boundary? ("lrd::ThreadPool::parallelFor" vs
 *  "ThreadPool::parallelFor"). */
bool
qualSuffixMatch(const std::string &qualName, const std::string &written)
{
    if (qualName == written)
        return true;
    if (qualName.size() <= written.size() + 2)
        return false;
    return qualName.compare(qualName.size() - written.size(),
                            written.size(), written)
               == 0
           && qualName.compare(qualName.size() - written.size() - 2, 2,
                               "::")
                  == 0;
}

bool
isHeaderPath(const std::string &path)
{
    return path.size() >= 2
           && path.compare(path.size() - 2, 2, ".h") == 0;
}

const std::set<std::string> kEmptyLockSet;

} // namespace

RepoGraph::RepoGraph(const std::vector<FileSummary> &files)
    : files_(files)
{
    buildIndex();
    seedHotRoots();
    propagateHot();
    buildLocks();
}

void
RepoGraph::buildIndex()
{
    for (size_t f = 0; f < files_.size(); ++f) {
        const FileSummary &sum = files_[f];
        for (size_t i = 0; i < sum.functions.size(); ++i) {
            const FunctionInfo &fn = sum.functions[i];
            if (fn.isLambda)
                continue;
            const FunctionRef ref{static_cast<int>(f),
                                  static_cast<int>(i)};
            allByName_[fn.name].push_back(ref);
            if (!fn.isDeclOnly)
                defsByName_[fn.name].push_back(ref);
        }
        for (const std::string &ident : sum.usedIdentifiers)
            live_.insert(ident);
    }
}

namespace {

/**
 * Member-call names that collide with ubiquitous STL members.
 * `b->ring.resize(n)` must not resolve to `ThreadPool::resize` — a
 * false call edge here fabricates hot-path marks and lock-order
 * cycles, which costs far more than the occasional missed edge on a
 * genuine in-tree member that shares an STL name.
 */
bool
isStlMemberName(const std::string &name)
{
    static const std::set<std::string> kStlMembers = {
        "resize",     "reserve",    "clear",     "push_back",
        "pop_back",   "emplace_back", "emplace", "insert",
        "erase",      "assign",     "append",    "join",
        "detach",     "swap",       "reset",     "release",
        "at",         "front",      "back",      "data",
        "begin",      "end",        "size",      "empty",
        "count",      "find",       "substr",    "length",
        "str",        "c_str",      "wait",      "wait_for",
        "notify_one", "notify_all", "store",     "load",
        "exchange",   "fetch_add",  "push",      "pop",
        "top",
    };
    return kStlMembers.count(name) != 0;
}

} // namespace

std::vector<FunctionRef>
RepoGraph::resolve(int callerFile, const std::string &callee) const
{
    std::vector<FunctionRef> out;
    const bool member = !callee.empty() && callee[0] == '.';
    const std::string name = lastComponent(bareName(callee));
    if (member && isStlMemberName(name))
        return out;
    const auto it = defsByName_.find(name);
    if (it == defsByName_.end())
        return out;
    const bool qualified =
        !member && callee.find("::") != std::string::npos;
    // Qualified std:: (or other out-of-tree) calls resolve to the
    // written scope, never to an unrelated in-tree function.
    if (qualified && callee.compare(0, 5, "std::") == 0)
        return out;
    for (const FunctionRef &ref : it->second) {
        const FunctionInfo &cand = fn(ref);
        if (qualified && !qualSuffixMatch(cand.qualName, callee))
            continue;
        if (!qualified && cand.internal && ref.file != callerFile)
            continue;
        out.push_back(ref);
    }
    return out;
}

std::vector<FunctionRef>
RepoGraph::resolveAny(int callerFile, const std::string &callee) const
{
    std::vector<FunctionRef> out;
    const bool member = !callee.empty() && callee[0] == '.';
    const std::string name = lastComponent(bareName(callee));
    if (member && isStlMemberName(name))
        return out;
    const auto it = allByName_.find(name);
    if (it == allByName_.end())
        return out;
    const bool qualified =
        !member && callee.find("::") != std::string::npos;
    if (qualified && callee.compare(0, 5, "std::") == 0)
        return out;
    for (const FunctionRef &ref : it->second) {
        const FunctionInfo &cand = fn(ref);
        if (qualified && !qualSuffixMatch(cand.qualName, callee))
            continue;
        if (!qualified && cand.internal && ref.file != callerFile)
            continue;
        out.push_back(ref);
    }
    return out;
}

std::string
RepoGraph::where(const FunctionRef &r) const
{
    return file(r).path + ":" + std::to_string(fn(r).line);
}

void
RepoGraph::seedHotRoots()
{
    for (size_t f = 0; f < files_.size(); ++f) {
        const FileSummary &sum = files_[f];
        const bool simd =
            sum.path.find("src/tensor/simd/") != std::string::npos;
        for (size_t i = 0; i < sum.functions.size(); ++i) {
            const FunctionInfo &fi = sum.functions[i];
            if (fi.isDeclOnly)
                continue;
            const FunctionRef ref{static_cast<int>(f),
                                  static_cast<int>(i)};
            if (simd && !fi.isLambda) {
                hot_.emplace(ref,
                             HotMark{{}, "SIMD microkernel module"});
                continue;
            }
            if (fi.isLambda) {
                const std::string target = bareName(fi.passedTo);
                if (target == "parallelFor"
                    || target == "parallelForChunks")
                    hot_.emplace(
                        ref, HotMark{{}, "chunk body passed to "
                                             + target});
            }
        }
    }
}

void
RepoGraph::propagateHot()
{
    std::deque<FunctionRef> work;
    for (const auto &[ref, mark] : hot_)
        work.push_back(ref);

    // A lambda nested in a hot function is constructed (and in this
    // codebase invoked) on the hot path.
    const auto enqueueNested = [&](const FunctionRef &ref) {
        const FileSummary &sum = files_[static_cast<size_t>(ref.file)];
        for (size_t i = 0; i < sum.functions.size(); ++i) {
            const FunctionInfo &fi = sum.functions[i];
            const FunctionRef nested{ref.file, static_cast<int>(i)};
            if (fi.isLambda && fi.enclosing == ref.fn
                && !hot_.count(nested)) {
                hot_.emplace(nested,
                             HotMark{ref, "defined inside hot "
                                          + fn(ref).qualName});
                work.push_back(nested);
            }
        }
    };

    // Adding a conduit makes every lambda passed into it hot.
    const auto addConduit = [&](const std::string &name,
                                const FunctionRef &cause) {
        if (!conduits_.insert(name).second)
            return;
        for (size_t f = 0; f < files_.size(); ++f) {
            const FileSummary &sum = files_[f];
            for (size_t i = 0; i < sum.functions.size(); ++i) {
                const FunctionInfo &fi = sum.functions[i];
                const FunctionRef ref{static_cast<int>(f),
                                      static_cast<int>(i)};
                if (fi.isLambda && bareName(fi.passedTo) == name
                    && !hot_.count(ref)) {
                    hot_.emplace(
                        ref, HotMark{cause, "callback passed into "
                                            "hot conduit '" + name
                                            + "'"});
                    work.push_back(ref);
                }
            }
        }
    };

    // Which enclosing-chain function declares `name` as a parameter?
    const auto paramOwner =
        [&](const FunctionRef &ref,
            const std::string &name) -> FunctionRef {
        FunctionRef cur = ref;
        while (cur.valid()) {
            const FunctionInfo &fi = fn(cur);
            if (std::find(fi.params.begin(), fi.params.end(), name)
                != fi.params.end())
                return cur;
            if (fi.enclosing < 0)
                break;
            cur = FunctionRef{cur.file, fi.enclosing};
        }
        return FunctionRef{};
    };

    while (!work.empty()) {
        const FunctionRef ref = work.front();
        work.pop_front();
        enqueueNested(ref);
        const FunctionInfo &fi = fn(ref);
        for (const CallSite &call : fi.calls) {
            for (const FunctionRef &callee :
                 resolve(ref.file, call.name)) {
                if (hot_.count(callee))
                    continue;
                hot_.emplace(callee,
                             HotMark{ref, "called from " + fi.qualName
                                          + " at "
                                          + files_[static_cast<size_t>(
                                                       ref.file)]
                                                .path
                                          + ":"
                                          + std::to_string(call.line)});
                work.push_back(callee);
            }
            // Callback conduit: a hot body invoking one of its (or an
            // enclosing function's) parameters means lambdas passed
            // into that function run hot too.
            const std::string bare = bareName(call.name);
            if (bare.find("::") != std::string::npos)
                continue;
            const FunctionRef owner = paramOwner(ref, bare);
            if (owner.valid() && !fn(owner).isLambda)
                addConduit(fn(owner).name, ref);
        }
    }
}

std::string
RepoGraph::hotPath(const FunctionRef &r) const
{
    std::vector<std::string> hops;
    FunctionRef cur = r;
    // Bounded walk: provenance chains are acyclic by construction,
    // but stay defensive against index confusion.
    for (int guard = 0; guard < 64 && cur.valid(); ++guard) {
        hops.push_back(fn(cur).qualName + " (" + where(cur) + ")");
        const auto it = hot_.find(cur);
        if (it == hot_.end())
            break;
        cur = it->second.parent;
    }
    std::string out;
    for (auto it = hops.rbegin(); it != hops.rend(); ++it) {
        if (!out.empty())
            out += " -> ";
        out += *it;
    }
    return out;
}

std::string
RepoGraph::mutexKey(int fileIdx, const std::string &siteName) const
{
    const auto keyOf = [](const FileSummary &sum, const MutexDecl &m) {
        std::string key;
        if (!isHeaderPath(sum.path))
            key = sum.path + "::";
        if (!m.klass.empty())
            key += m.klass + "::";
        key += m.name;
        return key;
    };
    // Same-file declaration wins; otherwise the name must be unique.
    std::vector<std::string> keys;
    for (size_t f = 0; f < files_.size(); ++f) {
        for (const MutexDecl &m : files_[f].mutexes) {
            if (m.name != siteName)
                continue;
            if (static_cast<int>(f) == fileIdx)
                return keyOf(files_[f], m);
            keys.push_back(keyOf(files_[f], m));
        }
    }
    if (keys.size() == 1)
        return keys.front();
    return "";
}

const std::set<std::string> &
RepoGraph::transitiveLocks(const FunctionRef &r) const
{
    const auto it = transLocks_.find(r);
    return it == transLocks_.end() ? kEmptyLockSet : it->second;
}

void
RepoGraph::buildLocks()
{
    // Direct acquisitions, keyed by canonical mutex identity.
    for (size_t f = 0; f < files_.size(); ++f) {
        const FileSummary &sum = files_[f];
        for (size_t i = 0; i < sum.functions.size(); ++i) {
            const FunctionInfo &fi = sum.functions[i];
            const FunctionRef ref{static_cast<int>(f),
                                  static_cast<int>(i)};
            for (const LockSite &l : fi.locks) {
                const std::string key =
                    mutexKey(static_cast<int>(f), l.mutexName);
                if (key.empty())
                    continue;
                transLocks_[ref].insert(key);
                acquired_.insert(key);
            }
        }
    }

    // Transitive closure over resolvable calls (fixpoint).
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t f = 0; f < files_.size(); ++f) {
            const FileSummary &sum = files_[f];
            for (size_t i = 0; i < sum.functions.size(); ++i) {
                const FunctionInfo &fi = sum.functions[i];
                const FunctionRef ref{static_cast<int>(f),
                                      static_cast<int>(i)};
                for (const CallSite &call : fi.calls) {
                    for (const FunctionRef &callee :
                         resolve(static_cast<int>(f), call.name)) {
                        const auto ct = transLocks_.find(callee);
                        if (ct == transLocks_.end())
                            continue;
                        auto &mine = transLocks_[ref];
                        for (const std::string &key : ct->second)
                            changed |= mine.insert(key).second;
                    }
                }
            }
        }
    }

    // Lock-order edges: an acquisition held when a second mutex is
    // taken (directly later in the body, or inside any callee).
    std::set<std::pair<std::string, std::string>> seen;
    const auto addEdge = [&](const std::string &from,
                             const std::string &to,
                             const std::string &witness,
                             const std::string &file, int line) {
        if (from == to)
            return;
        if (!seen.insert({from, to}).second)
            return;
        edges_.push_back(LockEdge{from, to, witness, file, line});
    };
    for (size_t f = 0; f < files_.size(); ++f) {
        const FileSummary &sum = files_[f];
        for (size_t i = 0; i < sum.functions.size(); ++i) {
            const FunctionInfo &fi = sum.functions[i];
            for (size_t a = 0; a < fi.locks.size(); ++a) {
                const LockSite &l1 = fi.locks[a];
                const std::string k1 =
                    mutexKey(static_cast<int>(f), l1.mutexName);
                if (k1.empty())
                    continue;
                const std::string witness =
                    fi.qualName + " (" + sum.path + ":"
                    + std::to_string(l1.line) + ")";
                // Acquisition order is vector order: the parser
                // records locks as it walks the body, so same-line
                // guards still order correctly.
                for (size_t b = a + 1; b < fi.locks.size(); ++b) {
                    const LockSite &l2 = fi.locks[b];
                    const std::string k2 =
                        mutexKey(static_cast<int>(f), l2.mutexName);
                    if (!k2.empty())
                        addEdge(k1, k2, witness, sum.path, l1.line);
                }
                for (const CallSite &call : fi.calls) {
                    if (call.line < l1.line)
                        continue;
                    for (const FunctionRef &callee :
                         resolve(static_cast<int>(f), call.name))
                        for (const std::string &k2 :
                             transitiveLocks(callee))
                            addEdge(k1, k2, witness, sum.path, l1.line);
                }
            }
        }
    }
}

std::vector<LockEdge>
RepoGraph::findLockCycle() const
{
    // Adjacency over canonical mutex keys.
    std::map<std::string, std::vector<const LockEdge *>> adj;
    for (const LockEdge &e : edges_)
        adj[e.from].push_back(&e);

    std::set<std::string> done;
    std::vector<const LockEdge *> stack;
    std::set<std::string> onStack;
    std::vector<LockEdge> cycle;

    const std::function<bool(const std::string &)> dfs =
        [&](const std::string &node) -> bool {
        onStack.insert(node);
        for (const LockEdge *e : adj[node]) {
            if (onStack.count(e->to)) {
                // Unwind the stack to the cycle entry point.
                stack.push_back(e);
                size_t start = 0;
                for (size_t k = 0; k < stack.size(); ++k)
                    if (stack[k]->from == e->to)
                        start = k;
                for (size_t k = start; k < stack.size(); ++k)
                    cycle.push_back(*stack[k]);
                return true;
            }
            if (done.count(e->to))
                continue;
            stack.push_back(e);
            if (dfs(e->to))
                return true;
            stack.pop_back();
        }
        onStack.erase(node);
        done.insert(node);
        return false;
    };

    for (const auto &[node, unused] : adj) {
        (void)unused;
        if (!done.count(node) && dfs(node))
            return cycle;
    }
    return {};
}

} // namespace lrd::lint
