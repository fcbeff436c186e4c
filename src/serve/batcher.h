/**
 * @file
 * The continuous batcher: executes one tick's batch of sequence-
 * scoring requests on the thread pool, writing each response into its
 * request's fixed slot.
 *
 * Determinism contract (same as the evaluator's): every worker scores
 * on the one shared serving model — inference is a const function of
 * the weights and each request's KV cache lives in its own session —
 * items are independent, and each item writes only its own slot, so
 * response content is invariant under LRD_THREADS.
 *
 * Fault hook: the serve.batch nan site is checked ONCE per batch on
 * the control thread before the parallel region, and deterministically
 * poisons the batch's first item — the injected numeric failure lands
 * on the same request at any thread count.
 */

#ifndef LRD_SERVE_BATCHER_H
#define LRD_SERVE_BATCHER_H

#include <cstdint>
#include <vector>

#include "model/transformer.h"
#include "serve/request.h"

namespace lrd {

class Batcher
{
  public:
    /**
     * @param primary Full-rank serving model (borrowed; must outlive
     *        the batcher).
     * @param fallback Optional lower-rank variant for the degradation
     *        ladder's RankFallback rung (borrowed; may be null, in
     *        which case fallback execution uses the primary).
     */
    Batcher(const TransformerModel &primary,
            const TransformerModel *fallback);

    /**
     * Score `batch` and write outcome/score/status into the matching
     * slots of `out` (indexed by position in `batch`). Every scored
     * slot is settled as Responded; an injected serve.batch numeric
     * fault settles item 0 with a NonFinite status instead of a score.
     * Once cancellation is requested, items not finished before it
     * (dropped by the pool, or possibly cut short) stay Pending.
     */
    void execute(const std::vector<ServeRequest> &batch, bool useFallback,
                 int64_t tick, std::vector<ServeResponse *> &out);

  private:
    const TransformerModel &primary_;
    const TransformerModel &fallback_;
};

} // namespace lrd

#endif // LRD_SERVE_BATCHER_H
