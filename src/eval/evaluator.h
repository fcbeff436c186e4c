/**
 * @file
 * Benchmark evaluator. Multiple-choice items are scored by summed
 * log-likelihood of each choice continuation (the lm-evaluation-
 * harness protocol the paper follows); GSM8K-style items are scored
 * by greedy-decode exact match.
 *
 * Decoder (LlamaStyle) models share the context prefix across choices
 * through a copied KV-cache session. Encoder (BertStyle) models are
 * scored by pseudo-log-likelihood: each choice position is masked in
 * turn and the original token's probability read out.
 *
 * Items fan out across the thread pool on the one model the evaluator
 * was given: inference only reads the weights, and each item keeps its
 * activations in its own sessions, so no worker needs a replica and
 * results are bitwise identical at any LRD_THREADS.
 */

#ifndef LRD_EVAL_EVALUATOR_H
#define LRD_EVAL_EVALUATOR_H

#include <map>

#include "eval/benchmarks.h"
#include "model/transformer.h"

namespace lrd {

/** Evaluation knobs. */
struct EvalOptions
{
    int numTasks = 120;          ///< Items per benchmark.
    uint64_t seed = 777;         ///< Task-generation seed.
    bool lengthNormalize = false; ///< acc_norm-style scoring.
};

/** Runs the benchmark suite against one model. */
class Evaluator
{
  public:
    Evaluator(const TransformerModel &model, const World &world,
              EvalOptions opts = {});

    /** Accuracy on one benchmark. */
    EvalResult run(BenchmarkKind kind);

    /** Accuracy on every benchmark (paper Figure 9's panel set). */
    std::map<BenchmarkKind, EvalResult> runAll();

    /** Mean accuracy across all benchmarks (Figures 7 and 8). */
    double aggregateAccuracy();

    /** Which choice a decoder model picks for one item. */
    int pickChoiceCausal(const McTask &task);

    /** Which choice an encoder model picks for one item (PLL). */
    int pickChoiceBert(const McTask &task);

  private:
    EvalResult runMc(BenchmarkKind kind);
    EvalResult runGen();

    /**
     * Score items [0, n) via fn(i), fanning out across the global
     * thread pool over the shared model; the result is bitwise
     * independent of the thread count.
     */
    template <class Fn>
    void forEachItemParallel(int64_t n, const Fn &fn);

    const TransformerModel &model_;
    const World &world_;
    EvalOptions opts_;
};

} // namespace lrd

#endif // LRD_EVAL_EVALUATOR_H
