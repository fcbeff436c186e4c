/**
 * @file
 * Forwarding header. The candidate-record and result-file I/O it once
 * declared lives in dse/optimizer.h; this file exists only because
 * perfbench/workloads.cc still includes it, and goes when perfbench
 * drops that include.
 */

#ifndef LRD_DSE_SHARD_H
#define LRD_DSE_SHARD_H

#include "dse/optimizer.h"

#endif // LRD_DSE_SHARD_H
