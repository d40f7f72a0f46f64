/**
 * @file
 * Source-level discipline tags read by tools/pcnn_analyze.
 *
 * The macros expand to nothing: they exist so the analyzer (and the
 * reader) can see which functions carry extra obligations. Place a
 * tag on its own line immediately above the function's return type:
 *
 *   PCNN_HOT_PATH
 *   void
 *   FcLayer::forwardImpl(...)
 *
 * PCNN_HOT_PATH — the function is on the steady-state inference
 * path. pcnn_analyze walks its transitive (name-level) callees and
 * rejects any reachable allocating primitive — operator new, malloc,
 * container growth (push_back/resize/reserve/...), container or
 * Tensor construction — unless the site carries an explicit
 * exemption:
 *
 *   // pcnn-analyze: allow(hot-path-alloc): <why this is safe>
 *
 * Legitimate exemptions are grow-only scratch (capacity is reused
 * once warm), generation-gated repacks (run once per weight update),
 * and request plumbing outside the probed envelope. The runtime
 * cross-check (common/alloc_count.hh probes in tests) keeps the
 * whitelist honest: a wrongly-allowed site shows up as a non-zero
 * steady-state allocation count.
 *
 * PCNN_BINARY_READER — the function parses untrusted length-driven
 * binary input. pcnn_analyze requires a validation (PCNN_CHECK /
 * PCNN_DCHECK or an early-failure guard) between function entry —
 * or the previous length-driven read — and each read.
 */

#ifndef PCNN_COMMON_TAGS_HH
#define PCNN_COMMON_TAGS_HH

#define PCNN_HOT_PATH
#define PCNN_BINARY_READER

#endif // PCNN_COMMON_TAGS_HH
