/**
 * @file
 * Protocol annotations for static analysis.
 *
 * `tools/sim_lint.py` (rules R5-R8) reads these macros. They expand to
 * nothing for every compiler; the linter reads the tokens from source
 * text and builds a registry of which functions defer callbacks, which
 * consult the *live* L2P/epoch state, which register stats, and which
 * open/close tracer spans. The deferred-state contract they encode is
 * documented in DESIGN.md ("Deferred-state protocol"): state captured
 * at command issue (a PPN, a PageView, a cache slot, a hot-tier pin)
 * must be passed through a live-lookup or epoch check at completion
 * time before it is re-inserted into any mapping-derived structure.
 */

#ifndef RECSSD_COMMON_ANALYSIS_H
#define RECSSD_COMMON_ANALYSIS_H

/* ------------------------------------------------------------------ */
/* sim-lint protocol markers (rules R5-R8). All expand to nothing;    */
/* their value is the token in the source text.                       */
/* ------------------------------------------------------------------ */

/**
 * R5: this function consults the *live* mapping / epoch state, not a
 * snapshot. Calling it inside a deferred body (completion callback,
 * scheduled event) is what re-validates captured PPNs/views before
 * use. Place after the parameter list:
 *
 *     Ppn translate(Lpn lpn) RECSSD_LIVE_LOOKUP { ... }
 */
#define RECSSD_LIVE_LOOKUP

/**
 * R5/R8: callable arguments to this function run *later* (at a
 * completion, a resource grant, a scheduled tick), not inline. Lambdas
 * passed to it are deferred bodies: their captures are issue-time
 * snapshots and fall under the deferred-state protocol.
 */
#define RECSSD_DEFERS_CALLBACK

/**
 * R5: this function mutates the L2P mapping (bumps a page's remap
 * epoch). Observer notifications annotated RECSSD_NOTIFIES_MAP_SET
 * must be dominated by a call to one of these in the same body.
 */
#define RECSSD_MAP_MUTATOR

/**
 * R5: the observer installed through this setter reports mapping
 * changes; the stored callback must only ever be invoked *after* a
 * RECSSD_MAP_MUTATOR call in the same body (at the map-set instant,
 * never at command entry). The linter derives the member name from
 * the setter (`setWriteObserver` -> `writeObserver_`).
 */
#define RECSSD_NOTIFIES_MAP_SET

/**
 * R6: this function appends a named getter to a StatRegistry.
 * Registrations must dominate sampler/exporter touches within a body,
 * and must never run from a deferred event body.
 */
#define RECSSD_STAT_REGISTRATION

/**
 * R6: this function reads the registry's current shape (samples it,
 * exports rows, scans names). A registration after one of these in
 * the same body is the PR 8 out-of-bounds class.
 */
#define RECSSD_REGISTRY_SAMPLING

/**
 * R7: this function opens a tracer span and returns its SpanId. Every
 * begun span must be ended, captured into a continuation, stored, or
 * returned on every path of the body that begins it.
 */
#define RECSSD_SPAN_BEGIN

/** R7: this function closes a span passed to it. */
#define RECSSD_SPAN_END

/**
 * R5/R8 suppression, placed as the first statement of a deferred
 * body whose captured state is safe without a live lookup. The
 * justification is mandatory and should say *why* the snapshot cannot
 * go stale (immutable region, value-copied payload, ...).
 *
 *     eq.scheduleAfter(d, [snapshot]() {
 *         RECSSD_DEFERRED_SAFE("value copy; no mapping state");
 *         ...
 *     });
 */
#define RECSSD_DEFERRED_SAFE(why)

/**
 * R8 ownership annotation: this deferred body intentionally captures
 * a raw reference/pointer to mutable simulator state. The
 * justification must name the lifetime argument (e.g. "outlives the
 * drained event queue").
 */
#define RECSSD_CAPTURES_MAPPING(why)

#endif  // RECSSD_COMMON_ANALYSIS_H
