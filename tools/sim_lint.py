#!/usr/bin/env python3
"""sim_lint -- static enforcement of the RecSSD determinism contract
and the deferred-state protocol.

Every number this repository reports is credible only because a seeded
simulation run is a pure function of its configuration.  The golden
latency suite, the shard differential suite and the paper-figure
reproductions all byte-compare artifacts across runs, so the source
rules that make that true are enforced here as explicit, numbered
rules (see DESIGN.md "Determinism contract" and "Deferred-state
protocol"):

  R1  no-wall-clock     No std::chrono::{system,steady,high_resolution}
                        _clock, time(), clock(), std::rand()/srand(),
                        or std::random_device outside src/common/random.*.
                        All time comes from the EventQueue; all
                        randomness comes from recssd::Rng.
  R2  unit-literals     No bare numeric literal assigned to a Tick
                        (except 0): latencies are written through the
                        nsec/usec/msec/sec helpers so units are visible
                        at every call site.  src/common/types.h (which
                        defines the helpers) is exempt.
  R3  ordered-output    No range-for / iterator traversal of an
                        unordered_map/unordered_set: iteration order is
                        a function of hashing and libstdc++ internals,
                        and one leak into a stats dump, trace export,
                        JSON artifact or timed-event issue order breaks
                        bit-reproducibility.  Justified exceptions
                        (order-independent folds, sorted-after copies)
                        carry an explicit suppression comment.
  R4  typed-schedule    Every schedule()/scheduleAfter() call site
                        passes a Tick-typed expression, never a raw
                        integer literal -- `eq.scheduleAfter(1, ..)`
                        hides whether that 1 is a ns or a us.

Protocol rules (R5-R8) are driven by the annotation macros declared in
src/common/analysis.h.  A first pass over the tree collects every
function marked RECSSD_LIVE_LOOKUP / RECSSD_DEFERS_CALLBACK /
RECSSD_MAP_MUTATOR / RECSSD_NOTIFIES_MAP_SET /
RECSSD_STAT_REGISTRATION / RECSSD_REGISTRY_SAMPLING /
RECSSD_SPAN_BEGIN / RECSSD_SPAN_END; a second, per-function flow pass
over lambdas and callback bodies applies:

  R5  deferred-revalidate
        A completion callback or scheduled-event body that uses a
        captured PPN / PageView / cache-slot / pin must pass it
        through a declared live-lookup (RECSSD_LIVE_LOOKUP) before the
        first use -- state captured at command issue is stale by
        default (stale deferred cache inserts, hot-tier pins).  The
        same holds for state a continuation reads back out of a
        per-operation record (a RecordPool member): in a function that
        a deferred body calls, a state-named field of a record taken
        from the pool (`read.ppn`) counts as a capture.  Also:
        a mapping-change observer (RECSSD_NOTIFIES_MAP_SET) may only
        fire after a RECSSD_MAP_MUTATOR call in the same body (at the
        map-set instant, never at command entry).
  R6  register-before-sample
        A StatRegistry registration (RECSSD_STAT_REGISTRATION) must
        not follow a registry sample/export touch
        (RECSSD_REGISTRY_SAMPLING) in the same body, must never run
        from a deferred event body, and row exporters must bound
        indexed reads by the sampled row's width, not the registry's
        current width (the PR 8 out-of-bounds class).
  R7  span-pairing
        Every tracer span begun (RECSSD_SPAN_BEGIN) must be ended
        (RECSSD_SPAN_END), captured into a continuation, stored or
        returned in the body that begins it, with no plain `return`
        between the begin and its first resolution.
  R8  event-payload-ownership
        A deferred body must not capture by reference (default `&` or
        `&name`): the payload of a scheduled event owns its state by
        value unless an explicit RECSSD_CAPTURES_MAPPING("lifetime
        argument") annotation justifies the reference.

  S1  stale-suppression  A `sim-lint: allow(...)` whose rule no longer
                         fires on its target line is dead weight and
                         hides future violations; remove it.

Suppression syntax (a justification is mandatory):

    code();  // sim-lint: allow(R3) summed counters; order-independent

applies to its own line, or -- when the comment stands alone -- to the
next line.  `file-allow` on any line suppresses a rule file-wide:

    // sim-lint: file-allow(R2) table of raw calibration constants

In deferred bodies, RECSSD_DEFERRED_SAFE("why") /
RECSSD_CAPTURES_MAPPING("why") are the preferred in-code suppressions
for R5/R8 (they survive refactors that move lines).

Usage:
    sim_lint.py [--root DIR] [paths...]     # default paths: src tools bench
    sim_lint.py --format github             # GitHub line annotations
    sim_lint.py --json-out FILE             # machine-readable report
    sim_lint.py --self-test                 # run against seeded fixtures
    sim_lint.py --self-test-rule R5         # one rule's fixture pair
    sim_lint.py --list-rules

Exit status: 0 clean, 1 violations found, 2 usage/self-test failure.
"""

import argparse
import bisect
import json
import os
import re
import sys

EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
EXCLUDED_DIR_NAMES = {"build", "build-asan", "build-tsan", "build-warn",
                      "sim_lint_fixtures"}

RULES = {
    "R1": "no-wall-clock: wall-clock/OS randomness outside src/common/random.*",
    "R2": "unit-literals: bare numeric literal in a Tick expression "
          "(write `N * nsec/usec/msec/sec`)",
    "R3": "ordered-output: iteration over an unordered container "
          "(hash order must never reach an exported artifact)",
    "R4": "typed-schedule: schedule()/scheduleAfter() passed a raw "
          "integer literal instead of a Tick expression",
    "R5": "deferred-revalidate: captured mapping state consumed in a "
          "deferred body without a live-lookup / epoch check",
    "R6": "register-before-sample: stat registration racing the "
          "metric sampler / registry-shaped row export",
    "R7": "span-pairing: tracer span begun but not ended or handed "
          "off on every path",
    "R8": "event-payload-ownership: reference capture in a deferred "
          "body without an ownership annotation",
    "S1": "stale-suppression: allow() whose rule no longer fires on "
          "its target line",
}

HINTS = {
    "R1": "draw time from EventQueue::now() and randomness from recssd::Rng",
    "R2": "multiply by a unit helper: `40 * nsec`, not `40`",
    "R3": "iterate a sorted/insertion-ordered view, or suppress with "
          "`// sim-lint: allow(R3) <why order cannot leak>`",
    "R4": "pass a unit expression: `eq.scheduleAfter(1 * nsec, ...)`",
    "R5": "re-resolve through a RECSSD_LIVE_LOOKUP function (map lookup, "
          "writeEpochOf) before the first use, or justify with "
          "RECSSD_DEFERRED_SAFE(\"why\")",
    "R6": "register every stat before the sampler's first touch, or "
          "clamp row exports to min(names, row.values)",
    "R7": "end the span on every path, or hand it to the continuation "
          "that will (capture / store / return)",
    "R8": "capture by value (or shared_ptr), or justify the reference "
          "with RECSSD_CAPTURES_MAPPING(\"lifetime argument\")",
    "S1": "delete the suppression (or fix the drifted code it used to "
          "justify)",
}

# Files exempt from a rule by construction.
FILE_EXEMPT = {
    "R1": (os.path.join("src", "common", "random.h"),
           os.path.join("src", "common", "random.cc")),
    "R2": (os.path.join("src", "common", "types.h"),),
}

SUPPRESS_RE = re.compile(
    r"//\s*sim-lint:\s*(allow|file-allow)\(([A-Z0-9,\s]+)\)\s*(\S.*)?$")
EXPECT_RE = re.compile(r"//\s*expect:\s*((?:[RS]\d)(?:\s*,\s*[RS]\d)*)")

R1_PATTERNS = [
    re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"),
    re.compile(r"\bstd\s*::\s*chrono\b"),
    re.compile(r"<\s*chrono\s*>"),
    re.compile(r"\brandom_device\b"),
    re.compile(r"\bsrand\s*\("),
    re.compile(r"(?<![\w.])rand\s*\("),
    re.compile(r"(?<![\w.])time\s*\("),
    re.compile(r"(?<![\w.])clock\s*\("),
    re.compile(r"\b(?:gettimeofday|clock_gettime|mktime|localtime|gmtime)"
               r"\s*\("),
]

R2_PATTERNS = [
    # Tick x = 42;   (0 stays legal: it is unit-free by definition)
    re.compile(r"\bTick\s+\w+\s*=\s*(\d+)\s*[;,)}]"),
    # Tick(42) constructor-cast of a bare literal
    re.compile(r"\bTick\s*\(\s*(\d+)\s*\)"),
]

R4_PATTERN = re.compile(r"\bschedule(?:After)?\s*\(\s*\d+\s*[,)]")

UNORDERED_RE = re.compile(r"\bunordered_(?:map|set)\b")
ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*[^;]*?\bunordered_(?:map|set)\b", re.S)

# ---------------------------------------------------------------------------
# Protocol annotation registry (src/common/analysis.h markers)
# ---------------------------------------------------------------------------

MARKER_KINDS = {
    "RECSSD_LIVE_LOOKUP": "live_lookups",
    "RECSSD_DEFERS_CALLBACK": "defers",
    "RECSSD_MAP_MUTATOR": "map_mutators",
    "RECSSD_NOTIFIES_MAP_SET": "notify_setters",
    "RECSSD_STAT_REGISTRATION": "registrations",
    "RECSSD_REGISTRY_SAMPLING": "samplings",
    "RECSSD_SPAN_BEGIN": "span_begins",
    "RECSSD_SPAN_END": "span_ends",
}

MARKER_RE = re.compile(r"\b(" + "|".join(MARKER_KINDS) + r")\b")

# A RecordPool member declaration: `RecordPool<ReadOp> reads_;`.
RECORD_POOL_RE = re.compile(r"\bRecordPool\s*<[^;{}()]*>\s+(\w+)\s*[;{=]")

# Capture names that denote issue-time mapping state (the currency of
# the deferred-state protocol): physical page numbers, page views, and
# cache/tier slots & pins.  The annotation pass keeps PPN-typed
# captures on this naming convention so the analyzer can see them.
STATE_NAME_PARTS = {"ppn", "ppns", "view", "views", "page", "pages",
                    "slot", "slots", "pin", "pins", "pinned"}


def is_state_name(name):
    parts = re.split(r"_+|(?<=[a-z])(?=[A-Z])", name)
    return any(p.lower() in STATE_NAME_PARTS for p in parts if p)


class Registry:
    """Protocol facts collected from annotations across the tree."""

    def __init__(self):
        self.live_lookups = set()
        self.defers = set()
        self.map_mutators = set()
        self.notify_setters = set()
        self.registrations = set()
        self.samplings = set()
        self.span_begins = set()
        self.span_ends = set()
        self.record_pools = set()  # RecordPool members (per-op records)

    def observer_members(self):
        """`setWriteObserver` -> `writeObserver_` (by convention)."""
        members = set()
        for setter in self.notify_setters:
            m = re.match(r"set([A-Z]\w*)$", setter)
            if m:
                members.add(m.group(1)[0].lower() + m.group(1)[1:] + "_")
        return members


def func_name_before(text, pos):
    """Identifier of the function whose parameter list's closing paren
    precedes `pos` (skipping trailing const/noexcept/override/= 0)."""
    i = pos - 1
    while True:
        while i >= 0 and text[i] in " \t\n":
            i -= 1
        moved = False
        for kw in ("const", "noexcept", "override", "final", "mutable"):
            lo = i - len(kw) + 1
            if lo >= 0 and text[lo:i + 1] == kw and \
                    (lo == 0 or not (text[lo - 1].isalnum() or
                                     text[lo - 1] == "_")):
                i = lo - 1
                moved = True
                break
        if not moved:
            break
    if i < 0 or text[i] != ")":
        return None
    depth = 0
    while i >= 0:
        if text[i] == ")":
            depth += 1
        elif text[i] == "(":
            depth -= 1
            if depth == 0:
                break
        i -= 1
    i -= 1
    while i >= 0 and text[i] in " \t\n":
        i -= 1
    j = i
    while j >= 0 and (text[j].isalnum() or text[j] == "_"):
        j -= 1
    name = text[j + 1:i + 1]
    return name or None


def blank_preprocessor(stripped):
    """Blank lines whose first non-ws char is '#': macro definitions of
    the annotation tokens must not register as annotations."""
    out = []
    for line in stripped.split("\n"):
        if line.lstrip().startswith("#"):
            out.append(" " * len(line))
        else:
            out.append(line)
    return "\n".join(out)


def collect_annotations(stripped_nopp, registry):
    for m in MARKER_RE.finditer(stripped_nopp):
        kind = MARKER_KINDS[m.group(1)]
        name = func_name_before(stripped_nopp, m.start())
        if name:
            getattr(registry, kind).add(name)
    for m in RECORD_POOL_RE.finditer(stripped_nopp):
        registry.record_pools.add(m.group(1))


# ---------------------------------------------------------------------------
# Light structural parsing: comment/string stripping, lambdas, bodies
# ---------------------------------------------------------------------------


def strip_code(text):
    """Blank out comments and string/char literals, preserving line
    structure, so rule regexes never fire inside prose or data."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def match_forward(text, i, open_c, close_c):
    """text[i] == open_c (or earlier): index of the matching close_c."""
    depth = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_c:
            depth += 1
        elif c == close_c:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return None


class Lambda:
    __slots__ = ("start", "captures", "params", "body_start", "body_end",
                 "context", "context_name")

    def __init__(self, start, captures, params, body_start, body_end):
        self.start = start
        self.captures = captures
        self.params = params
        self.body_start = body_start  # index just past '{'
        self.body_end = body_end      # index of matching '}'
        self.context = ""
        self.context_name = ""


_LAMBDA_HEAD_RE = re.compile(
    r"\s*(?:mutable\s*)?(?:noexcept\s*)?(?:->\s*[\w:<>&*,\s]+?)?\s*\{")

_KEYWORDS_BEFORE_LAMBDA = {"return", "co_return", "case", "else", "do", "in"}


def find_lambdas(stripped):
    """Every lambda literal in the (stripped) text, outermost first."""
    lambdas = []
    i = 0
    n = len(stripped)
    while i < n:
        if stripped[i] != "[":
            i += 1
            continue
        # `[[attr]]` and subscripts `a[i]` are not lambda intros.
        if i + 1 < n and stripped[i + 1] == "[":
            i += 2
            continue
        j = i - 1
        while j >= 0 and stripped[j] in " \t\n":
            j -= 1
        prev = stripped[j] if j >= 0 else ""
        if prev.isalnum() or prev in "_)]":
            # ...unless the identifier is a statement keyword.
            k = j
            while k >= 0 and (stripped[k].isalnum() or stripped[k] == "_"):
                k -= 1
            word = stripped[k + 1:j + 1]
            if word not in _KEYWORDS_BEFORE_LAMBDA:
                i += 1
                continue
        cap_end = match_forward(stripped, i, "[", "]")
        if cap_end is None:
            i += 1
            continue
        captures = stripped[i + 1:cap_end]
        m = cap_end + 1
        while m < n and stripped[m] in " \t\n":
            m += 1
        params = ""
        if m < n and stripped[m] == "(":
            p_end = match_forward(stripped, m, "(", ")")
            if p_end is None:
                i = cap_end + 1
                continue
            params = stripped[m + 1:p_end]
            m = p_end + 1
        head = _LAMBDA_HEAD_RE.match(stripped, m)
        if not head:
            i = cap_end + 1
            continue
        body_open = head.end() - 1
        body_close = match_forward(stripped, body_open, "{", "}")
        if body_close is None:
            i = cap_end + 1
            continue
        lam = Lambda(i, captures, params, body_open + 1, body_close)
        lam.context, lam.context_name = enclosing_context(stripped, i)
        lambdas.append(lam)
        i = cap_end + 1  # keep scanning inside for nested lambdas
    return lambdas


def enclosing_context(stripped, pos):
    """How the lambda at `pos` is consumed: ('call', fn) when it is an
    argument of fn(...), ('assign', '') when bound to a variable,
    ('stmt', '') otherwise."""
    depth = 0
    i = pos - 1
    while i >= 0:
        c = stripped[i]
        if c in ")]}":
            depth += 1
        elif c in "([{":
            if depth == 0:
                if c == "(":
                    j = i - 1
                    while j >= 0 and stripped[j] in " \t\n":
                        j -= 1
                    k = j
                    while k >= 0 and (stripped[k].isalnum() or
                                      stripped[k] == "_"):
                        k -= 1
                    return ("call", stripped[k + 1:j + 1])
                return ("stmt", "")
            depth -= 1
        elif depth == 0:
            if c == "=" and (i == 0 or stripped[i - 1] not in "=!<>+-*/%&|^") \
                    and (i + 1 >= len(stripped) or stripped[i + 1] != "="):
                return ("assign", "")
            if c in ";{}":
                return ("stmt", "")
        i -= 1
    return ("stmt", "")


def parse_captures(cap_text):
    """[(name, by_ref)], has_default_ref, has_default_copy."""
    items = []
    depth = 0
    cur = []
    for c in cap_text + ",":
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        if c == "," and depth == 0:
            item = "".join(cur).strip()
            if item:
                items.append(item)
            cur = []
        else:
            cur.append(c)
    names = []
    default_ref = False
    default_copy = False
    for item in items:
        if item == "&":
            default_ref = True
            continue
        if item == "=":
            default_copy = True
            continue
        if item in ("this", "*this"):
            continue
        by_ref = item.startswith("&")
        body = item[1:] if by_ref else item
        m = re.match(r"([A-Za-z_]\w*)", body)
        if m:
            names.append((m.group(1), by_ref))
    return names, default_ref, default_copy


_FUNC_DEF_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*\("
    r"((?:[^(){};]|\([^()]*\))*)"
    r"\)\s*"
    r"((?:const|noexcept|override|final|mutable|RECSSD_\w+(?:\([^()]*\))?)"
    r"\s*)*"
    r"(?:->\s*[\w:<>&*,\s]+?)?"
    r"(?::\s*(?:[^{};()]|\([^()]*\))*)?"
    r"\{")

_NON_FUNC_NAMES = {"if", "for", "while", "switch", "catch", "return",
                   "sizeof", "alignof", "decltype", "static_assert"}


def find_function_bodies(stripped):
    """(name, body_start, body_end) for every plausible function
    definition.  Over-approximate (a call followed by a lambda body can
    match); findings are deduplicated downstream."""
    bodies = []
    for m in _FUNC_DEF_RE.finditer(stripped):
        name = m.group(1)
        if name in _NON_FUNC_NAMES:
            continue
        open_idx = m.end() - 1
        close_idx = match_forward(stripped, open_idx, "{", "}")
        if close_idx is None:
            continue
        bodies.append((name, open_idx + 1, close_idx))
    return bodies


def mask_ranges(text, ranges):
    """Blank [a, b) spans, preserving newlines (for nested lambdas)."""
    chars = list(text)
    for a, b in ranges:
        for i in range(max(a, 0), min(b, len(chars))):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def collect_suppressions(lines):
    """Map 1-based line number -> set of suppressed rules; plus the
    file-wide suppression set.  Returns (per_line, file_wide, errors,
    entries) where entries back the stale-suppression check."""
    per_line = {}
    file_wide = set()
    errors = []
    entries = []  # dicts: line, kind, rules, target
    for lineno, line in enumerate(lines, 1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        kind, rule_list, justification = m.groups()
        rules = {r.strip() for r in rule_list.split(",") if r.strip()}
        bogus = rules - RULES.keys()
        if bogus:
            errors.append((lineno, "unknown rule(s) in suppression: "
                           + ", ".join(sorted(bogus))))
        if "S1" in rules:
            errors.append((lineno, "S1 (stale-suppression) cannot be "
                           "suppressed"))
            rules.discard("S1")
        if not justification:
            errors.append((lineno, "suppression needs a justification: "
                           "// sim-lint: %s(%s) <why>" % (kind, rule_list)))
        if kind == "file-allow":
            file_wide |= rules
            entries.append({"line": lineno, "kind": kind, "rules": rules,
                            "target": None})
            continue
        # A comment standing alone suppresses the next line; a trailing
        # comment suppresses its own line.
        target = lineno
        if line.split("//")[0].strip() == "":
            target = lineno + 1
        per_line.setdefault(target, set()).update(rules)
        entries.append({"line": lineno, "kind": kind, "rules": rules,
                        "target": target})
    return per_line, file_wide, errors, entries


def skip_angles(text, i):
    """text[i] == '<': return index just past the matching '>'."""
    depth = 0
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def unordered_variable_names(stripped):
    """Names of variables (members, locals, parameters) whose declared
    type involves an unordered container, including through one level
    of `using` alias."""
    names = set()
    aliases = {m.group(1) for m in ALIAS_RE.finditer(stripped)}

    def scan(token_re):
        for m in token_re.finditer(stripped):
            i = m.end()
            # Skip the template argument list, any nesting included.
            while i < len(stripped) and stripped[i] in " \t\n":
                i += 1
            if i < len(stripped) and stripped[i] == "<":
                i = skip_angles(stripped, i)
            # Skip declarator noise: refs, pointers, const, whitespace.
            while True:
                rest = stripped[i:]
                ws = len(rest) - len(rest.lstrip(" \t\n&*"))
                i += ws
                for kw in ("const", "noexcept"):
                    if stripped.startswith(kw, i):
                        i += len(kw)
                        break
                else:
                    break
            im = IDENT_RE.match(stripped, i)
            if not im:
                continue
            after = stripped[im.end():im.end() + 1]
            # `name(` is a function/constructor, not a variable.
            if after == "(":
                continue
            names.add(im.group(0))

    scan(UNORDERED_RE)
    for alias in aliases:
        names.discard(alias)
        scan(re.compile(r"\b%s\b" % re.escape(alias)))
    return names


# ---------------------------------------------------------------------------
# Protocol flow analysis (R5-R8)
# ---------------------------------------------------------------------------


def qualified_call_re(names):
    """Regex matching a member call `.name(` / `->name(` for any of
    `names` (qualification required so e.g. the SLS engine's own
    `translate(entry, ...)` never masquerades as Ftl::translate)."""
    if not names:
        return None
    alt = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(r"(?:\.|->)\s*(?:%s)\s*\(" % alt)


def any_call_re(names):
    """Regex matching `name(` with or without qualification."""
    if not names:
        return None
    alt = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(r"(?:\.|->|\b)(?:%s)\s*\(" % alt)


class FileFlow:
    """Per-file flow analysis over lambdas and function bodies."""

    def __init__(self, stripped_nopp, registry, report):
        self.text = stripped_nopp
        self.registry = registry
        self.report = report
        self.line_starts = [0]
        for m in re.finditer(r"\n", stripped_nopp):
            self.line_starts.append(m.end())
        self.lambdas = find_lambdas(stripped_nopp)
        self.functions = find_function_bodies(stripped_nopp)
        self.live_re = qualified_call_re(registry.live_lookups)
        self.mutator_re = qualified_call_re(registry.map_mutators)
        self.reg_re = any_call_re(registry.registrations)
        self.samp_re = any_call_re(registry.samplings)
        self.begin_re = any_call_re(registry.span_begins)
        self.end_names = registry.span_ends
        self.observer_res = [
            re.compile(r"\b%s\s*\(" % re.escape(m))
            for m in registry.observer_members()
        ]
        self.seen = set()  # (line, rule) dedup across overlapping bodies

    def line_of(self, pos):
        return bisect.bisect_right(self.line_starts, pos)

    def emit(self, pos_or_line, rule, detail, is_line=False):
        line = pos_or_line if is_line else self.line_of(pos_or_line)
        key = (line, rule)
        if key in self.seen:
            return
        self.seen.add(key)
        self.report(line, rule, detail)

    # -- body helpers ---------------------------------------------------

    def masked_body(self, start, end):
        """Body text with nested lambda literals blanked (their capture
        lists included: a name entering a nested capture is a handoff,
        analyzed in the nested body, not a use here)."""
        nested = [(l.start, l.body_end + 1) for l in self.lambdas
                  if l.start >= start and l.body_end < end]
        return mask_ranges(self.text[start:end], [(a - start, b - start)
                                                  for a, b in nested])

    def nested_lambdas_in(self, start, end):
        return [l for l in self.lambdas
                if l.start >= start and l.body_end < end]

    def deferred(self, lam):
        return lam.context == "call" and \
            lam.context_name in self.registry.defers

    def all_bodies(self):
        """(start, end) for every function body and lambda body."""
        bodies = [(s, e) for _, s, e in self.functions]
        bodies += [(l.body_start, l.body_end) for l in self.lambdas]
        return bodies

    # -- R5: deferred-revalidate ---------------------------------------

    def check_r5(self):
        for lam in self.lambdas:
            if not self.deferred(lam):
                continue
            body = self.masked_body(lam.body_start, lam.body_end)
            if "RECSSD_DEFERRED_SAFE" in body:
                continue
            names, _, _ = parse_captures(lam.captures)
            lookup_lines = set()
            if self.live_re:
                for m in self.live_re.finditer(body):
                    lookup_lines.add(self.line_of(lam.body_start + m.start()))
            for name, _ in names:
                if not is_state_name(name):
                    continue
                name_re = re.compile(r"\b%s\b" % re.escape(name))
                use_lines = set()
                for m in name_re.finditer(body):
                    line = self.line_of(lam.body_start + m.start())
                    if line not in lookup_lines:
                        use_lines.add(line)
                if not use_lines:
                    continue
                first_use = min(use_lines)
                if any(l <= first_use for l in lookup_lines):
                    continue
                self.emit(first_use, "R5",
                          "captured `%s` consumed in a deferred body "
                          "without re-validating against the live "
                          "mapping" % name, is_line=True)

    # -- R5 (records): state read back from a per-operation record ----

    _CALL_RE = re.compile(r"(?:\bthis\s*->\s*|(?<![\w.>:]))(\w+)\s*\(")

    def check_r5_records(self):
        """A continuation that captures only a record index
        (`[this, op]() { finishRead(op); }`) receives its issue-time
        state through a RecordPool record.  In each function such a
        deferred body calls, a state-named field of a record bound
        from a pool (`ReadOp read = reads_.take(op)`, `reads_[op]`)
        is a snapshot like a capture: its first use must be dominated
        by a live lookup, or the body must say RECSSD_DEFERRED_SAFE."""
        pools = self.registry.record_pools
        if not pools:
            return
        by_name = {}
        for name, start, end in self.functions:
            by_name.setdefault(name, []).append((start, end))
        pool_alt = "|".join(sorted(re.escape(p) for p in pools))
        bind_re = re.compile(
            r"\b(\w+)\s*=\s*(?:this\s*->\s*)?(?:%s)\s*"
            r"(?:\.\s*take\s*\(|\[)" % pool_alt)
        direct_re = re.compile(
            r"\b((?:%s)\s*\[[^\]]*\])\s*(?:\.|->)\s*(\w+)" % pool_alt)
        consumers = set()
        for lam in self.lambdas:
            if not self.deferred(lam):
                continue
            body = self.masked_body(lam.body_start, lam.body_end)
            for m in self._CALL_RE.finditer(body):
                consumers.update(by_name.get(m.group(1), ()))
        for start, end in sorted(consumers):
            body = self.masked_body(start, end)
            if "RECSSD_DEFERRED_SAFE" in body:
                continue
            uses = [(m.start(), m.group(1), m.group(2))
                    for m in direct_re.finditer(body)]
            records = {m.group(1) for m in bind_re.finditer(body)}
            if records:
                field_re = re.compile(
                    r"\b(%s)\s*(?:\.|->)\s*(\w+)" %
                    "|".join(sorted(re.escape(r) for r in records)))
                uses += [(m.start(), m.group(1), m.group(2))
                         for m in field_re.finditer(body)]
            lookup_lines = set()
            if self.live_re:
                for m in self.live_re.finditer(body):
                    lookup_lines.add(self.line_of(start + m.start()))
            state_uses = sorted(
                (self.line_of(start + pos), "%s.%s" % (rec, field))
                for pos, rec, field in uses if is_state_name(field))
            state_uses = [u for u in state_uses if u[0] not in lookup_lines]
            if not state_uses:
                continue
            first_use, what = state_uses[0]
            if any(l <= first_use for l in lookup_lines):
                continue
            self.emit(first_use, "R5",
                      "record field `%s` consumed in a deferred "
                      "continuation without re-validating against the "
                      "live mapping" % what, is_line=True)

    # -- R5b: observer fires only at the map-set instant ---------------

    def check_observer_order(self):
        if not self.observer_res:
            return
        for start, end in self.all_bodies():
            body = self.masked_body(start, end)
            mut_lines = set()
            if self.mutator_re:
                for m in self.mutator_re.finditer(body):
                    mut_lines.add(self.line_of(start + m.start()))
            for obs_re in self.observer_res:
                for m in obs_re.finditer(body):
                    line = self.line_of(start + m.start())
                    if not any(l < line for l in mut_lines):
                        self.emit(line, "R5",
                                  "mapping-change observer fired with no "
                                  "preceding map mutation in this body "
                                  "(observers run at the map-set instant, "
                                  "not at command entry)", is_line=True)

    # -- R6: register-before-sample ------------------------------------

    def check_r6(self):
        if self.reg_re:
            for start, end in self.all_bodies():
                body = self.masked_body(start, end)
                samp_lines = []
                if self.samp_re:
                    samp_lines = [self.line_of(start + m.start())
                                  for m in self.samp_re.finditer(body)]
                if not samp_lines:
                    continue
                first_samp = min(samp_lines)
                for m in self.reg_re.finditer(body):
                    line = self.line_of(start + m.start())
                    if line > first_samp:
                        self.emit(line, "R6",
                                  "stat registered after the registry was "
                                  "sampled/exported in this body (line %d); "
                                  "rows sampled before this registration "
                                  "have no column for it" % first_samp,
                                  is_line=True)
            # Registration from a deferred event body races the sampler
            # no matter the textual order.
            for lam in self.lambdas:
                if not self.deferred(lam):
                    continue
                body = self.masked_body(lam.body_start, lam.body_end)
                if "RECSSD_DEFERRED_SAFE" in body:
                    continue
                for m in self.reg_re.finditer(body):
                    self.emit(lam.body_start + m.start(), "R6",
                              "stat registered from a deferred event body "
                              "(cannot dominate the sampler's first touch)")
        self.check_r6_row_clamp()

    _FOR_RE = re.compile(
        r"\bfor\s*\(([^;{}]*);([^;{}]*);([^;{}]*)\)\s*\{")
    _VALUES_IDX_RE = re.compile(r"\bvalues\s*\[")

    def check_r6_row_clamp(self):
        for m in self._FOR_RE.finditer(self.text):
            cond = m.group(2)
            open_idx = m.end() - 1
            close_idx = match_forward(self.text, open_idx, "{", "}")
            if close_idx is None:
                continue
            loop_body = self.text[open_idx:close_idx]
            if not self._VALUES_IDX_RE.search(loop_body):
                continue
            bm = re.search(r"<\s*(.+)$", cond.strip())
            if not bm:
                continue
            bound = bm.group(1).strip()
            if "values" in bound:
                continue
            if re.fullmatch(r"[A-Za-z_]\w*", bound):
                # Indirect bound: find its defining expression upstream.
                before = self.text[:m.start()]
                defs = list(re.finditer(
                    r"\b%s\s*=\s*([^;]+);" % re.escape(bound), before))
                if defs and "values" in defs[-1].group(1):
                    continue
                if not defs and "names" not in bound:
                    continue
            elif "names" not in bound and "size" not in bound:
                continue
            self.emit(m.start(), "R6",
                      "indexed read of a sampled row bounded by the "
                      "registry's *current* width (`%s`); stats "
                      "registered after the row was sampled make this "
                      "read out of bounds -- clamp to the row's own "
                      "width" % bound)

    # -- R7: span-pairing ----------------------------------------------

    def check_r7(self):
        if not self.begin_re:
            return
        begin_names = self.registry.span_begins
        # A span begin always takes arguments; requiring a non-empty
        # argument list keeps container `it = c.begin()` calls out even
        # when a tracer names its opener `begin`.
        assign_re = re.compile(
            r"(?<![\w.>])([A-Za-z_]\w*)\s*=\s*[^;=]*?"
            r"\b(?:%s)\s*\(\s*[^)\s]" % "|".join(
                sorted(re.escape(n) for n in begin_names)))
        for start, end in self.all_bodies():
            body = self.masked_body(start, end)
            nested = self.nested_lambdas_in(start, end)
            for am in assign_re.finditer(body):
                var = am.group(1)
                begin_pos = start + am.start()
                stmt_end = body.find(";", am.end())
                search_from = am.end() if stmt_end < 0 else stmt_end
                var_re = re.compile(r"\b%s\b" % re.escape(var))
                # First later use in this body (end call, store, pass,
                # comparison -- any mention counts as the span staying
                # live on this path)...
                use = var_re.search(body, search_from)
                use_pos = start + use.start() if use else None
                # ...or a handoff into a nested continuation's capture
                # list...
                cap_pos = None
                for l in nested:
                    if l.start > begin_pos and var_re.search(l.captures):
                        cap_pos = l.start
                        break
                # ...or `return span;` (the resolution is the return
                # keyword itself, so it must not read as an early-out).
                ret = re.search(r"\breturn\b[^;]*\b%s\b" % re.escape(var),
                                body[search_from:])
                ret_pos = start + search_from + ret.start() if ret else None
                candidates = [p for p in (use_pos, cap_pos, ret_pos)
                              if p is not None]
                if not candidates:
                    self.emit(begin_pos, "R7",
                              "span `%s` is begun but never ended, "
                              "captured, stored or returned in this body"
                              % var)
                    continue
                resolve_pos = min(candidates)
                between = self.text[start + search_from:resolve_pos]
                rm = re.search(r"\breturn\b", between)
                if rm:
                    self.emit(start + search_from + rm.start(), "R7",
                              "`return` between the begin of span `%s` "
                              "and its first end/handoff: the span leaks "
                              "on this path" % var)

    # -- R8: event-payload-ownership -----------------------------------

    def check_r8(self):
        for lam in self.lambdas:
            if not self.deferred(lam):
                continue
            body = self.text[lam.body_start:lam.body_end]
            if "RECSSD_CAPTURES_MAPPING" in body or \
                    "RECSSD_DEFERRED_SAFE" in body:
                continue
            names, default_ref, _ = parse_captures(lam.captures)
            ref_names = [n for n, by_ref in names if by_ref]
            if default_ref:
                self.emit(lam.start, "R8",
                          "default `&` capture in a deferred body: the "
                          "event payload must own its state by value")
            elif ref_names:
                self.emit(lam.start, "R8",
                          "deferred body captures %s by reference without "
                          "an ownership annotation" %
                          ", ".join("`%s`" % n for n in ref_names))

    def run(self):
        self.check_r5()
        self.check_r5_records()
        self.check_observer_order()
        self.check_r6()
        self.check_r7()
        self.check_r8()


# ---------------------------------------------------------------------------
# Per-file rule driver
# ---------------------------------------------------------------------------


def check_file(path, rel, text, decl_text="", registry=None,
               used_suppressions=None):
    """Return a list of (lineno, rule, message) findings.

    `decl_text` carries the sibling header of a .cc file: members are
    declared there but iterated here, so container names are collected
    over both while the rules themselves only scan this file's lines.
    `registry` carries the tree-wide protocol annotations; when None an
    empty registry is used (R5-R8 then only fire on self-declared
    fixtures).  `used_suppressions`, when a set, collects (lineno of
    the suppression comment) for every suppression that fired.
    """
    raw_lines = text.split("\n")
    per_line, file_wide, sup_errors, sup_entries = \
        collect_suppressions(raw_lines)
    stripped = strip_code(text)
    lines = stripped.split("\n")
    findings = []
    for lineno, msg in sup_errors:
        findings.append((lineno, "R0", msg))

    if registry is None:
        registry = Registry()
        collect_annotations(blank_preprocessor(stripped), registry)

    def exempt(rule):
        return any(rel.endswith(suffix) for suffix in FILE_EXEMPT.get(rule, ()))

    fired_suppressions = set()  # entries (by index) that absorbed a finding

    def report(lineno, rule, detail):
        suppressed = False
        if rule in file_wide:
            for idx, e in enumerate(sup_entries):
                if e["kind"] == "file-allow" and rule in e["rules"]:
                    fired_suppressions.add(idx)
            suppressed = True
        if rule in per_line.get(lineno, set()):
            for idx, e in enumerate(sup_entries):
                if e["kind"] == "allow" and e["target"] == lineno and \
                        rule in e["rules"]:
                    fired_suppressions.add(idx)
            suppressed = True
        if not suppressed:
            findings.append((lineno, rule, detail))

    name_source = stripped
    if decl_text:
        name_source = strip_code(decl_text) + "\n" + stripped
    unordered_names = unordered_variable_names(name_source)
    range_for_res = [
        re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+(?:\.|->))*%s\s*\)"
                   % re.escape(name))
        for name in unordered_names
    ]
    begin_res = [
        re.compile(r"\b%s\s*(?:\.|->)\s*c?begin\s*\(" % re.escape(name))
        for name in unordered_names
    ]

    for lineno, line in enumerate(lines, 1):
        if not exempt("R1"):
            for pat in R1_PATTERNS:
                if pat.search(line):
                    report(lineno, "R1",
                           "wall-clock / OS randomness: `%s`"
                           % raw_lines[lineno - 1].strip())
                    break
        if not exempt("R2"):
            for pat in R2_PATTERNS:
                m = pat.search(line)
                if m and int(m.group(1)) != 0:
                    report(lineno, "R2",
                           "bare literal %s in a Tick expression"
                           % m.group(1))
                    break
        for pat in range_for_res:
            if pat.search(line):
                report(lineno, "R3",
                       "range-for over an unordered container")
                break
        else:
            for pat in begin_res:
                if pat.search(line):
                    report(lineno, "R3",
                           "iterator traversal of an unordered container")
                    break
        if R4_PATTERN.search(line):
            report(lineno, "R4",
                   "schedule() with a raw integer literal")

    # Protocol flow rules over the preprocessor-blanked stripped text.
    flow = FileFlow(blank_preprocessor(stripped), registry, report)
    flow.run()

    # Stale suppressions: every allow()/file-allow() must have absorbed
    # at least one finding; otherwise the rule it cites no longer fires
    # and the comment is dead weight (S1 is never suppressible).
    for idx, e in enumerate(sup_entries):
        if idx in fired_suppressions:
            continue
        if used_suppressions is not None:
            # Tree scans check staleness; ad-hoc single-file scans too.
            pass
        rules = ", ".join(sorted(e["rules"])) or "?"
        findings.append((e["line"], "S1",
                         "suppression for %s never fires on its target "
                         "%s" % (rules,
                                 "file-wide" if e["kind"] == "file-allow"
                                 else "line")))

    if used_suppressions is not None:
        for idx in fired_suppressions:
            used_suppressions.add((rel, sup_entries[idx]["line"]))
    return findings


# ---------------------------------------------------------------------------
# Tree scan
# ---------------------------------------------------------------------------


def iter_source_files(root, paths):
    for p in paths:
        top = os.path.join(root, p)
        if os.path.isfile(top):
            yield top
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in EXCLUDED_DIR_NAMES)
            for f in sorted(filenames):
                if f.endswith(EXTENSIONS):
                    yield os.path.join(dirpath, f)


def build_registry(root, paths):
    """Pass 1: collect protocol annotations across every scanned file
    (plus src/, which declares the protocol even when the user scans a
    subset)."""
    registry = Registry()
    seen = set()
    scan_paths = list(paths)
    if "src" not in scan_paths and os.path.isdir(os.path.join(root, "src")):
        scan_paths.append("src")
    for path in iter_source_files(root, scan_paths):
        if path in seen:
            continue
        seen.add(path)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        collect_annotations(blank_preprocessor(strip_code(text)), registry)
    return registry


def scan_tree(root, paths):
    """Returns (findings, files_scanned) where findings are dicts."""
    registry = build_registry(root, paths)
    out = []
    files = 0
    used = set()
    for path in iter_source_files(root, paths):
        rel = os.path.relpath(path, root)
        files += 1
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
        decl_text = ""
        if path.endswith((".cc", ".cpp")):
            header = os.path.splitext(path)[0] + ".h"
            if os.path.isfile(header):
                with open(header, encoding="utf-8",
                          errors="replace") as fh:
                    decl_text = fh.read()
        for lineno, rule, detail in sorted(check_file(path, rel, text,
                                                      decl_text, registry,
                                                      used)):
            out.append({"file": rel, "line": lineno, "rule": rule,
                        "title": RULES.get(rule, "suppression syntax error"),
                        "detail": detail, "hint": HINTS.get(rule, "")})
    return out, files


def print_findings(findings, files, fmt):
    if fmt == "github":
        for f in findings:
            print("::error file=%s,line=%d,title=sim-lint %s::%s"
                  % (f["file"], f["line"], f["rule"], f["detail"]))
        print("sim-lint: %d file(s) scanned, %d violation(s)"
              % (files, len(findings)))
        return
    for f in findings:
        print("%s:%d: %s: %s" % (f["file"], f["line"], f["rule"],
                                 f["detail"]))
        print("    rule: %s" % f["title"])
        if f["hint"]:
            print("    fix:  %s" % f["hint"])
    print("sim-lint: %d file(s) scanned, %d violation(s)" % (files,
                                                             len(findings)))


def run_lint(root, paths, fmt="text", json_out=None):
    findings, files = scan_tree(root, paths)
    print_findings(findings, files, fmt)
    if json_out:
        report = {"version": 1, "files_scanned": files,
                  "violations": len(findings), "findings": findings}
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self-test: seeded fixtures, per-rule pairs, mutation checks
# ---------------------------------------------------------------------------

# Fixture pairs: (violation file, clean file, rules that must be seeded).
FIXTURE_SETS = [
    ("violations.cc", "clean.cc", ("R1", "R2", "R3", "R4")),
    ("r5_violations.cc", "r5_clean.cc", ("R5",)),
    ("r6_violations.cc", "r6_clean.cc", ("R6",)),
    ("r7_violations.cc", "r7_clean.cc", ("R7",)),
    ("r8_violations.cc", "r8_clean.cc", ("R8",)),
    ("stale_suppressions.cc", None, ("S1",)),
]

# Mutation checks: reverting a real re-validation in today's tree must
# turn stage 0 red.  Each entry is (relative path, pattern,
# replacement, occurrence count, rule that must fire, description).
# The first four revert stale-pointer fixes; the fifth drops the
# read-after-write fence from the SLS engine's record-based translate
# continuation; the sixth drops the justification from the driver's
# finish step, proving R5 still sees the shared command record's read
# view; the last reverts the metrics-exporter out-of-bounds fix.
MUTATIONS = [
    ("src/ftl/ftl.cc",
     r"bool current = map_\.lookup\(lpn\) == ppn;",
     "bool current = true;", 1, "R5",
     "hostRead completion: stale page-cache insert / hot-tier pin guard"),
    ("src/ftl/ftl.cc",
     r"if \(map_\.lookup\(lpn\) == ppn\) \{",
     "if (true) {", 1, "R5",
     "hostWrite completion: stale cache insert / onRewrite pin guard"),
    ("src/ndp/sls_engine.cc",
     r"ftl_\.translate\(work\.lpn\) == ppn",
     "true", 1, "R5",
     "SLS read completion: stale hot-tier pinFromRead guard"),
    ("src/ftl/ftl.cc",
     r"(Ppn old = map_\.lookup\(lpn\);)",
     r"\1 if (writeObserver_) writeObserver_(lpn);", 1, "R5",
     "write observer moved back to command entry (before map_.set)"),
    ("src/ndp/sls_engine.cc",
     r"ftl_\.writeEpochOf\(work\.lpn\) != work\.epoch",
     "false", 1, "R5",
     "SLS translate continuation: record's PPN consumed without the "
     "write-epoch fence"),
    ("src/host/unvme_driver.cc",
     r'RECSSD_DEFERRED_SAFE\("view pins an immutable physical page"\);',
     "", 1, "R5",
     "driver finish step: record's read view consumed without the "
     "immutable-page justification"),
    ("src/obs/metrics.cc",
     r"std::min\(names\.size\(\), row\.values\.size\(\)\)",
     "names.size()", 1, "R6",
     "metrics exporter unclamped: registry-sized read of sampled rows"),
]


def _expected_findings(text):
    expected = set()
    for lineno, line in enumerate(text.split("\n"), 1):
        m = EXPECT_RE.search(line)
        if m:
            for rule in re.split(r"\s*,\s*", m.group(1)):
                expected.add((lineno, rule))
    return expected


def _self_test_fixture_pair(fixtures, vname, cname, rules, failures):
    vpath = os.path.join(fixtures, vname)
    with open(vpath, encoding="utf-8") as fh:
        vtext = fh.read()
    expected = _expected_findings(vtext)
    for rule in rules:
        if not any(r == rule for _, r in expected):
            failures.append("%s seeds no %s violation" % (vname, rule))
    actual = {(lineno, rule)
              for lineno, rule, _ in check_file(vpath, vname, vtext)}
    for missing in sorted(expected - actual):
        failures.append("%s:%d: expected %s did not fire"
                        % (vname, missing[0], missing[1]))
    for spurious in sorted(actual - expected):
        failures.append("%s:%d: unexpected %s finding"
                        % (vname, spurious[0], spurious[1]))
    seeded = len(expected)
    if cname is None:
        return seeded
    cpath = os.path.join(fixtures, cname)
    with open(cpath, encoding="utf-8") as fh:
        ctext = fh.read()
    for lineno, rule, detail in check_file(cpath, cname, ctext):
        failures.append("%s:%d: false positive %s: %s"
                        % (cname, lineno, rule, detail))
    return seeded


def _self_test_mutations(root, failures):
    """Delete a real re-validation from the live tree (in memory) and
    prove the protocol rules turn red; the unmutated file must be
    clean at the same site."""
    registry = build_registry(root, ["src"])
    checked = 0
    for rel, pattern, repl, count, rule, desc in MUTATIONS:
        path = os.path.join(root, rel)
        if not os.path.isfile(path):
            failures.append("mutation target missing: %s" % rel)
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        mutated, n = re.subn(pattern, repl, text, count=count)
        if n != count:
            failures.append("mutation pattern not found in %s (%s)"
                            % (rel, desc))
            continue
        base = {r for _, r, _ in check_file(path, rel, text, "", registry)}
        if rule in base:
            failures.append("mutation baseline already fires %s in %s"
                            % (rule, rel))
            continue
        fired = {r for _, r, _ in check_file(path, rel, mutated, "",
                                             registry)}
        if rule not in fired:
            failures.append("mutation NOT caught (%s expected): %s -- %s"
                            % (rule, rel, desc))
        else:
            checked += 1
    return checked


def self_test(script_dir, only_rule=None):
    fixtures = os.path.join(script_dir, "sim_lint_fixtures")
    failures = []
    seeded = 0
    ran = 0
    for vname, cname, rules in FIXTURE_SETS:
        if only_rule and only_rule not in rules:
            continue
        ran += 1
        seeded += _self_test_fixture_pair(fixtures, vname, cname, rules,
                                          failures)
    if only_rule and ran == 0:
        print("self-test FAIL: no fixture pair covers %s" % only_rule)
        return 2
    mutations = 0
    if only_rule is None or only_rule in ("R5", "R6"):
        root = os.path.dirname(script_dir)
        if os.path.isdir(os.path.join(root, "src")):
            wanted = [m for m in MUTATIONS
                      if only_rule is None or m[4] == only_rule]
            all_m = MUTATIONS
            try:
                MUTATIONS[:] = wanted
                mutations = _self_test_mutations(root, failures)
            finally:
                MUTATIONS[:] = all_m
    if failures:
        for f in failures:
            print("self-test FAIL: %s" % f)
        return 2
    print("sim-lint self-test passed: %d seeded findings fired, clean "
          "fixtures silent, %d tree mutation(s) caught" % (seeded,
                                                           mutations))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="RecSSD determinism-contract linter")
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="check the linter against its seeded fixtures "
                             "and the tree mutation checks")
    parser.add_argument("--self-test-rule", metavar="RULE", default=None,
                        help="run one rule's fixtures only (e.g. R5)")
    parser.add_argument("--format", choices=("text", "github"),
                        default="text",
                        help="finding output format (github emits "
                             "::error line annotations)")
    parser.add_argument("--json-out", metavar="FILE", default=None,
                        help="also write a machine-readable JSON report")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*", default=None,
                        help="directories to scan (default: src tools bench)")
    args = parser.parse_args()

    script_dir = os.path.dirname(os.path.abspath(__file__))
    if args.list_rules:
        for rule in sorted(RULES):
            print("%s  %s" % (rule, RULES[rule]))
        return 0
    if args.self_test or args.self_test_rule:
        return self_test(script_dir, args.self_test_rule)
    root = args.root or os.path.dirname(script_dir)
    paths = args.paths or ["src", "tools", "bench"]
    return run_lint(root, paths, fmt=args.format, json_out=args.json_out)


if __name__ == "__main__":
    sys.exit(main())
