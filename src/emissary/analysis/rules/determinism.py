"""Determinism rules: EMI001 (unseeded/global RNG) and EMI002
(wall-clock reads in kernel hot paths).

The whole results-cache story assumes a simulation is a pure function
of ``(trace spec, policy spec, config, seed)``.  Both rules exist to
keep ambient nondeterminism — process-global RNG state, the system
clock — out of anything that feeds simulated outcomes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from emissary.analysis.lint import FileContext, Rule, Violation, dotted_name

#: Names under ``np.random`` that are part of the blessed seeded-
#: Generator plumbing rather than the legacy global-state API.
BLESSED_NP_RANDOM = frozenset({
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
})

#: Call targets that read the wall clock (nondeterministic anywhere in
#: a kernel module — their values leak into whatever consumes them).
WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
})

#: Monotonic timers: legitimate for span timing in orchestration code,
#: but never inside the per-set dispatch functions themselves.
MONOTONIC_CALLS = frozenset({
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.thread_time",
    "time.thread_time_ns",
})

#: Function names that are kernel hot paths: called once per set chunk
#: (or per access, for naive impls), so even a monotonic timer read
#: here is both a perf bug and a telemetry-skew hazard.
HOT_FUNCTIONS = frozenset({
    "run_set",
    "_run_set_tel",
    "_run_set_wide",
    "_dispatch",
    "_ingest",
    "_run_sets",
    "on_hit",
    "on_fill",
    "find_victim",
    "replaced",
})


class UnseededRandom(Rule):
    """EMI001: RNG outside the blessed seeded ``Generator`` plumbing."""

    code = "EMI001"
    summary = ("global/unseeded RNG (`np.random.*` legacy API, bare `random`, "
               "or zero-arg `default_rng()`) outside seeded Generator plumbing")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.violation(
                            ctx, node,
                            "stdlib `random` uses process-global state; "
                            "thread a seeded np.random.Generator instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.violation(
                        ctx, node,
                        "stdlib `random` uses process-global state; "
                        "thread a seeded np.random.Generator instead")
            elif isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.split(".")[-1] == "default_rng" \
                        and not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node,
                        "default_rng() without a seed is entropy-seeded; "
                        "pass an explicit seed or SeedSequence")
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                for prefix in ("np.random.", "numpy.random."):
                    if name.startswith(prefix):
                        member = name[len(prefix):].split(".")[0]
                        if member not in BLESSED_NP_RANDOM:
                            yield self.violation(
                                ctx, node,
                                f"`{name}` is the legacy global-state numpy RNG "
                                "API; use a seeded np.random.Generator")
                        break


class WallClockInKernel(Rule):
    """EMI002: clock reads in kernel/engine modules.

    Wall-clock calls are flagged anywhere in a kernel module; monotonic
    timers only inside the per-set hot-path functions (span timing in
    orchestration code is fine).
    """

    code = "EMI002"
    summary = ("wall-clock reads in kernel/engine modules, or any timer "
               "inside per-set hot-path functions")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_kernel_module:
            return
        yield from self._walk(ctx, ctx.tree, in_hot=False)

    def _walk(self, ctx: FileContext, node: ast.AST,
              in_hot: bool) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_hot = in_hot
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_hot = child.name in HOT_FUNCTIONS
            if isinstance(child, ast.Call):
                name = dotted_name(child.func)
                if name is not None:
                    tail2 = ".".join(name.split(".")[-2:])
                    if name in WALL_CLOCK_CALLS or tail2 in WALL_CLOCK_CALLS:
                        yield self.violation(
                            ctx, child,
                            f"wall-clock read `{name}` in a kernel module; "
                            "outcomes must not depend on the system clock")
                    elif (name in MONOTONIC_CALLS or tail2 in MONOTONIC_CALLS) \
                            and child_hot:
                        yield self.violation(
                            ctx, child,
                            f"timer `{name}` inside a per-set hot path; hoist "
                            "timing to the orchestration layer")
            yield from self._walk(ctx, child, child_hot)
