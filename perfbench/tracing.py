"""The traced run: per-layer numbers from wrappers at lambdah's layer
boundaries.

Each public function that one layer calls in another is replaced, in
the namespace of the calling module, by a wrapper that times the call
and counts what it did.  Recursive internals (``shift``, ``_subst``,
the parser's and printer's helpers) are left alone.  A call to a layer
entry point is kept as a span (id, name, start, end, parent span);
calls to the hot term-level leaves (``spine``, ``size``,
``substitute``, ``subst_const_h``, ``extract``, the public single
steps) are only aggregated, because a check-suite pass makes millions
of them.  Self time is a call's duration minus the time its wrapped
callees took.

Counting that is not part of the program's work (nodes built by a
substitution, the size of a run's final state) runs with the clock
paused, so it does not show up in any span or in the traced pass time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (calling module, function, metric prefix, keep spans)
BOUNDARIES = [
    ("lambdah.cli", "main", "cli.main", True),
    ("lambdah.cli", "read_corpus", "equivalence.read_corpus", True),
    ("lambdah.cli", "theorem_check", "equivalence.theorem_check", True),
    ("lambdah.equivalence", "theorem_check", "equivalence.theorem_check", True),
    ("lambdah.cli", "lockstep", "equivalence.lockstep", True),
    ("lambdah.equivalence", "lockstep", "equivalence.lockstep", True),
    ("lambdah.cli", "lemma_suite", "equivalence.lemma_suite", True),
    ("lambdah.cli", "run", "machines.run", True),
    ("lambdah.equivalence", "run", "machines.run", True),
    ("lambdah.machines", "run", "machines.run", True),  # the call inside solvable
    ("lambdah.equivalence", "t_step", "machines.t_step", False),
    ("lambdah.equivalence", "i_step", "machines.i_step", False),
    ("lambdah.equivalence", "j_step", "machines.j_step", False),
    ("lambdah.cli", "format_term", "syntax.format_term", True),
    ("lambdah.equivalence", "format_term", "syntax.format_term", True),
    ("lambdah.machines", "format_term", "syntax.format_term", True),
    ("lambdah.cli", "parse_term", "syntax.parse_term", True),
    ("lambdah.equivalence", "parse_term", "syntax.parse_term", True),
    ("lambdah.cli", "extract", "extraction.extract", False),
    ("lambdah.equivalence", "extract", "extraction.extract", False),
    ("lambdah.gen", "extract", "extraction.extract", False),
    ("lambdah.cli", "enumerate_terms", "gen.stream", False),
    ("lambdah.cli", "term_stream", "gen.stream", False),
    ("lambdah.equivalence", "wrap_applied_h", "gen.wrap_applied_h", False),
    ("lambdah.machines", "substitute", "terms.substitute", False),
    ("lambdah.equivalence", "substitute", "terms.substitute", False),
    ("lambdah.machines", "spine", "terms.spine", False),
    ("lambdah.equivalence", "spine", "terms.spine", False),
    ("lambdah.extraction", "spine", "terms.spine", False),
    ("lambdah.machines", "size", "terms.size", False),
    ("lambdah.equivalence", "size", "terms.size", False),
    ("lambdah.equivalence", "subst_const_h", "terms.subst_const_h", False),
]

# name, unit, better: the per-layer metrics a traced run prints
PER_LAYER = [
    ("terms.substitute.calls", "count", "lower"),
    ("terms.substitute.s", "s", "lower"),
    ("terms.substitute.nodes_built", "count", "lower"),
    ("terms.spine.calls", "count", "lower"),
    ("terms.spine.s", "s", "lower"),
    ("terms.size.calls", "count", "lower"),
    ("terms.size.s", "s", "lower"),
    ("terms.subst_const_h.s", "s", "lower"),
    ("machines.run.calls", "count", "lower"),
    ("machines.run.self_s", "s", "lower"),
    ("machines.t_step_us.lt1k", "us", "lower"),
    ("machines.t_step_us.1k-10k", "us", "lower"),
    ("machines.t_step_us.ge10k", "us", "lower"),
    ("machines.peak_state_nodes", "count", "lower"),
    ("machines.hnf_ratio", "ratio", "higher"),
    ("machines.t_steps", "count", "lower"),
    ("machines.aux_steps", "count", "lower"),
    ("syntax.format_term.calls", "count", "lower"),
    ("syntax.format_term.s", "s", "lower"),
    ("syntax.format_term.chars_per_s", "chars/s", "higher"),
    ("syntax.parse_term.calls", "count", "lower"),
    ("syntax.parse_term.s", "s", "lower"),
    ("syntax.parse_term.chars_per_s", "chars/s", "higher"),
    ("extraction.extract.calls", "count", "lower"),
    ("extraction.extract.s", "s", "lower"),
    ("gen.terms", "count", "lower"),
    ("gen.s", "s", "lower"),
    ("equivalence.theorem_check.calls", "count", "lower"),
    ("equivalence.theorem_check.self_s", "s", "lower"),
    ("equivalence.lockstep.calls", "count", "lower"),
    ("equivalence.lockstep.self_s", "s", "lower"),
    ("equivalence.lockstep.checkpoints", "count", "lower"),
    ("equivalence.lemma_suite.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# frame fields
_NAME, _START, _CHILD, _SPAN, _SPINES, _CTX = range(6)


class Tracer:
    def __init__(self) -> None:
        from lambdah import machines, terms

        self._size = terms.size
        self._hnf = machines.Hnf
        self._app, self._abs = terms.App, terms.Abs
        self.paused = 0
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.next_span = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.chars: Counter = Counter()
        self.peak_state = 0
        self._saved: list[tuple] = []

    def now(self) -> int:
        return time.perf_counter_ns() - self.paused

    # ---------- frames ----------

    def push(self, name: str, keep: bool) -> list:
        ctx = self.stack[-1][_CTX] if self.stack else None
        span = None
        if keep:
            span = self.next_span
            self.next_span += 1
            ctx = span
        frame = [name, self.now(), 0, span, 0, ctx]
        self.stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = self.now()
        self.stack.pop()
        name, start = frame[_NAME], frame[_START]
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - frame[_CHILD]
        parent_ctx = None
        if self.stack:
            parent = self.stack[-1]
            parent[_CHILD] += duration
            parent_ctx = parent[_CTX]
            if name == "terms.spine":
                parent[_SPINES] += 1
        if frame[_SPAN] is not None:
            self.spans.append((frame[_SPAN], name, start, end, parent_ctx))

    def _paused(self, fn, *args) -> None:
        t0 = time.perf_counter_ns()
        fn(*args)
        self.paused += time.perf_counter_ns() - t0

    # ---------- wrappers ----------

    def _wrap(self, fn, name: str, keep: bool):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer.push(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if after is not None:
                tracer._paused(after, frame, args, result)
            return result

        return wrapper

    def _wrap_stream(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)

            def stream():
                while True:
                    frame = tracer.push(name, False)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.pop(frame)
                    tracer.counters["gen.terms"] += 1
                    yield item

            return stream()

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, keep in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if name == "gen.stream":
                setattr(module, attr, self._wrap_stream(fn, name))
            else:
                setattr(module, attr, self._wrap(fn, name, keep))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # ---------- counting, with the clock paused ----------

    def _after_machines_run(self, frame, args, out) -> None:
        c = self.counters
        c["runs"] += 1
        c["t_steps"] += out.t_steps
        if isinstance(out, self._hnf):
            c["hnf_runs"] += 1
            c["aux_steps"] += out.aux_steps
            final = out.result
        else:
            # an undecided outcome does not report its aux steps; the
            # machine takes one spine view per step plus the final one
            c["aux_steps"] += frame[_SPINES] - out.t_steps - 1
            final = out.last
        self.peak_state = max(self.peak_state, self._size(final))

    def _after_machines_t_step(self, frame, args, out) -> None:
        self.counters["t_steps"] += 1

    def _after_machines_i_step(self, frame, args, out) -> None:
        self.counters["aux_steps"] += 1

    _after_machines_j_step = _after_machines_i_step

    def _after_terms_size(self, frame, args, out) -> None:
        self.peak_state = max(self.peak_state, out)

    def _after_terms_substitute(self, frame, args, out) -> None:
        seen: set[int] = set()
        todo = [args[0], args[1]]
        for fresh in (False, True):
            while todo:
                t = todo.pop()
                if id(t) in seen:
                    continue
                seen.add(id(t))
                if fresh:
                    self.counters["nodes_built"] += 1
                if isinstance(t, self._app):
                    todo.append(t.fun)
                    todo.append(t.arg)
                elif isinstance(t, self._abs):
                    todo.append(t.body)
            todo = [out]

    def _after_equivalence_lockstep(self, frame, args, out) -> None:
        self.counters["checkpoints"] += len(out.checkpoints)

    def _after_syntax_format_term(self, frame, args, out) -> None:
        self.chars["syntax.format_term"] += len(out)

    def _after_syntax_parse_term(self, frame, args, out) -> None:
        self.chars["syntax.parse_term"] += len(args[0])

    # ---------- results ----------

    def layer_metrics(self, overhead_s: float, t_step_us: dict) -> dict:
        s = lambda name: self.total_ns[name] / 1e9  # noqa: E731
        self_s = lambda name: self.self_ns[name] / 1e9  # noqa: E731

        def rate(name):
            return self.chars[name] / s(name) if self.total_ns[name] else 0.0

        c = self.counters
        values = {
            "terms.substitute.calls": self.calls["terms.substitute"],
            "terms.substitute.s": s("terms.substitute"),
            "terms.substitute.nodes_built": c["nodes_built"],
            "terms.spine.calls": self.calls["terms.spine"],
            "terms.spine.s": s("terms.spine"),
            "terms.size.calls": self.calls["terms.size"],
            "terms.size.s": s("terms.size"),
            "terms.subst_const_h.s": s("terms.subst_const_h"),
            "machines.run.calls": self.calls["machines.run"],
            "machines.run.self_s": self_s("machines.run"),
            **{f"machines.t_step_us.{k}": v for k, v in t_step_us.items()},
            "machines.peak_state_nodes": self.peak_state,
            "machines.hnf_ratio": c["hnf_runs"] / c["runs"] if c["runs"] else 0.0,
            "machines.t_steps": c["t_steps"],
            "machines.aux_steps": c["aux_steps"],
            "syntax.format_term.calls": self.calls["syntax.format_term"],
            "syntax.format_term.s": s("syntax.format_term"),
            "syntax.format_term.chars_per_s": rate("syntax.format_term"),
            "syntax.parse_term.calls": self.calls["syntax.parse_term"],
            "syntax.parse_term.s": s("syntax.parse_term"),
            "syntax.parse_term.chars_per_s": rate("syntax.parse_term"),
            "extraction.extract.calls": self.calls["extraction.extract"],
            "extraction.extract.s": s("extraction.extract"),
            "gen.terms": c["gen.terms"],
            "gen.s": s("gen.stream") + s("gen.wrap_applied_h"),
            "equivalence.theorem_check.calls": self.calls["equivalence.theorem_check"],
            "equivalence.theorem_check.self_s": self_s("equivalence.theorem_check"),
            "equivalence.lockstep.calls": self.calls["equivalence.lockstep"],
            "equivalence.lockstep.self_s": self_s("equivalence.lockstep"),
            "equivalence.lockstep.checkpoints": c["checkpoints"],
            "equivalence.lemma_suite.self_s": self_s("equivalence.lemma_suite"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.overhead_s": overhead_s,
        }
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}

    def write(self, path, metrics: dict) -> None:
        """Spans as [id, name, start_ns, end_ns, parent id], then counters."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "calls": dict(self.calls),
                    "total_ns": dict(self.total_ns),
                    "self_ns": dict(self.self_ns),
                    "counters": dict(self.counters),
                    "spans": self.spans,
                },
                fh,
            )


def t_step_probe(steps: int = 2000) -> dict:
    """Mean time of one public ``t_step`` by state size, stepping the
    duplicator context with J substituted for H (the J side of the
    curated row ``H (\\x.x x) (\\x.x x)`` at fuel 100)."""
    from lambdah import J, parse_term, size, subst_const_h, t_step

    term = subst_const_h(parse_term("H (\\x.x x) (\\x.x x)")[0], J)
    buckets: dict[str, list[int]] = defaultdict(list)
    for _ in range(steps):
        n = size(term)
        key = "lt1k" if n < 1000 else "1k-10k" if n < 10000 else "ge10k"
        t0 = time.perf_counter_ns()
        term = t_step(term)
        buckets[key].append(time.perf_counter_ns() - t0)
    return {
        key: (sum(buckets[key]) / len(buckets[key]) / 1e3 if buckets[key] else 0.0)
        for key in ("lt1k", "1k-10k", "ge10k")
    }
