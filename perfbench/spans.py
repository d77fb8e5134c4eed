"""Spans around calls into bridgesim's layers, for the traced run only.

The tracer replaces public functions and methods of the layer modules with
wrappers that record one span per call: its name, start, end, parent and
the op it belongs to.  Spans stay in memory and are written out at the end.
Nothing is wrapped in an untraced run.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Counts are taken from the objects a layer returns (graphs,
bridges, games), after the op has finished, so counting costs no span time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# span name -> (owner path, attribute, what to keep for counting).  An owner
# path is a module name or "module.Class".  The same function is wrapped in
# every module that imported it by name, so calls through either are seen.
TARGETS = [
    ("harness.run_scenario", ["harness"], "run_scenario", None),
    ("harness.runner_init", ["harness.Runner"], "__init__", None),
    ("harness.ceremony", ["harness.Runner"], "setup", None),
    ("harness.pegins", ["harness.Runner"], "run_pegins", None),
    ("harness.theft", ["harness.Runner"], "run_theft_attempts", None),
    ("harness.pegouts", ["harness.Runner"], "run_pegouts", None),
    ("harness.finish", ["harness.Runner"], "finish", None),
    ("harness.check", ["harness"], "check_invariants", "lines"),
    ("protocol.bridge_init", ["protocol.Bridge"], "__init__", "bridge"),
    ("txgraph.build", ["txgraph", "protocol"], "build_packet_templates",
     "graph"),
    ("txgraph.delete_keys", ["txgraph.PacketGraph"], "delete_keys", None),
    ("txgraph.leak_keys", ["txgraph.PacketGraph"], "leak_keys", None),
    ("chain.mine", ["chain.ChainView"], "mine_block", None),
    ("chain.confirmations", ["chain.ChainView"], "confirmations", None),
    ("lightclient.check", ["lightclient"], "check_chain", None),
    ("lightclient.check", ["lightclient", "dispute"], "check_alt_chain", None),
    ("econ.required_deposit", ["econ", "protocol"], "required_deposit", None),
    ("dispute.trace_build", ["dispute.ExecutionTrace"], "honest", None),
    ("dispute.trace_build", ["dispute.ExecutionTrace"], "corrupted_at", None),
    ("dispute.open_game", ["dispute", "harness"], "open_game", "game"),
    ("dispute.challenge", ["dispute", "harness"], "challenge", None),
    ("dispute.search_round", ["dispute", "harness"], "search_round", None),
    ("dispute.reveal_trace", ["dispute", "harness"], "reveal_trace", None),
    ("dispute.leaf_check", ["dispute", "harness"], "leaf_check", None),
    ("dispute.run_search", ["dispute"], "run_search", None),
    ("dispute.settle_counter_proof", ["dispute", "harness"],
     "settle_counter_proof", None),
    ("dispute.resolve_no_challenge", ["dispute", "harness"],
     "resolve_no_challenge", None),
]

# span names whose self time is the dispute game's search
SEARCH_SPANS = ("dispute.open_game", "dispute.challenge", "dispute.search_round",
                "dispute.reveal_trace", "dispute.leaf_check",
                "dispute.run_search", "dispute.settle_counter_proof",
                "dispute.resolve_no_challenge")

OP_SPAN = "bench.op"


def _owner(bs, path: str):
    module, _, cls = path.partition(".")
    obj = getattr(bs, module, None)
    return getattr(obj, cls, None) if cls and obj is not None else obj


class Tracer:
    """Spans and counts of one traced pass, and the wrappers that make them."""

    def __init__(self):
        self.spans: list = []  # [op, name, start, end, parent index]
        self._stack: list[int] = []
        self.op = -1
        self._kept: dict[str, list] = defaultdict(list)
        self.counts: Counter = Counter()
        self._installed: list = []
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, keep):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [tracer.op, name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            if keep == "lines":
                tracer.counts["log_lines"] += len(args[0])
            elif keep == "bridge":
                tracer._kept[keep].append(args[0])
            elif keep is not None:
                tracer._kept[keep].append(result)
            return result

        return wrapper

    def install(self, bs) -> None:
        """Wrap every target that exists in this build of the package."""
        for name, owners, attr, keep in TARGETS:
            wrapped = {}
            for path in owners:
                owner = _owner(bs, path)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self._wrap(name, fn, keep)
                new = wrapped[id(fn)]
                setattr(owner, attr,
                        staticmethod(new) if isinstance(raw, staticmethod)
                        else new)
                self._installed.append((owner, attr, raw))
            if not wrapped:
                self.missing.append(f"{name} ({attr})")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def op_span(self, op: int, fn, *args):
        """Run one op inside a root span; every span it causes shares its id."""
        self.op = op
        index = len(self.spans)
        span = [op, OP_SPAN, 0.0, 0.0, -1]
        self.spans.append(span)
        self._stack.append(index)
        span[2] = perf_counter()
        try:
            return fn(*args)
        finally:
            span[3] = perf_counter()
            self._stack.pop()
            self._count_op()

    def _count_op(self) -> None:
        """Fold what the op's layers returned into counts, then drop it."""
        c = self.counts
        for graph in self._kept.pop("graph", ()):
            c["templates"] += len(graph.templates)
            c["signatures"] += sum(len(t.signatures)
                                   for t in graph.templates.values())
        for bridge in self._kept.pop("bridge", ()):
            c["events"] += len(bridge.events)
            for line in bridge.events:
                if " ev=transfer " not in line:
                    continue
                c["transfers"] += 1
                if "why=dispute:" in line:
                    amount = int(line.split(" amount=", 1)[1].split(" ", 1)[0])
                    c["dispute_vbytes"] += amount // bridge.fee_rate
        for game in self._kept.pop("game", ()):
            for g in (game, game.nested):
                if g is None:
                    continue
                c["games"] += 1
                c["rounds"] += g.rounds
                c["publications"] += len(g.publications)
                if g.outcome is not None and g.outcome.reason.value == "Timeout":
                    c["timeouts"] += 1
                c["accumulated_ticks"] += sum(
                    w.accumulated(g.clock) for w in g.watches.values())
        self._kept.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._kept.clear()
        self.counts.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> tuple[dict, Counter]:
        """Per span name: total self time and number of calls."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (_, name, start, end, _), child in zip(self.spans, covered):
            total[name] += end - start - child
            calls[name] += 1
        return dict(total), calls

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: op, span, parent, name, start and
        end in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as f:
            f.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                f.write(f"{op}\t{i}\t{parent}\t{name}\t"
                        f"{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics: times and counts per op, ratios of totals."""
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def per_op(x: float) -> float:
        return x / ops

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    build = self_s.get("txgraph.build", 0.0)
    check = self_s.get("harness.check", 0.0)
    return {
        "txgraph.build_s": per_op(build),
        "txgraph.templates": per_op(c["templates"]),
        "txgraph.build_us_per_template": ratio(build * 1e6, c["templates"]),
        "harness.ceremony_s": per_op(self_s.get("harness.ceremony", 0.0)),
        "txgraph.delete_keys_s": per_op(self_s.get("txgraph.delete_keys", 0.0)),
        "txgraph.signatures": per_op(c["signatures"]),
        "protocol.bridge_init_self_s":
            per_op(self_s.get("protocol.bridge_init", 0.0)),
        "protocol.events": per_op(c["events"]),
        "protocol.transfers": per_op(c["transfers"]),
        "protocol.dispute_vbytes": per_op(c["dispute_vbytes"]),
        "harness.pegins_s": per_op(self_s.get("harness.pegins", 0.0)),
        "harness.pegouts_s": per_op(self_s.get("harness.pegouts", 0.0)),
        "harness.check_s": per_op(check),
        "harness.check_lines_per_s": ratio(c["log_lines"], check),
        "harness.log_lines": per_op(c["log_lines"]),
        "harness.us_per_event": ratio(check * 1e6, c["log_lines"]),
        "chain.blocks": per_op(calls["chain.mine"]),
        "chain.mine_s": per_op(self_s.get("chain.mine", 0.0)),
        "chain.confirmations_calls": per_op(calls["chain.confirmations"]),
        "chain.confirmations_s": per_op(self_s.get("chain.confirmations", 0.0)),
        "dispute.games": per_op(c["games"]),
        "dispute.trace_build_s": per_op(self_s.get("dispute.trace_build", 0.0)),
        "dispute.search_s": per_op(sum(self_s.get(n, 0.0)
                                       for n in SEARCH_SPANS)),
        "dispute.rounds_per_game": ratio(c["rounds"], c["games"]),
        "dispute.publications_per_game": ratio(c["publications"], c["games"]),
        "stopwatch.timeouts": per_op(c["timeouts"]),
        "stopwatch.accumulated_ticks": per_op(c["accumulated_ticks"]),
        "lightclient.check_calls": per_op(calls["lightclient.check"]),
        "lightclient.check_s": per_op(self_s.get("lightclient.check", 0.0)),
    }


def largest_self_time(tracer: Tracer) -> tuple[str, float]:
    """The layer span with the largest total self time (the benchmark's own
    op span excluded)."""
    self_s, _ = tracer.self_times()
    self_s.pop(OP_SPAN, None)
    return max(self_s.items(), key=lambda kv: kv[1], default=("-", 0.0))
