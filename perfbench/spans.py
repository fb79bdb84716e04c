"""Span recorder for the traced run, installed from outside the program.

``Tracer.install`` wraps the public functions of each dkit layer module,
plus ``Matrix.__matmul__`` and ``DescriptorSystem.__init__``, and rebinds
every ``dkit.*`` module attribute that points at an original.  That matters
because cli, weierstrass and solver import char_poly, decompose, is_regular
and others by name.  ``uninstall`` puts the originals back, so untraced ops
run the program exactly as shipped.

Each call records a span (op, id, parent id, name, start, end) in memory.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "pencil", "weierstrass", "solver", "causality", "linalg", "matrices")


def _bits(entries) -> int:
    best = 0
    for x in entries:
        if isinstance(x, Fraction):
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}     # name -> [calls, self seconds]
        self.matmul_mults = 0
        self.max_bits = 0
        self.op = 0
        self._stack: list[list] = []         # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple] = []      # (owner, attribute, original)

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((self.op, sid, parent, name, t0, t1))
            if after is not None:
                # Bookkeeping time is charged to no span.
                h0 = perf_counter()
                after(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_matmul(self, args, result):
        a, b = args
        self.matmul_mults += a.rows * a.cols * b.cols

    def _decomposed(self, args, w):
        self.max_bits = max(self.max_bits, _bits(w.P._e), _bits(w.Q._e))

    def _solved(self, args, traj):
        self.max_bits = max(self.max_bits, max(_bits(y._e) for y in traj.states))

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function of the layer modules in place."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"dkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    after = {"weierstrass.decompose": self._decomposed,
                             "solver.solve": self._solved}.get(f"{layer}.{attr}")
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj, after))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "dkit" and not mod_name.startswith("dkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        matrix = sys.modules["dkit.matrices"].Matrix
        system = sys.modules["dkit.solver"].DescriptorSystem
        for owner, attr, name, after in (
                (matrix, "__matmul__", "matrices.matmul", self._count_matmul),
                (system, "__init__", "solver.DescriptorSystem", None)):
            orig = owner.__dict__[attr]
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, after))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        out = {layer: [0, 0.0] for layer in LAYERS}
        for name, (calls, self_s) in self.stats.items():
            tot = out[name.split(".", 1)[0]]
            tot[0] += calls
            tot[1] += self_s
        return out

    def write(self, path: str):
        """All spans as gzipped JSON lines: op, id, parent, name, t0, t1."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
