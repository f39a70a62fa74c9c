"""Per-layer tracing of qent from outside the library.

``Tracer.install()`` replaces a fixed set of qent's public functions with
wrappers that record a span per call, and wraps two raw calls as counters:
``numpy.linalg.eigh`` (every LAPACK eigensolve, from any caller) and the
``scipy.optimize.minimize`` bound inside ``qent.entanglement`` (one
Nelder-Mead run each).  Every binding of a traced function in a loaded
``qent`` module is replaced, so calls through ``from .x import f`` names are
seen too.  ``uninstall()`` restores the originals.  ``src/qent`` itself is
never edited.

A span's self time is its duration minus the durations of its child spans.
Spans stay in memory; ``summary()`` aggregates them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

#: module -> public functions that get a span; a layer is a module
SPANNED = {
    "linalg": ["eig_hermitian"],
    "states": ["random_density", "random_unitary", "werner_state", "reduced_product"],
    "entropy": [
        "tsallis_relative_entropy",
        "umegaki_relative_entropy",
        "tsallis_entropy",
    ],
    "channels": ["apply_channel", "random_channel"],
    "entanglement": [
        "tsallis_measure",
        "mutual_entropy_measure",
        "match_q",
        "relative_entropy_of_entanglement",
    ],
    "werner": [
        "werner_sweep",
        "werner_mutual",
        "werner_tsallis_closed",
        "werner_er_closed",
    ],
    "verify": ["run_suites"],  # plus every function in verify.SUITES
}

EIGH = "linalg.eigh"
NM = "entanglement.nm"


class Tracer:
    def __init__(self):
        self.op = 0  # identifier shared by the spans of one op
        #: (op, name, parent index or -1, start, end, self seconds)
        self.spans = []
        self.counts = defaultdict(int)  # counter name -> hits
        self.count_s = defaultdict(float)  # counter name -> seconds inside
        self.child_calls = defaultdict(int)  # (parent span, child span) -> calls
        self.root_counts = defaultdict(int)  # (outermost span, counter) -> hits
        self.nm = {"runs": 0, "nfev": 0, "capped": 0}
        self.checks = 0  # property checks reported by verify.run_suites
        self.distinct_eig = set()
        self._stack = []  # open spans: [span index, name, child seconds]
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = -1
            if self._stack:
                parent = self._stack[-1][0]
                self.child_calls[(self._stack[-1][1], name)] += 1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][2] += dur
                self.spans[index] = (self.op, name, parent, t0, t1, dur - frame[2])

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if self._stack:
                self.root_counts[(self._stack[0][1], name)] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.count_s[name] += time.perf_counter() - t0

        return wrapper

    def _eig_span(self, fn):
        traced = self.span("linalg.eig_hermitian", fn)

        @functools.wraps(fn)
        def wrapper(M, *args, **kwargs):
            a = np.ascontiguousarray(M, dtype=complex)
            self.distinct_eig.add((a.shape, a.tobytes()))
            return traced(M, *args, **kwargs)

        return wrapper

    def _run_suites(self, fn):
        traced = self.span("verify.run_suites", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            results = traced(*args, **kwargs)
            self.checks += sum(r.checks for r in results)
            return results

        return wrapper

    def _minimize(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.nm["runs"] += 1
            self.nm["nfev"] += int(res.nfev)
            cap = (kwargs.get("options") or {}).get("maxiter")
            if cap is not None and int(res.nit) >= cap:
                self.nm["capped"] += 1
            return res

        return wrapper

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "qent" or modname.startswith("qent.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((setattr, mod, attr, original))

    def install(self):
        mods = {name: importlib.import_module(f"qent.{name}") for name in SPANNED}
        special = {"eig_hermitian": self._eig_span, "run_suites": self._run_suites}
        for layer, names in SPANNED.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                if fname in special:
                    wrapped = special[fname](fn)
                else:
                    wrapped = self.span(f"{layer}.{fname}", fn)
                self._replace_everywhere(fn, wrapped)
        verify, states = mods["verify"], mods["states"]
        for key, fn in list(verify.SUITES.items()):
            wrapped = self.span(f"verify.{key}", fn)
            verify.SUITES[key] = wrapped
            self._undo.append((dict.__setitem__, verify.SUITES, key, fn))
            self._replace_everywhere(fn, wrapped)

        init = states.DensityOperator.__init__
        states.DensityOperator.__init__ = self.span("states.DensityOperator", init)
        self._undo.append((setattr, states.DensityOperator, "__init__", init))

        eigh = np.linalg.eigh
        np.linalg.eigh = self.counter(EIGH, eigh)
        self._undo.append((setattr, np.linalg, "eigh", eigh))

        entanglement = mods["entanglement"]
        minimize = entanglement.minimize
        entanglement.minimize = self._minimize(minimize)
        self._undo.append((setattr, entanglement, "minimize", minimize))

    def uninstall(self):
        while self._undo:
            restore, target, key, value = self._undo.pop()
            restore(target, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def by_name(self):
        """name -> {"calls", "s" (total duration), "self_s"}."""
        out = {}
        for _op, name, _parent, t0, t1, self_s in self.spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += self_s
        return out

    def summary(self):
        """Every per-layer figure this trace supports, keyed by metric name."""
        spans = self.by_name()
        m = {}

        def fn_metrics(name):
            row = spans.get(name, {"calls": 0, "self_s": 0.0})
            m[f"{name}.calls"] = row["calls"]
            m[f"{name}.self_s"] = row["self_s"]

        eig = spans.get("linalg.eig_hermitian", {"calls": 0})
        fn_metrics("linalg.eig_hermitian")
        m["linalg.eig_hermitian.distinct"] = len(self.distinct_eig)
        m["linalg.eig_hermitian.distinct_frac"] = (
            len(self.distinct_eig) / eig["calls"] if eig["calls"] else 0.0
        )
        m[f"{EIGH}.calls"] = self.counts[EIGH]
        m[f"{EIGH}.s"] = self.count_s[EIGH]
        for layer in SPANNED:
            rows = [r for n, r in spans.items() if n.split(".")[0] == layer]
            m[f"{layer}.calls"] = sum(r["calls"] for r in rows)
            m[f"{layer}.self_s"] = sum(r["self_s"] for r in rows)
        for name in (
            "entropy.tsallis_relative_entropy",
            "entropy.umegaki_relative_entropy",
            "channels.apply_channel",
            "entanglement.tsallis_measure",
            "entanglement.mutual_entropy_measure",
            "entanglement.match_q",
            "entanglement.relative_entropy_of_entanglement",
            "werner.werner_sweep",
            "werner.werner_mutual",
            "verify.run_suites",
        ):
            fn_metrics(name)
        mq = spans.get("entanglement.match_q", {"calls": 0})
        g = self.child_calls[("entanglement.match_q", "entanglement.tsallis_measure")]
        m["entanglement.match_q.g_evals_per_call"] = g / mq["calls"] if mq["calls"] else 0.0
        er = "entanglement.relative_entropy_of_entanglement"
        m["entanglement.er.eigh_calls"] = self.root_counts[(er, EIGH)]
        m["verify.checks"] = self.checks
        if self.nm["runs"]:
            m[f"{NM}.runs"] = self.nm["runs"]
            m[f"{NM}.nfev"] = self.nm["nfev"]
            m[f"{NM}.capped_frac"] = self.nm["capped"] / self.nm["runs"]
        suites = [n for n in spans if n.startswith("verify.") and n != "verify.run_suites"]
        for name in sorted(suites):
            m[f"{name}.s"] = spans[name]["s"]
        return m
