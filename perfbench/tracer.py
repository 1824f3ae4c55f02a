"""Outside-in tracer: wraps photonsurf's public functions from the benchmark.

Nothing in ``src/`` knows about it. ``Tracer.install()`` replaces each
target function wherever a ``photonsurf.*`` module namespace holds it,
matched by object identity, so ``from .surfaces import integrate_profile``
in ``cli`` is traced as well as ``surfaces.integrate_profile`` itself.
scipy's ``solve_ivp``/``quad``/``brentq`` are wrapped only where photonsurf
modules look them up. A target that no longer exists is skipped; its
metrics then read zero.

Stacks, counters and spans are per thread (``sweep`` runs a thread pool; a
shared stack would charge one thread's children to another thread's
parent). A span's self time is its duration minus the time of its child
spans on the same thread, so ``*.self_s`` metrics are summed over threads.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import sys
import threading
from time import perf_counter

# metric prefix -> [(module, attribute)]; several attributes may share a prefix
TARGETS = {
    "cli.main": [("photonsurf.cli", "main")],
    "spacetime.build_family": [("photonsurf.spacetime", "build_family")],
    "spacetime.to_isotropic": [("photonsurf.spacetime", "to_isotropic")],
    "spacetime.conformal_flatness_scan": [
        ("photonsurf.spacetime", "conformal_flatness_scan")],
    "surfaces.integrate_profile": [("photonsurf.surfaces", "integrate_profile")],
    "surfaces.classify": [("photonsurf.surfaces", "classify")],
    "surfaces.turning_points": [("photonsurf.surfaces", "turning_points")],
    "surfaces.find_photon_spheres": [
        ("photonsurf.surfaces", "find_photon_spheres")],
    "surfaces.ode_residuals": [("photonsurf.surfaces", "ode_residuals")],
    "geodesics.integrate_null_geodesic": [
        ("photonsurf.geodesics", "integrate_null_geodesic")],
    "geodesics.generated_surface_profile": [
        ("photonsurf.geodesics", "generated_surface_profile")],
    "geometry.verification_suite": [("photonsurf.geometry", "verification_suite")],
    "geometry.isotropic_checks": [
        ("photonsurf.geometry", "isotropic_sphere_residual"),
        ("photonsurf.geometry", "isotropic_surface_residual"),
        ("photonsurf.geometry", "isotropic_profile_samples")],
    "scipy.solve_ivp": [("scipy.integrate", "solve_ivp")],
    "scipy.quad": [("scipy.integrate", "quad")],
    "scipy.brentq": [("scipy.optimize", "brentq")],
}

# Called 10^4-10^5 times per operation: counted and timed, but not kept as
# individual spans, so the span list stays small.
UNRECORDED = {"spacetime.metric", "spacetime.iso_map", "scipy.quad"}

ISO_MAPS = ("psi", "lapse", "s_of_r", "r_of_s")


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []          # frames: [span id, child seconds]
        self.root = None         # parent span id inherited from a submitter
        self.stats = {}          # name -> {"calls", "self_s", extra counters}
        self.spans = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._ids = itertools.count(1)
        self._patches = []
        self.op_id = None

    # -- bookkeeping -------------------------------------------------------

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.state = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` timed as a span called ``name``.

        ``on_return(result, stat, args)`` may add counters to ``stat`` and
        returns the value handed back to the caller.
        """
        tracer = self
        record = name not in UNRECORDED

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                stat = st.stats.get(name)
                if stat is None:
                    stat = st.stats[name] = {"calls": 0, "self_s": 0.0}
                stat["calls"] += 1
                stat["self_s"] += dur - frame[1]
                if record:
                    st.spans.append((frame[0], name, t0, t1,
                                     parent[0] if parent else st.root,
                                     st.ident, tracer.op_id))
            if on_return is not None:
                result = on_return(result, stat, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` in every photonsurf module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "photonsurf"
                                   or modname.startswith("photonsurf.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self):
        hooks = {"spacetime.build_family": self._trace_metric,
                 "spacetime.to_isotropic": self._trace_iso_maps,
                 "scipy.solve_ivp": _count_solve_ivp}
        for name, places in TARGETS.items():
            for modname, attr in places:
                original = getattr(sys.modules.get(modname), attr, None)
                if callable(original):
                    self._patch_everywhere(
                        original, self.wrap(name, original, hooks.get(name)))
        self._patch_everywhere(concurrent.futures.ThreadPoolExecutor,
                               self._traced_pool())

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _trace_metric(self, st, stat, args):
        """Spacetime whose metric profile evaluations are counted."""
        evaluate = self.wrap("spacetime.metric", st.metric.evaluate, _count_points)
        return dataclasses.replace(
            st, metric=dataclasses.replace(st.metric, evaluate=evaluate))

    def _trace_iso_maps(self, iso, stat, args):
        """Isotropic form whose coordinate-map callables are traced."""
        maps = {k: self.wrap("spacetime.iso_map", getattr(iso, k))
                for k in ISO_MAPS if getattr(iso, k) is not None}
        return dataclasses.replace(iso, **maps)

    def _traced_pool(self):
        """ThreadPoolExecutor whose tasks are parented to the submitting span.

        ``map`` is consumed inside its span, so the span's self time is the
        time the submitting thread waits for the pool.
        """
        tracer = self
        base = concurrent.futures.ThreadPoolExecutor

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                frames = tracer._state().stack
                parent = frames[-1][0] if frames else None
                task = tracer.wrap("cli.pool_task", fn)

                def run(*a, **k):
                    tracer._state().root = parent
                    return task(*a, **k)

                return super().submit(run, *args, **kwargs)

            def map(self, fn, *iterables, **kwargs):
                return iter(tracer.wrap("cli.pool_map", lambda: list(
                    base.map(self, fn, *iterables, **kwargs)))())

        return TracedPool

    # -- results -----------------------------------------------------------

    def stats(self):
        """Counters merged over threads: name -> {calls, self_s, ...}."""
        merged = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, stat in st.stats.items():
                into = merged.setdefault(name, {})
                for key, value in stat.items():
                    into[key] = into.get(key, 0) + value
        return merged

    def spans(self):
        with self._lock:
            threads = list(self._threads)
        out = [span for st in threads for span in st.spans]
        out.sort(key=lambda s: s[2])
        return out


def _count_points(value, stat, args):
    stat["points"] = stat.get("points", 0) + getattr(args[0], "size", 1)
    return value


def _count_solve_ivp(sol, stat, args):
    stat["nfev"] = stat.get("nfev", 0) + int(sol.nfev)
    # photonsurf passes no t_eval, so sol.t holds every accepted step
    stat["steps"] = stat.get("steps", 0) + len(sol.t) - 1
    return sol
