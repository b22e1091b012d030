"""Spans and counters around the calls into each stochoice module.

The tracer wraps public functions from outside the program: after a
fresh import it replaces each wrapped name in every stochoice module
that binds it (``menu_hash`` lives in both ``stochoice.menus`` and
``stochoice.rules``), and each rule class's ``choose``.

Per-menu functions become spans (name, start, end, parent) kept in
memory, from which inclusive and self times follow.  Per-outcome
functions (``compose``, ``evaluate``, ``outcomes_equal``) are called up
to millions of times, so they only add to counters and accumulated
times; their time stays inside the caller's span.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

# spans reported with inclusive time (".s"); all others with self time
INCLUSIVE = (
    "corpus.generate_corpus",
    "corpus.sample_pairs",
    "menus.from_json",
    "menus.power",
    "menus.product",
    "menus.menu_hash",
    "quadrature.adaptive_simpson",
)
SELF = (
    "cli",
    "rules.MNL.choose",
    "rules.GeneralMNL.choose",
    "rules.IARU.choose",
    "rules.Perturbed.choose",
    "axioms.neutrality_epsilon",
    "axioms.positivity_check",
    "axioms.continuity_probe",
    "axioms.decomposability_epsilon",
    "extract.fit_beta_min_delta",
    "extract.fit_utility_representation",
    "extract.certify_closeness",
    "extract.upsilon",
)
COUNTERS = (
    "menus.menu_hash.calls",
    "menus.menu_hash.distinct",
    "menus.actions_built",
    "menus.actions_hashed",
    "spaces.compose.calls",
    "spaces.evaluate.calls",
    "rules.choose.calls",
    "rules.actions_chosen",
    "quadrature.calls",
    "quadrature.points",
    "quadrature.depth_max",
    "quadrature.depth_cap_hits",
    "axioms.pairs_compared",
)
PER_OUTCOME_TIMES = ("spaces.compose.s", "spaces.evaluate.s")


def metric_names() -> list[str]:
    return (
        [f"{n}.self_s" for n in SELF]
        + [f"{n}.s" for n in INCLUSIVE]
        + list(PER_OUTCOME_TIMES)
        + list(COUNTERS)
    )


class Tracer:
    """Collects spans and counters over the commands of one round; call
    ``install`` after every fresh import of stochoice."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._digests: set[int] = set()

    # -- recording -------------------------------------------------------

    def span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec = spans[idx]
                rec[1] = t0
                rec[2] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def per_outcome(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key + ".s"] += perf_counter() - t0
                counts[key + ".calls"] += 1

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap the freshly imported stochoice modules in place."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "stochoice" or name.startswith("stochoice.")
        }
        counts = self.counts

        def rebind(original, wrapper, only=None):
            for name, mod in mods.items():
                if only is not None and name != only:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        corpus = mods["stochoice.corpus"]
        for fname in ("generate_corpus", "sample_pairs"):
            fn = getattr(corpus, fname)
            rebind(fn, self.span(f"corpus.{fname}", fn))

        menus = mods["stochoice.menus"]

        def built(args, kwargs, result):
            counts["menus.actions_built"] += len(result)

        def hashed(args, kwargs, result):
            counts["menus.menu_hash.calls"] += 1
            counts["menus.actions_hashed"] += len(args[0])
            self._digests.add(result)

        from_json = menus.Menu.__dict__["from_json"].__func__
        menus.Menu.from_json = staticmethod(self.span("menus.from_json", from_json, built))
        rebind(menus.power, self.span("menus.power", menus.power))
        rebind(menus.product, self.span("menus.product", menus.product, built))
        rebind(menus.menu_hash, self.span("menus.menu_hash", menus.menu_hash, hashed))

        spaces = mods["stochoice.spaces"]
        for fname in ("compose", "evaluate"):
            fn = getattr(spaces, fname)
            rebind(fn, self.per_outcome(f"spaces.{fname}", fn))

        rules = mods["stochoice.rules"]

        def chosen(args, kwargs, result):
            counts["rules.choose.calls"] += 1
            counts["rules.actions_chosen"] += len(args[1])

        for cname, cls in list(vars(rules).items()):
            if isinstance(cls, type) and issubclass(cls, rules.Rule) and "choose" in vars(cls):
                cls.choose = self.span(f"rules.{cname}.choose", vars(cls)["choose"], chosen)

        quad = mods["stochoice.quadrature"].adaptive_simpson
        rebind(quad, self._quadrature(quad))

        axioms = mods["stochoice.axioms"]
        for fname in (
            "neutrality_epsilon",
            "positivity_check",
            "continuity_probe",
            "decomposability_epsilon",
        ):
            fn = getattr(axioms, fname)
            rebind(fn, self.span(f"axioms.{fname}", fn))
        equal = axioms.outcomes_equal

        def compared(*args, **kwargs):
            counts["axioms.pairs_compared"] += 1
            return equal(*args, **kwargs)

        rebind(equal, compared, only="stochoice.axioms")

        extract = mods["stochoice.extract"]
        for fname in (
            "fit_beta_min_delta",
            "fit_utility_representation",
            "certify_closeness",
            "upsilon",
        ):
            fn = getattr(extract, fname)
            rebind(fn, self.span(f"extract.{fname}", fn))

    def _quadrature(self, quad):
        """Span around adaptive_simpson that also counts integrand points;
        the refinement depth follows from the number of integrand calls,
        which is 3 for the seed panels plus 2 per refinement round."""
        counts = self.counts
        signature = inspect.signature(quad)
        timed = self.span("quadrature.adaptive_simpson", quad)

        def wrapper(f, *args, **kwargs):
            calls = 0

            def counted(x):
                nonlocal calls
                calls += 1
                counts["quadrature.points"] += x.size
                return f(x)

            result = timed(counted, *args, **kwargs)
            depth = (calls - 3) // 2
            counts["quadrature.calls"] += 1
            counts["quadrature.depth_max"] = max(counts["quadrature.depth_max"], depth)
            bound = signature.bind(f, *args, **kwargs)
            bound.apply_defaults()
            cap = bound.arguments.get("max_depth")
            if cap is not None and depth >= cap:
                counts["quadrature.depth_cap_hits"] += 1
            return result

        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over everything recorded since creation."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        inclusive = defaultdict(float)
        own = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            inclusive[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        out = {}
        for name in SELF:
            out[f"{name}.self_s"] = own[name]
        for name in INCLUSIVE:
            out[f"{name}.s"] = inclusive[name]
        for key in PER_OUTCOME_TIMES + COUNTERS:
            out[key] = float(self.counts[key])
        out["menus.menu_hash.distinct"] = float(len(self._digests))
        return out
