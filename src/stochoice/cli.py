"""Command-line interface: axiom checks over menu corpora, utility
fitting, closeness certificates, the probit demonstration, and seeded
corpus generation.

Exit codes are a stable contract for CI use: 0 all requested checks
passed, 1 an axiom or threshold failed, 2 usage or input error or a
numerical failure (a ``RuntimeError`` such as ``QuadratureError``, or an
``ArithmeticError`` such as an overflow).
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import sys
from pathlib import Path

from . import axioms
from .corpus import CorpusSpec, generate_corpus, sample_pairs
from .extract import certify_closeness, fit_utility_representation, upsilon
from .menus import Menu, product, unit_binary_menu
from .rules import Rule, rule_from_json
from .spaces import Space, Utility

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# in report order; "all" is every one but identity
CHECKABLE_AXIOMS = (
    "neutrality",
    "positivity",
    "continuity",
    "decomposability",
    "identity",
)


class InputError(Exception):
    pass


def _dumps(payload) -> str:
    """The JSON text every command prints or writes."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _parse(data, source: str, parse):
    """parse(data), with any malformed content, such as a list where an
    object belongs, raised as an InputError naming its source."""
    try:
        return parse(data)
    except (AttributeError, KeyError, ValueError, TypeError) as exc:
        raise InputError(f"invalid {source}: {exc}") from exc


def _parse_file(path: str, what: str, parse):
    return _parse(_load_json(path), f"{what} file {path}", parse)


def _load_rule(path: str) -> Rule:
    return _parse_file(path, "rule", rule_from_json)


def _load_corpus(path: str) -> list[Menu]:
    return _parse_file(path, "corpus spec", lambda d: generate_corpus(CorpusSpec.from_json(d)))


def _load_menus(args) -> list[tuple[str, Menu]]:
    if getattr(args, "menus", None):
        paths = sorted(glob.glob(args.menus))
        if not paths:
            raise InputError(f"no menu files match {args.menus!r}")
        return [(Path(p).name, _parse_file(p, "menu", Menu.from_json)) for p in paths]
    if getattr(args, "corpus", None):
        menus = _load_corpus(args.corpus)
        return [(f"menu_{i + 1:04d}", m) for i, m in enumerate(menus)]
    raise InputError("one of --menus or --corpus is required")


class _CorpusChoices(Rule):
    """The rule with each corpus menu's distribution computed once and
    shared by every checker; any other menu is chosen afresh.

    Menus are keyed by id, and each is held here, so no other menu can
    share an id with one while this object lives."""

    def __init__(self, rule: Rule, menus: list[Menu]) -> None:
        self.rule = rule
        self.menus = {id(m): m for m in menus}
        self.dists = {}

    def choose(self, menu: Menu):
        key = id(menu)
        if self.menus.get(key) is not menu:
            return self.rule.choose(menu)
        if key not in self.dists:
            self.dists[key] = self.rule.choose(menu)
        return self.dists[key]


class _ProbeChoices(Rule):
    """The corpus choices for the identity check, which chooses from
    nothing but corpus menus and its probes {b0: 0, b1: 1/k}: any other
    menu is a probe, chosen once per value and so once per k."""

    def __init__(self, corpus: _CorpusChoices) -> None:
        self.corpus = corpus
        self.probes = {}

    def choose(self, menu: Menu):
        if self.corpus.menus.get(id(menu)) is menu:
            return self.corpus.choose(menu)
        if menu not in self.probes:
            self.probes[menu] = self.corpus.rule.choose(menu)
        return self.probes[menu]


def _run_checks(rule, labeled_menus, which, tol, pairs, seed):
    """Per requested axiom, the corpus report merged by
    ``axioms.merge_reports`` and the list of every per-instance witness.
    Each corpus menu and each identity probe is chosen from once;
    products and continuity's moved menus are chosen afresh."""
    menus = [m for _, m in labeled_menus]
    rule = _CorpusChoices(rule, menus)
    probing = _ProbeChoices(rule)
    per_menu = {
        "neutrality": lambda m, mid: axioms.neutrality_epsilon(rule, m, tol=tol, menu_id=mid),
        "positivity": lambda m, mid: axioms.positivity_check(rule, m, menu_id=mid),
        "continuity": lambda m, mid: axioms.continuity_probe(rule, m, menu_id=mid),
        "identity": lambda m, mid: axioms.cross_menu_identity_epsilon(
            probing, m, tol=tol, menu_id=mid
        ),
    }
    reports = {}
    for name in CHECKABLE_AXIOMS:
        if name not in which:
            continue
        if name == "decomposability":
            sampled = sample_pairs(menus, pairs, seed)
            per_instance = [
                axioms.decomposability_epsilon(rule, m1, m2, tol=tol)
                for m1, m2 in sampled
            ]
        else:
            per_instance = [per_menu[name](m, mid) for mid, m in labeled_menus]
        witnesses = [r.witness for r in per_instance if r.witness is not None]
        reports[name] = (axioms.merge_reports(per_instance), witnesses)
    return reports


def _print_reports(reports, tol, as_json):
    ok = all(r.satisfied_at_tol for r, _ in reports.values())
    if as_json:
        rows = []
        for r, witnesses in reports.values():
            row = r.to_json()
            row["witnesses"] = witnesses
            rows.append(row)
        payload = {"pass": ok, "tol": tol, "reports": rows}
        print(_dumps(payload))
    else:
        for name, (r, witnesses) in reports.items():
            label = f"{name} (probe)" if name == "continuity" else name
            eps = "inf" if math.isinf(r.min_epsilon) else f"{r.min_epsilon:.3e}"
            status = "OK" if r.satisfied_at_tol else "FAIL"
            print(
                f"{label:<24} instances={r.instances_checked:<6} "
                f"min_epsilon={eps:<12} {status}"
            )
            # text output stays readable; the JSON report carries them all
            for witness in witnesses[:5]:
                print(f"    witness: {witness}")
            if len(witnesses) > 5:
                print(f"    ... and {len(witnesses) - 5} more")
        print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_check(args) -> int:
    rule = _load_rule(args.rule)
    labeled = _load_menus(args)
    if args.axioms == "all":
        # the continuity probe is defined on scalar and vector menus only
        kind = labeled[0][1].space.kind
        which = [
            a
            for a in CHECKABLE_AXIOMS[:4]
            if a != "continuity" or kind in axioms.CONTINUITY_KINDS
        ]
    else:
        which = [a.strip() for a in args.axioms.split(",") if a.strip()]
        if not which:
            raise InputError("no axioms requested")
    unknown = set(which) - set(CHECKABLE_AXIOMS)
    if unknown:
        raise InputError(f"unknown axioms: {sorted(unknown)}")
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise InputError("--tol must be finite and >= 0")
    pairs = args.pairs if args.pairs is not None else len(labeled)
    if pairs < 1:
        raise InputError("--pairs must be >= 1")
    reports = _run_checks(rule, labeled, which, args.tol, pairs, args.seed)
    return _print_reports(reports, args.tol, args.json)


def cmd_fit(args) -> int:
    rule = _load_rule(args.rule)
    raw = args.space
    if raw.lstrip().startswith("{"):
        space = _parse(json.loads(raw), "--space", Space.from_json)
    else:
        space = _parse_file(raw, "space", Space.from_json)
    result = fit_utility_representation(rule, space)
    if args.json:
        print(
            _dumps(
                {
                    "utility": result.utility.to_json(),
                    "probe_condition": result.probe_condition,
                }
            )
        )
    else:
        print(f"space: {space.kind}")
        for key, value in result.utility.to_json().items():
            if key != "space":
                print(f"{key}: {value}")
        print(f"probe condition number: {result.probe_condition:.6g}")
    return EXIT_OK


def cmd_certify(args) -> int:
    rule = _load_rule(args.rule)
    labeled = _load_menus(args)
    utility = None
    if args.utility != "auto":
        utility = _parse_file(args.utility, "utility", Utility.from_json)
    ids = [mid for mid, _ in labeled]
    menus = [m for _, m in labeled]
    cert = certify_closeness(rule, menus, utility, menu_ids=ids)
    payload = _dumps(cert.to_json())
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
        print(f"delta = {cert.delta:.6g} over {cert.corpus_size} menus -> {args.out}")
    else:
        print(payload)
    return EXIT_OK


def cmd_demo_probit(args) -> int:
    """The decomposability counterexample: a random-utility rule with
    Gaussian shocks overweights the top action on the squared menu."""
    kind, _, param = args.shock.partition(":")
    rule = rule_from_json({"type": "iaru", "shock": {"kind": kind, "param": param or 1.0}})
    unit = unit_binary_menu()
    square = product(unit, unit)
    p_top = rule.choose(unit)["b1"]
    p_diag = rule.choose(square)[("b1", "b1")]
    margin = p_diag - p_top**2
    if args.json:
        print(
            _dumps(
                {
                    "binary_top": p_top,
                    "square_diagonal": p_diag,
                    "independent_product": p_top**2,
                    "violation_margin": margin,
                }
            )
        )
    else:
        print(f"binary menu, P(top)            = {p_top:.6f}")
        print(f"squared menu, P(top, top)      = {p_diag:.6f}")
        print(f"independent product P(top)^2   = {p_top ** 2:.6f}")
        print(f"decomposability margin         = {margin:+.6f}")
    return EXIT_OK


def cmd_gen(args) -> int:
    menus = _load_corpus(args.spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, menu in enumerate(menus):
        path = out_dir / f"menu_{i + 1:04d}.json"
        path.write_text(_dumps(menu.to_json()) + "\n", encoding="utf-8")
    print(f"wrote {len(menus)} menus to {out_dir}")
    return EXIT_OK


def cmd_upsilon(args) -> int:
    rule = _load_rule(args.rule)
    labeled = _load_menus(args)
    rows = []
    for mid, menu in labeled:
        est = upsilon(rule, menu, args.n_max, eps_decomp=args.eps_decomp)
        rows.append(
            {
                "menu_id": mid,
                "n_used": est.n_used,
                "bound": est.bound,
                "distribution": est.distribution.to_json(),
            }
        )
    if args.json:
        print(_dumps(rows))
    else:
        for row in rows:
            print(f"{row['menu_id']} (n={row['n_used']}, bound={row['bound']}):")
            for a, p in row["distribution"].items():
                print(f"    {a}: {p:.10f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochoice",
        description="Axiom checks and logit extraction for stochastic choice rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p, menus=True):
        p.add_argument("--rule", required=True, help="rule JSON file")
        if menus:
            p.add_argument("--menus", help="glob of menu JSON files")
            p.add_argument("--corpus", help="corpus spec JSON file")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    pilot = sub.add_parser("check", help="run axiom checks over a corpus")
    add_inputs(pilot)
    pilot.add_argument("--axioms", default="all", help="comma list or 'all'")
    pilot.add_argument("--tol", type=float, default=axioms.DEFAULT_TOL)
    pilot.add_argument("--pairs", type=int, default=None, help="menu pairs for decomposability")
    pilot.add_argument("--seed", type=int, default=0, help="pair sampling seed")
    pilot.set_defaults(func=cmd_check)

    pfit = sub.add_parser("fit", help="fit a utility representation")
    add_inputs(pfit, menus=False)
    pfit.add_argument("--space", required=True, help="space JSON (inline or file)")
    pfit.set_defaults(func=cmd_fit)

    pcert = sub.add_parser("certify", help="certify closeness to a logit")
    add_inputs(pcert)
    pcert.add_argument("--utility", default="auto", help="utility JSON file or 'auto'")
    pcert.add_argument("--out", help="certificate output file")
    pcert.set_defaults(func=cmd_certify)

    pdemo = sub.add_parser("demo-probit", help="decomposability counterexample")
    pdemo.add_argument("--shock", default="gaussian:1")
    pdemo.add_argument("--json", action="store_true")
    pdemo.set_defaults(func=cmd_demo_probit)

    pgen = sub.add_parser("gen", help="generate a seeded menu corpus")
    pgen.add_argument("--spec", required=True, help="corpus spec JSON file")
    pgen.add_argument("--out", required=True, help="output directory")
    pgen.set_defaults(func=cmd_gen)

    pups = sub.add_parser("upsilon", help="evaluate the nth-root limit rule")
    add_inputs(pups)
    pups.add_argument("--n-max", type=int, default=12, dest="n_max")
    pups.add_argument("--eps-decomp", type=float, default=None, dest="eps_decomp")
    pups.set_defaults(func=cmd_upsilon)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, KeyError, OSError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
