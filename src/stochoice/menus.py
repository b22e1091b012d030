"""Menus of labeled actions, the menu product, n-fold powers, and
equivalence up to relabeling.

A menu pairs each action id with an outcome from a single space.
The product menu pairs actions and composes outcomes; powers are
left-associated since composition need not be associative.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Union

import numpy as np

from .spaces import (
    Outcome,
    Space,
    SpaceMismatchError,
    compose,
    equal_outcome_blocks,
    outcome_from_json,
    outcome_to_json,
    outcomes_equal,
    canonical_value,
)

# an action id is an atomic label or an ordered pair of action ids
ActionId = Union[str, tuple]

# the largest product or power menu that upsilon and the decomposability
# check will build
MENU_SIZE_GUARD = 1_000_000

_RESERVED = set("(),")
_ACTION_TOKENS = re.compile(r"[(),]|[^(),]+")
_OPEN = object()


def action_str(a: ActionId) -> str:
    """Injective serialization: atoms verbatim, pairs as "(left,right)".
    A menu's own ids are serialized once and kept in ``Menu.ids``."""
    if isinstance(a, str):
        return a
    left, right = a
    return f"({action_str(left)},{action_str(right)})"


def action_from_str(s: str) -> ActionId:
    """Inverse of ``action_str``, read in one pass with a stack of open
    pairs; any string that ``action_str`` does not produce raises
    ValueError."""
    lefts = []  # per open pair, _OPEN until its comma, then its left id
    done = None  # the id just read, or None where an id is expected
    for tok in _ACTION_TOKENS.findall(s):
        if tok == "(" and done is None:
            lefts.append(_OPEN)
        elif tok == "," and lefts and lefts[-1] is _OPEN:
            lefts[-1] = "" if done is None else done
            done = None
        elif tok == ")" and lefts and lefts[-1] is not _OPEN:
            done = (lefts.pop(), "" if done is None else done)
        elif tok not in _RESERVED and done is None:
            done = tok
        else:
            break
    else:
        if not lefts:
            return "" if done is None else done
    raise ValueError(f"malformed action id: {s!r}")


def _check_atoms(a: ActionId) -> None:
    if isinstance(a, str):
        if _RESERVED & set(a):
            raise ValueError(f"atomic action label may not contain ( ) , : {a!r}")
        return
    left, right = a
    _check_atoms(left)
    _check_atoms(right)


@dataclass(frozen=True, slots=True)
class Menu:
    """A finite set of labeled actions with one outcome per action.

    Entry order is preserved so reports and bijections are deterministic.
    """

    space: Space
    entries: tuple[tuple[ActionId, Outcome], ...]
    # each action's action_str, aligned with entries; see ``ids``
    _ids: tuple[str, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple((a, o) for a, o in self.entries))
        if not self.entries:
            raise ValueError("menu needs at least one action")
        seen = set()
        for a, o in self.entries:
            _check_atoms(a)
            if a in seen:
                raise ValueError(f"duplicate action id: {action_str(a)}")
            seen.add(a)
            if o.space != self.space:
                raise SpaceMismatchError()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def actions(self) -> tuple[ActionId, ...]:
        return tuple(a for a, _ in self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        """Each action's ``action_str``, aligned with ``entries``.

        Product and JSON menus get them from their factors' ids or their
        file; any other menu serializes its actions on first use.  They
        live as long as the menu, and nothing is cached across menus."""
        if self._ids is None:
            object.__setattr__(self, "_ids", tuple(action_str(a) for a, _ in self.entries))
        return self._ids

    def outcome_of(self, a: ActionId) -> Outcome:
        for aid, o in self.entries:
            if aid == a:
                return o
        raise KeyError(action_str(a))

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "actions": [
                {"id": s, "outcome": outcome_to_json(o)}
                for s, (_, o) in zip(self.ids, self.entries)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Menu":
        space = Space.from_json(data["space"])
        ids = tuple(item["id"] for item in data["actions"])
        entries = tuple(
            (action_from_str(s), outcome_from_json(space, item["outcome"]))
            for s, item in zip(ids, data["actions"])
        )
        menu = Menu(space, entries)
        # action_from_str reads only what action_str writes, so each
        # string read is its action's id
        object.__setattr__(menu, "_ids", ids)
        return menu


def menu_of(space: Space, assignments: dict) -> Menu:
    """Convenience constructor from {label: raw outcome payload}."""
    return Menu(space, tuple((a, Outcome(space, v)) for a, v in assignments.items()))


def scalar_menu(assignments: dict) -> Menu:
    return menu_of(Space.scalar(), assignments)


def unit_binary_menu() -> Menu:
    """The probe menu {b0: 0, b1: 1}."""
    return scalar_menu({"b0": 0.0, "b1": 1.0})


def _trusted_menu(space: Space, entries: tuple, ids: tuple) -> Menu:
    # bypass __post_init__ for entries whose invariants hold by
    # construction; re-validating 10^6-action power menus dominates their
    # build time otherwise
    m = object.__new__(Menu)
    object.__setattr__(m, "space", space)
    object.__setattr__(m, "entries", entries)
    object.__setattr__(m, "_ids", ids)
    return m


def product(m1: Menu, m2: Menu) -> Menu:
    """Product menu: paired actions, composed outcomes.

    Actions are ordered pairs in lexicographic order of entry indices.
    """
    if m1.space != m2.space:
        raise SpaceMismatchError()
    # pairs of distinct ids are distinct and compose preserves the space,
    # so the result needs no re-validation
    entries = tuple(
        ((a1, a2), compose(o1, o2)) for a1, o1 in m1.entries for a2, o2 in m2.entries
    )
    ids = tuple(f"({s1},{s2})" for s1 in m1.ids for s2 in m2.ids)
    return _trusted_menu(m1.space, entries, ids)


def power(m: Menu, n: int) -> Menu:
    """Left-associated n-fold product (((m x m) x m) ...); n must be >= 1.

    Left association is the documented convention because composition
    need not be associative.
    """
    if n < 1:
        raise ValueError("menu power requires n >= 1")
    return reduce(lambda acc, _: product(acc, m), range(n - 1), m)


def diagonal_action(a: ActionId, n: int) -> ActionId:
    """The id of (a, ..., a) in power(m, n), nested the same way."""
    return reduce(lambda acc, _: (acc, a), range(n - 1), a)


def equivalent(m1: Menu, m2: Menu, tol: float | None = None) -> dict | None:
    """A bijection of actions matching outcomes within tol, or None.

    Outcomes compare by ``outcomes_equal``, so tol defaults to its 1e-9
    and prize streams compare exactly.

    Both menus' outcomes are split by ``equal_outcome_blocks``.  An
    all-equal block pairs its actions in entry order; any other block is
    matched by a maximum bipartite matching over its own equal pairs, so
    a bijection is found whenever one exists, even where equality within
    tol is not transitive.
    """
    if m1.space != m2.space or len(m1) != len(m2):
        return None
    n = len(m1)
    outcomes = [o for _, o in m1.entries + m2.entries]
    matched = {}
    for idx, all_equal in equal_outcome_blocks(outcomes, tol):
        left = [i for i in idx if i < n]
        right = [j for j in idx if j >= n]
        if len(left) != len(right):
            return None
        if not all_equal:
            # imported here: no CLI command compares menus up to relabeling
            from scipy.sparse import csr_matrix
            from scipy.sparse.csgraph import maximum_bipartite_matching

            compatible = csr_matrix(
                [[outcomes_equal(outcomes[i], outcomes[j], tol) for j in right] for i in left]
            )
            cols = maximum_bipartite_matching(compatible, perm_type="column")
            if np.any(cols < 0):
                return None
            right = [right[c] for c in cols]
        matched.update(zip(left, right))
    return {a: m2.entries[matched[i] - n][0] for i, (a, _) in enumerate(m1.entries)}


def _canonical_parts(menu: Menu) -> tuple[str, list[str]]:
    """Header and sorted body of the canonical encoding."""
    space = menu.space
    head = f"{space.kind}/{space.d}/{space.moment_order}/{','.join(space.alphabet)}#"
    return head, sorted(
        f"{s}={canonical_value(o)}" for s, (_, o) in zip(menu.ids, menu.entries)
    )


def canonical_key(menu: Menu) -> str:
    """Order-insensitive canonical encoding (outcomes at 12 significant
    digits), used for tabular lookup and deterministic shock seeds."""
    head, body = _canonical_parts(menu)
    return head + ";".join(body)


def menu_hash(menu: Menu) -> int:
    """64-bit digest of the canonical encoding, streamed to keep large
    power menus from materializing the full key string."""
    head, body = _canonical_parts(menu)
    h = hashlib.blake2b(head.encode(), digest_size=8)
    for part in body:
        h.update(part.encode())
        h.update(b";")
    return int.from_bytes(h.digest(), "big")
