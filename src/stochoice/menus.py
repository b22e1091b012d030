"""Menus of labeled actions, the menu product, n-fold powers, and
equivalence up to relabeling.

A menu pairs each action id with an outcome from a single space.
The product menu pairs actions and composes outcomes; powers are
left-associated since composition need not be associative.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from functools import cached_property, reduce
from typing import Union

import numpy as np

from .spaces import (
    DISTRIBUTION,
    SCALAR,
    Outcome,
    Space,
    SpaceMismatchError,
    _canonical_text,
    _compose_all,
    _lottery_outcomes,
    _lottery_texts,
    _NumberTexts,
    _number_text,
    _padded,
    _trusted_outcome,
    compose,
    equal_outcome_blocks,
    feature_rows,
    outcome_from_json,
    outcome_to_json,
    outcomes_equal,
)

# an action id is an atomic label or an ordered pair of action ids
ActionId = Union[str, tuple]

# the largest product or power menu that upsilon and the decomposability
# check will build
MENU_SIZE_GUARD = 1_000_000

# the smallest menu whose canonical encoding formats each distinct number
# once; measured on 4-action corpus menus, sharing the texts costs about
# 45% more than formatting every number, and on a 6561-action lottery
# power menu it saves about 60%
_SHARED_TEXTS_MIN = 128

# canonical parts joined per blake2b update in a menu's digest
_DIGEST_BLOCK = 4096

_RESERVED = set("(),")
# an atom may not hold the canonical encoding's separators either
_ATOM_RESERVED = _RESERVED | set("=;")
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
    """Inverse of ``action_str``: the one-id case of ``_read_ids``.  Any
    string that ``action_str`` does not produce raises ValueError."""
    return next(_read_ids((s,)))


def _read_ids(texts):
    """Yield each text's action id, reading each distinct left part once.

    A text "(L,a)" whose right part a is an atom is (L's id, a), where
    L's id is looked up in a memo that lives only for this call, or read
    and added to it.  "(L,a)" is well formed exactly when L is, so this
    gives the stack parser's id or its error, which names the whole
    text.  Any other text goes to the stack parser."""
    memo = {}  # each left part's id, by its text
    for s in texts:
        levels = []  # (L, a) of each "(L,a)" level peeled off s, outermost first
        head = s
        while type(head) is str:
            k = head.rfind(",")
            a = head[k + 1 : -1]
            if k < 0 or head[0] != "(" or head[-1] != ")" or not _RESERVED.isdisjoint(a):
                break
            head = head[1:k]
            levels.append((head, a))
            if head in memo:
                break
        done = memo.get(head) if levels else None
        if done is None:
            done = _parse_id(head, s)
        for left, a in reversed(levels):
            memo[left] = done
            done = (done, a)
        yield done


def _parse_id(s: str, whole: str) -> ActionId:
    """The id ``s``, read in one pass with a stack of open pairs; a
    malformed ``s`` raises ValueError naming ``whole``, the text that
    holds it."""
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
    raise ValueError(f"malformed action id: {whole!r}")


def id_digests(ids) -> np.ndarray:
    """Each id's 8-byte blake2b digest, read as a big-endian integer, in
    one read-only uint64 array."""
    raw = b"".join([hashlib.blake2b(s.encode(), digest_size=8).digest() for s in ids])
    digests = np.frombuffer(raw, ">u8").astype(np.uint64)
    digests.flags.writeable = False
    return digests


def _check_atoms(a: ActionId) -> None:
    if isinstance(a, str):
        if not _ATOM_RESERVED.isdisjoint(a):
            raise ValueError(f"atomic action label {a!r} may not contain any of ( ) , = ;")
        return
    left, right = a
    _check_atoms(left)
    _check_atoms(right)


class Menu:
    """A finite set of labeled actions with one outcome per action.

    Entry order is preserved so reports and bijections are deterministic.
    A menu is immutable, and equal menus have equal spaces and entries.

    ``Menu(space, entries)`` validates its entries.  A product menu
    keeps its two factors instead, and sums their feature rows ``phi``.
    Every derived value is a ``cached_property``, kept in the menu's own
    dict from first use.  A scalar or lottery product's ``entries``,
    ``actions`` and ``outcomes`` are built only when read (``to_json``,
    ``equivalent``, pickling, ``==``), and ``len``, ``index``, ``phi``
    and ``menu_hash`` never build them: a lottery product holds its
    lotteries as one padded array, ``_lotteries``.  Any other product
    composes its outcomes once.
    """

    def __init__(self, space: Space, entries) -> None:
        entries = tuple((a, o) for a, o in entries)
        if not entries:
            raise ValueError("menu needs at least one action")
        seen = set()
        for a, o in entries:
            _check_atoms(a)
            if a in seen:
                raise ValueError(f"duplicate action id: {action_str(a)}")
            seen.add(a)
            if o.space != space:
                raise SpaceMismatchError()
        vars(self).update(space=space, _factors=None, entries=entries)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Menu is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Menu is immutable")

    def __reduce__(self):
        # pickle and copy rebuild a menu from its space and entries
        return Menu, (self.space, self.entries)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.space == other.space and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.space, self.entries))

    def __repr__(self) -> str:
        return f"Menu(space={self.space!r}, entries={self.entries!r})"

    def __len__(self) -> int:
        if self._factors is None:
            return len(self.entries)
        m1, m2 = self._factors
        return len(m1) * len(m2)

    @cached_property
    def entries(self) -> tuple[tuple[ActionId, Outcome], ...]:
        return tuple(zip(self.actions, self.outcomes))

    @cached_property
    def actions(self) -> tuple[ActionId, ...]:
        if self._factors is None:
            return tuple(a for a, _ in self.entries)
        m1, m2 = self._factors
        return tuple(itertools.product(m1.actions, m2.actions))

    @cached_property
    def outcomes(self) -> tuple[Outcome, ...]:
        """Each action's outcome, aligned with ``entries``."""
        if self._factors is None:
            return tuple(o for _, o in self.entries)
        if self.space.kind == SCALAR:
            return tuple(_trusted_outcome(self.space, v) for v in self.values.tolist())
        if self.space.kind == DISTRIBUTION:
            return tuple(_lottery_outcomes(self.space, *self._lotteries))
        m1, m2 = self._factors
        return tuple(compose(x, y) for x in m1.outcomes for y in m2.outcomes)

    @cached_property
    def _lotteries(self) -> tuple[np.ndarray, np.ndarray]:
        """A lottery menu's outcomes as one padded (len, width, 2) float
        array of (point, weight) and the support sizes (``_padded``),
        aligned with ``entries``.  A product convolves its factors' rows
        into its own, and builds no Outcome on the way."""
        if self._factors is None:
            return _padded([o.value for o in self.outcomes])
        m1, m2 = self._factors
        return _compose_all(self.space, *m1._lotteries, *m2._lotteries)

    @cached_property
    def phi(self) -> np.ndarray:
        """Each outcome's ``features`` as one read-only (len, k) float
        array, aligned with ``entries``.  phi is additive over
        composition, so a product's rows are sums of its factors' rows."""
        if self._factors is None:
            phi = feature_rows(self.space, self.outcomes)
        else:
            m1, m2 = self._factors
            # a sum may overflow to inf, as Python floats do silently;
            # product rejects it on scalar menus
            with np.errstate(over="ignore"):
                rows = m1.phi[:, None, :] + m2.phi[None, :, :]
            phi = rows.reshape(len(self), rows.shape[2])
        phi.flags.writeable = False
        return phi

    @property
    def values(self) -> np.ndarray:
        """A scalar menu's outcomes as one read-only float array, aligned
        with ``entries``: the column of ``phi``."""
        if self.space.kind != SCALAR:
            raise SpaceMismatchError()
        return self.phi[:, 0]

    @cached_property
    def ids(self) -> tuple[str, ...]:
        """Each action's ``action_str``, aligned with ``entries``.

        Product and JSON menus get them from their factors' ids or their
        file; any other menu serializes its actions on first use.  They
        live as long as the menu, and nothing is cached across menus."""
        if self._factors is None:
            return tuple(map(action_str, self.actions))
        m1, m2 = self._factors
        return tuple(f"({s1},{s2})" for s1 in m1.ids for s2 in m2.ids)

    @cached_property
    def id_digests(self) -> np.ndarray:
        """``id_digests`` of ``ids``, the per-action input of
        ``Perturbed``'s shocks, kept with the ids; ``generate_corpus``
        gives its menus slices of one array over their shared ids."""
        return id_digests(self.ids)

    @cached_property
    def _positions(self) -> dict:
        return {b: i for i, b in enumerate(self.actions)}

    def index(self, a: ActionId) -> int:
        """The position of action a in ``entries``; KeyError if absent.
        A product's (a1, a2) sits at i1 * len(m2) + i2."""
        if self._factors is None:
            return self._positions[a]
        if not (isinstance(a, tuple) and len(a) == 2):
            raise KeyError(a)
        m1, m2 = self._factors
        return m1.index(a[0]) * len(m2) + m2.index(a[1])

    @cached_property
    def _digest(self) -> int:
        # fed in blocks of parts, each part followed by ";", so a large
        # power menu never materializes the full key string
        head, body = _canonical_parts(self)
        h = hashlib.blake2b(head.encode(), digest_size=8)
        for i in range(0, len(body), _DIGEST_BLOCK):
            h.update((";".join(body[i : i + _DIGEST_BLOCK]) + ";").encode())
        return int.from_bytes(h.digest(), "big")

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "actions": [
                {"id": s, "outcome": outcome_to_json(o)}
                for s, o in zip(self.ids, self.outcomes)
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Menu":
        space = Space.from_json(data["space"])
        ids = tuple(item["id"] for item in data["actions"])
        # _read_ids reads only what action_str writes, so each string read
        # is its action's id and distinct strings are distinct actions;
        # its atoms hold none of ( ) , but may hold = or ;, refused here
        entries = tuple(
            (a, outcome_from_json(space, item["outcome"]))
            for a, item in zip(_read_ids(ids), data["actions"])
        )
        joined = "".join(ids)
        if "=" in joined or ";" in joined:
            _check_atoms(action_from_str(next(s for s in ids if "=" in s or ";" in s)))
        if not entries:
            raise ValueError("menu needs at least one action")
        if len(set(ids)) < len(ids):
            seen = set()
            for s in ids:
                if s in seen:
                    raise ValueError(f"duplicate action id: {s}")
                seen.add(s)
        return _new_menu(space, None, entries=entries, ids=ids)


def _new_menu(space: Space, factors: tuple | None, **known) -> Menu:
    """A menu whose invariants hold by construction, unvalidated:
    re-validating 10^6-action power menus dominates their build time.
    ``known`` seeds derived values the caller already has, keyed by
    property name (``entries``, ``ids``, ``phi``, ``id_digests``)."""
    m = object.__new__(Menu)
    vars(m).update(known, space=space, _factors=factors)
    return m


def menu_of(space: Space, assignments: dict) -> Menu:
    """Convenience constructor from {label: raw outcome payload}."""
    return Menu(space, tuple((a, Outcome(space, v)) for a, v in assignments.items()))


def scalar_menu(assignments: dict) -> Menu:
    return menu_of(Space.scalar(), assignments)


def unit_binary_menu() -> Menu:
    """The probe menu {b0: 0, b1: 1}."""
    return scalar_menu({"b0": 0.0, "b1": 1.0})


def product(m1: Menu, m2: Menu) -> Menu:
    """Product menu: paired actions, composed outcomes.

    Actions are ordered pairs in lexicographic order of entry indices.
    Pairs of distinct ids are distinct and composition preserves the
    space, so nothing is re-validated; the outcomes are composed here,
    which raises on the first that is invalid.  A scalar product holds
    only its ids and values, and a lottery product its ids and composed
    rows (``Menu._lotteries``); both build their entries when read.  Any
    other kind builds its outcomes here.
    """
    if m1.space != m2.space:
        raise SpaceMismatchError()
    m = _new_menu(m1.space, (m1, m2))
    m.ids
    if m.space.kind == SCALAR:
        if not np.isfinite(m.values).all():
            raise ValueError("outcome components must be finite")
    elif m.space.kind == DISTRIBUTION:
        # entries built here, or on first read, each left the
        # lottery_corpus benchmark at 131-136 MB peak RSS; with only the
        # rows it peaks at 122-123 MB
        m._lotteries
    else:
        m.outcomes
    return m


def power(m: Menu, n: int) -> Menu:
    """Left-associated n-fold product (((m x m) x m) ...); n must be >= 1.

    Left association is the documented convention because composition
    need not be associative.
    """
    if n < 1:
        raise ValueError("menu power requires n >= 1")
    acc = m
    for _ in range(n - 1):
        inner, acc = acc, product(acc, m)
        if inner is not m:
            # an inner power lives on only as a factor, which needs no
            # more than its own factors
            kept = {"space": inner.space, "_factors": inner._factors}
            vars(inner).clear()
            vars(inner).update(kept)
    return acc


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
    outcomes = m1.outcomes + m2.outcomes
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
    right_actions = m2.actions
    return {a: right_actions[matched[i] - n] for i, a in enumerate(m1.actions)}


def _canonical_parts(menu: Menu) -> tuple[str, list[str]]:
    """Header and sorted body of the canonical encoding that
    ``menu_hash`` digests: insensitive to entry order, with outcomes at
    12 significant digits.

    A menu of at least _SHARED_TEXTS_MIN actions formats each distinct
    number once: the outcomes of a power or product menu repeat a few
    numbers many times.  A smaller menu formats every number, which is
    cheaper where numbers rarely repeat.  A lottery product is formatted
    from its composed rows, without building its outcomes."""
    space = menu.space
    head = f"{space.kind}/{space.d}/{space.moment_order}/{','.join(space.alphabet)}#"
    shared = len(menu) >= _SHARED_TEXTS_MIN
    if space.kind == DISTRIBUTION and menu._factors is not None:
        texts = _lottery_texts(*menu._lotteries, shared)
        return head, sorted([f"{s}={t}" for s, t in zip(menu.ids, texts)])
    num = _NumberTexts().__getitem__ if shared else _number_text
    if space.kind == SCALAR:
        return head, sorted([f"{s}={num(v)}" for s, v in zip(menu.ids, menu.values.tolist())])
    return head, sorted([f"{s}={_canonical_text(o, num)}" for s, o in zip(menu.ids, menu.outcomes)])


def menu_hash(menu: Menu) -> int:
    """64-bit digest of the canonical encoding, kept on the menu."""
    return menu._digest
