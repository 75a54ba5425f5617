"""Term model of the update language (Section 2.1 of the paper).

The alphabet of the language consists of

* a set ``O`` of *object identities* (OIDs), modelled by :class:`Oid`.  For
  formal simplicity the paper treats values (numbers, strings) as specific
  OIDs; we follow that convention — ``Oid(250)`` and ``Oid("henry")`` are both
  ordinary OIDs.
* an infinite set of *variables*, modelled by :class:`Var`.  Variables are
  quantified over ``O`` only: during evaluation a variable can be bound to an
  OID but never to a proper version identity (this is what makes the
  salary-raise rule of Section 2.1 apply exactly once per employee).
* the function symbols ``ins``, ``del``, ``mod`` (:class:`UpdateKind`), used
  to build *version-id-terms*, modelled by :class:`VersionId`.

A *ground* version-id-term is called a VID.  The set of all VIDs is
``O_V ⊇ O``; e.g. ``ins(del(mod(phil)))`` is the VID of the version of object
``phil`` after a group of modifies, then a group of deletes, then a group of
inserts have been performed on it (Figure 1 of the paper).
"""

from __future__ import annotations

import enum
import sys
from typing import Iterator, Union

from repro.core.caches import register_cache
from repro.core.errors import TermError

__all__ = [
    "UpdateKind",
    "Term",
    "Oid",
    "Var",
    "VersionVar",
    "VersionId",
    "OidValue",
    "intern_oid",
    "is_ground",
    "is_object_id_term",
    "is_version_id_term",
    "object_of",
    "depth",
    "kind_chain",
    "subterms",
    "is_subterm",
    "is_proper_subterm",
    "wrap",
    "variables_of",
]

#: Python values an OID may carry.  Numbers make arithmetic built-ins work;
#: strings are symbolic object names such as ``phil`` or ``empl``.
OidValue = Union[str, int, float]


class UpdateKind(enum.Enum):
    """The three update types of the paper: ``F = {ins, del, mod}``."""

    INSERT = "ins"
    DELETE = "del"
    MODIFY = "mod"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "UpdateKind":
        """Return the kind named by ``name`` (``"ins"``/``"del"``/``"mod"``)."""
        for kind in cls:
            if kind.value == name:
                return kind
        raise TermError(f"unknown update kind {name!r}; expected ins/del/mod")


class Oid:
    """An object identity — an element of the set ``O``.

    Values are OIDs too (the paper: "we consider values as specific OIDs"),
    so the payload may be a string, an int or a float.  Equality and hashing
    are structural over the payload.

    Terms are immutable by convention and hash-cached at construction: they
    key every index of the object base and every variable binding, so the
    evaluator hashes them orders of magnitude more often than it creates
    them.  Never assign to their attributes.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: OidValue) -> None:
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise TermError(
                f"an OID must carry a str, int or float, got "
                f"{type(value).__name__}"
            )
        if type(value) is str:
            # Symbolic names recur across facts, rules and queries; CPython
            # compares interned strings by pointer, which speeds up every
            # index probe keyed on this OID.
            value = sys.intern(value)
        self.value = value
        self._hash = hash((value,))

    def __reduce__(self):
        # Rebuild through the constructor: a pickled ``_hash`` is only valid
        # under the hash seed of the process that computed it.
        return (Oid, (self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Oid:
            return NotImplemented
        return self.value == other.value

    @property
    def is_numeric(self) -> bool:
        """True when this OID is a value usable in arithmetic built-ins."""
        return isinstance(self.value, (int, float))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Oid({self.value!r})"


#: The process-wide OID intern table.  Keys pair the payload with its exact
#: type: ``1``, ``1.0`` and ``True`` hash alike in Python, and ``Oid(1)`` /
#: ``Oid(1.0)`` must stay distinct interned objects.
_OID_INTERN: dict[tuple[type, OidValue], "Oid"] = {}


def intern_oid(value: "OidValue | Oid") -> "Oid":
    """The canonical :class:`Oid` for ``value`` — one object per payload.

    Interned OIDs make the ``self is other`` fast path of :meth:`Oid.__eq__`
    hit on every comparison between interned terms, so index-bucket probes
    and dedup keys compare by identity instead of by payload.  The table is
    process-wide and grows with the active symbol universe (bounded by the
    data); :func:`repro.core.caches.cache_stats` reports its size under
    ``terms.oid_intern``.

    Interning is optional — un-interned ``Oid``\\ s remain fully equal and
    hash-compatible with interned ones — so callers on hot construction
    paths (parsers, workload generators, the serializer) opt in.
    """
    if isinstance(value, Oid):
        key = (type(value.value), value.value)
        return _OID_INTERN.setdefault(key, value)
    canonical = _OID_INTERN.get((type(value), value))
    if canonical is None:
        canonical = Oid(value)
        _OID_INTERN[(type(value), value)] = canonical
    return canonical


register_cache(
    "terms.oid_intern",
    lambda: {"size": len(_OID_INTERN), "maxsize": None},
    _OID_INTERN.clear,
)


class Var:
    """A variable.  By convention names start with an upper-case letter.

    Variables denote *objects*: the domain of quantification is ``O``, never a
    proper VID (Section 2.1, footnote 1 of the paper).  A :class:`Var` and a
    :class:`VersionVar` of the same name are distinct variables (equality is
    exact-class, as it was under the dataclass representation).
    """

    __slots__ = ("name", "_hash")

    def __init__(self, name: str) -> None:
        if not name:
            raise TermError("a variable needs a non-empty name")
        self.name = name
        self._hash = hash((name,))

    def __reduce__(self):
        # Rebuilt through the constructor, as for Oid (covers VersionVar).
        return (self.__class__, (self.name,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented if not isinstance(other, Var) else False
        return self.name == other.name

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var({self.name!r})"


class VersionVar(Var):
    """A *version variable* — the Section 6 extension, written ``?W``.

    Quantifies over the set ``O_V`` of all VIDs instead of ``O``: it matches
    any *existing* version, of any depth.  Allowed in body host positions
    only; a head containing one is rejected up front (stratification
    condition (a) would force a strict self-loop anyway — the reproduction's
    "done carefully" reading of Section 6; see :mod:`repro.ext.vidvars`).
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionVar({self.name!r})"


class VersionId:
    """A version-id-term ``kind(base)`` with ``kind ∈ {ins, del, mod}``.

    ``base`` is itself a version-id-term (an :class:`Oid`, a :class:`Var`, or
    another :class:`VersionId`).  Ground instances are VIDs and denote
    versions of objects; ``mod(henry)`` is the version of ``henry`` after a
    group of modify-updates has been performed on it.
    """

    __slots__ = ("kind", "base", "_hash")

    def __init__(self, kind: UpdateKind, base: "Term") -> None:
        if not isinstance(base, (Oid, Var, VersionId)):
            raise TermError(
                f"the base of a version-id-term must be a term, got "
                f"{type(base).__name__}"
            )
        self.kind = kind
        self.base = base
        self._hash = hash((kind, base))

    def __reduce__(self):
        # Rebuilt through the constructor, as for Oid.
        return (VersionId, (self.kind, self.base))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not VersionId:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.kind is other.kind
            and self.base == other.base
        )

    def __str__(self) -> str:
        return f"{self.kind.value}({self.base})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionId({self.kind.value}, {self.base!r})"


#: Any term of the language: an object-id-term (Oid / Var) or a
#: version-id-term (VersionId over them).
Term = Union[Oid, Var, VersionId]


def is_ground(term: Term) -> bool:
    """True when ``term`` contains no variable."""
    while isinstance(term, VersionId):
        term = term.base
    return isinstance(term, Oid)


def is_object_id_term(term: Term) -> bool:
    """True for object-id-terms: a variable or an OID (no functors)."""
    return isinstance(term, (Oid, Var))


def is_version_id_term(term: Term) -> bool:
    """True for any term of the language (every object-id-term is also a
    version-id-term; so is every application of ins/del/mod)."""
    return isinstance(term, (Oid, Var, VersionId))


def object_of(term: Term) -> Oid:
    """The object an (eventually ground) version-id-term is a version of.

    ``object_of(ins(del(mod(phil)))) == phil``.  Raises :class:`TermError`
    when the innermost term is a variable.
    """
    while isinstance(term, VersionId):
        term = term.base
    if isinstance(term, Oid):
        return term
    raise TermError(f"term {term} has no ground innermost object identity")


def depth(term: Term) -> int:
    """Number of update functors wrapped around the innermost term.

    ``depth(phil) == 0``, ``depth(ins(mod(phil))) == 2``.
    """
    count = 0
    while isinstance(term, VersionId):
        count += 1
        term = term.base
    return count


def kind_chain(term: Term) -> tuple[str, ...]:
    """The update functors wrapped around the innermost term, outermost
    first: ``kind_chain(ins(mod(phil))) == ("ins", "mod")``.

    This is the *shape* of a version-id-term.  Two ground VIDs built by the
    same sequence of update kinds share a shape regardless of the object;
    the semi-naive evaluator's rule dependency index uses shapes to decide
    whether a changed fact can possibly be read by a rule body (a plain
    variable only ever binds an OID, so a pattern host matches exactly the
    hosts of its own shape).
    """
    kinds: list[str] = []
    while isinstance(term, VersionId):
        kinds.append(term.kind.value)
        term = term.base
    return tuple(kinds)


def subterms(term: Term) -> Iterator[Term]:
    """All subterms of a version-id-term, outermost first.

    The paper's notion of subterm for VIDs: the term itself and every term
    obtained by stripping outer functors, e.g. for ``ins(mod(phil))`` the
    subterms are ``ins(mod(phil))``, ``mod(phil)`` and ``phil``.
    """
    while isinstance(term, VersionId):
        yield term
        term = term.base
    yield term


def is_subterm(inner: Term, outer: Term) -> bool:
    """True when ``inner`` is a subterm of ``outer`` (possibly equal)."""
    return any(candidate == inner for candidate in subterms(outer))


def is_proper_subterm(inner: Term, outer: Term) -> bool:
    """True when ``inner`` is a subterm of ``outer`` and differs from it."""
    return inner != outer and is_subterm(inner, outer)


def wrap(kind: UpdateKind, term: Term) -> VersionId:
    """Build the version-id-term ``kind(term)`` — the VID of the version
    created by performing updates of type ``kind`` on version ``term``."""
    return VersionId(kind, term)


def variables_of(term: Term) -> frozenset[Var]:
    """The set of variables occurring in ``term`` (at most one: the
    innermost position, since functors are unary)."""
    while isinstance(term, VersionId):
        term = term.base
    if isinstance(term, Var):
        return frozenset((term,))
    return frozenset()
