"""Ground version-terms ("facts") — the elements of an object base.

A ground version-term ``v.m@a1,...,ak -> r`` states that applying method
``m`` with arguments ``a1,...,ak`` to version ``v`` yields result ``r``
(Section 2.1).  An *object base* is a set of such facts; the *state* of a
version is the set of its method-applications in the base.

Facts live in sets and hash indexes and are created in very large numbers
during bottom-up evaluation, so a lightweight representation matters.  The
hash is computed once at construction (hashing a fact recurses through its
host's version-id chain, and every set operation would otherwise redo that
walk) and equality compares the cheap discriminating fields first.  Facts
are immutable by convention: never assign to their attributes.
"""

from __future__ import annotations

from sys import intern as _intern

from repro.core.errors import TermError
from repro.core.terms import Oid, Term, is_ground, object_of

__all__ = ["EXISTS", "Fact", "make_fact", "exists_fact", "method_key"]

#: Name of the system method of Section 3: ``o.exists -> o`` survives every
#: delete, so a fully-deleted version still records which object it belongs
#: to.  ``exists`` may never occur in a rule head.
EXISTS = "exists"


class Fact:
    """A ground version-term ``host.method@args -> result``.

    Attributes
    ----------
    host:
        The VID the method is applied to (an :class:`~repro.core.terms.Oid`
        or a ground :class:`~repro.core.terms.VersionId`).
    method:
        The method name.
    args:
        The argument OIDs (empty tuple for 0-ary methods).
    result:
        The result OID.  Only object-id-terms are allowed on argument and
        result positions (footnote 1 of the paper): relationships are stable,
        versions are update-process-local.
    """

    __slots__ = ("host", "method", "args", "result", "_hash")

    def __init__(
        self, host: Term, method: str, args: tuple[Oid, ...], result: Oid
    ) -> None:
        self.host = host
        # Interned method names turn the ``==`` in every index probe and in
        # __eq__ below into a pointer comparison.
        self.method = _intern(method)
        self.args = args
        self.result = result
        self._hash = hash((host, method, args, result))

    def __reduce__(self):
        # Rebuild through the constructor: a pickled ``_hash`` is only valid
        # under the hash seed of the process that computed it.
        return (Fact, (self.host, self.method, self.args, self.result))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Fact):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.method == other.method
            and self.result == other.result
            and self.args == other.args
            and self.host == other.host
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Fact({self.host!r}, {self.method!r}, "
            f"{self.args!r}, {self.result!r})"
        )

    def __str__(self) -> str:
        arg_str = f"@{','.join(str(a) for a in self.args)}" if self.args else ""
        return f"{self.host}.{self.method}{arg_str} -> {self.result}"

    @property
    def application(self) -> tuple[str, tuple[Oid, ...], Oid]:
        """The method-application part ``(method, args, result)`` — the
        host-independent payload copied from version to version."""
        return (self.method, self.args, self.result)


def make_fact(host: Term, method: str, args: tuple[Oid, ...], result: Oid) -> Fact:
    """Validated :class:`Fact` constructor.

    Ensures the fact is ground and that argument/result positions carry OIDs
    only.  Use this at API boundaries; internal hot paths build the named
    tuple directly from already-validated parts.
    """
    if not is_ground(host):
        raise TermError(f"fact host must be ground, got {host}")
    if not isinstance(result, Oid):
        raise TermError(
            f"method results must be OIDs (footnote 1), got {result!r}"
        )
    for arg in args:
        if not isinstance(arg, Oid):
            raise TermError(
                f"method arguments must be OIDs (footnote 1), got {arg!r}"
            )
    if not method:
        raise TermError("method name must be non-empty")
    return Fact(host, method, tuple(args), result)


def exists_fact(version: Term) -> Fact:
    """The ``exists`` bookkeeping fact for ``version``.

    For a base object ``o`` this is ``o.exists -> o``; for a derived version
    ``v`` of ``o`` the copied fact reads ``v.exists -> o`` — the result always
    names the underlying object.
    """
    return Fact(version, EXISTS, (), object_of(version))


def method_key(method: str, arity: int) -> tuple[str, int]:
    """Index key grouping facts by method name and argument count."""
    return (method, arity)
