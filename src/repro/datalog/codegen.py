"""Plan compilation for the Datalog substrate.

The Datalog matcher shares the architecture of the update-language one — a
statically replayed literal ordering (``_compile_plan``) walked by a generic
interpreter — and it gets the same treatment here: each plannable body is
compiled once into a specialized batch function over slot rows (see
:mod:`repro.core.codegen` for the execution model; the expression and
built-in compilers are reused verbatim).

Scope: *full* matching only.  ``match_datalog_rule`` dispatches here when no
semi-naive delta restriction is in play, and
:class:`~repro.datalog.evaluation.PreparedDatalogQuery` runs its compiled
body on every memo miss.  The delta-bound recursive rounds keep the
interpreted walker: they substitute a different row source per (rule,
position) pair, and the delta is small by construction — the full-database
joins are where the time goes.

Like the interpreter, the compiled body performs **no** duplicate
elimination: two distinct rows always differ in some checked or bound
position, so the multiplicity of the interpreted matcher is preserved
exactly (``PreparedDatalogQuery`` dedups at the answer layer, as before).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.atoms import BuiltinAtom
from repro.core.caches import register_lru_cache
from repro.core.codegen import (
    _builtin_filter,
    _compile_expr,
    _Emitter,
    _tuple_src,
)
from repro.core.exprs import expr_variables
from repro.core.terms import Oid, Var
from repro.datalog.ast import DatalogLiteral

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datalog.database import Database

__all__ = ["CompiledDatalogBody", "compiled_datalog_body"]

Binding = dict[Var, Oid]


class CompiledDatalogBody:
    """A compiled executor for one Datalog body (no deduplication)."""

    __slots__ = ("fn", "slots", "source")

    def __init__(self, fn, slots: tuple[Var, ...], source: str) -> None:
        self.fn = fn
        self.slots = slots
        self.source = source

    def bindings(self, database: "Database") -> list[Binding]:
        slots = self.slots
        return [dict(zip(slots, row)) for row in self.fn(database, [()])]


def _emit_predicate_filter(em, literal, slot_of) -> None:
    atom = literal.atom
    args = _tuple_src(
        [
            f"r[{slot_of[arg]}]" if isinstance(arg, Var) else em.const(arg)
            for arg in atom.args
        ]
    )
    fact = f"({em.const(atom.name, '_N')}, {args})"
    condition = f"has({fact})" if literal.positive else f"not has({fact})"
    em.emit(1, f"rows = [r for r in rows if {condition}]")


def _emit_generate(em, literal, slot_of) -> None:
    atom = literal.atom
    name = em.const(atom.name, "_N")
    arity = len(atom.args)

    # Probe selection mirrors evaluation._generate: the *first* argument
    # position carrying a constant or an already-bound variable wins.
    probe = f"rows_all({name}, {arity})"
    skip_col = None
    probe_row_dependent = False
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Oid):
            probe = f"rows_with({name}, {arity}, {position}, {em.const(arg)})"
            skip_col = position
            break
        if arg in slot_of:
            probe = (
                f"rows_with({name}, {arity}, {position}, r[{slot_of[arg]}])"
            )
            skip_col = position
            probe_row_dependent = True
            break

    def emit_checks(indent: int) -> tuple[dict[Var, str], bool]:
        new_locals: dict[Var, str] = {}
        row_dependent = False
        for position, arg in enumerate(atom.args):
            if position == skip_col:
                continue  # the probe column is exact
            access = f"_t[{position}]"
            if isinstance(arg, Var):
                if arg in new_locals:
                    em.emit(indent, f"if {access} != {new_locals[arg]}:")
                    em.emit(indent + 1, "continue")
                elif arg in slot_of:
                    em.emit(indent, f"if {access} != r[{slot_of[arg]}]:")
                    em.emit(indent + 1, "continue")
                    row_dependent = True
                else:
                    local = em.fresh("_v")
                    em.emit(indent, f"{local} = {access}")
                    new_locals[arg] = local
            else:
                em.emit(indent, f"if {access} != {em.const(arg)}:")
                em.emit(indent + 1, "continue")
        return new_locals, row_dependent

    if not probe_row_dependent:
        # Try the set-at-a-time form first (filter → extend).
        checkpoint = len(em.lines)
        ext = em.fresh("_ext")
        em.emit(1, f"{ext} = []")
        em.emit(1, f"ea = {ext}.append")
        em.emit(1, f"for _t in {probe}:")
        new_locals, row_dependent = emit_checks(2)
        if not row_dependent:
            em.emit(2, f"ea({_tuple_src(list(new_locals.values()))})")
            em.emit(1, f"if not {ext}:")
            em.emit(2, "return []")
            em.emit(1, f"rows = [r + e for r in rows for e in {ext}]")
            for var in new_locals:
                slot_of[var] = len(slot_of)
            return
        del em.lines[checkpoint:]

    em.emit(1, "out = []")
    em.emit(1, "app = out.append")
    em.emit(1, "for r in rows:")
    em.emit(2, f"for _t in {probe}:")
    new_locals, _ = emit_checks(3)
    em.emit(3, f"app(r + {_tuple_src(list(new_locals.values()))})")
    em.emit(1, "rows = out")
    em.emit(1, "if not rows:")
    em.emit(2, "return rows")
    for var in new_locals:
        slot_of[var] = len(slot_of)


@lru_cache(maxsize=4096)
def compiled_datalog_body(
    body: tuple[DatalogLiteral, ...]
) -> CompiledDatalogBody | None:
    """The compiled executor for ``body``; ``None`` for unplannable bodies
    (the dynamic chooser takes over)."""
    from repro.datalog.evaluation import _BINDER, _FILTER, _compile_plan

    plan = _compile_plan(body)
    if plan is None:
        return None
    em = _Emitter("<datalog>")
    slot_of: dict[Var, int] = {}
    em.emit(0, "def _run(database, rows):")
    em.emit(1, "if not rows:")
    em.emit(2, "return rows")
    em.emit(1, "rows_all = database.rows")
    em.emit(1, "rows_with = database.rows_with")
    em.emit(1, "has = database.__contains__")
    for _original_index, literal, action in plan:
        if action == _FILTER:
            if isinstance(literal.atom, BuiltinAtom):
                label = em.const(
                    _builtin_filter(literal.atom, literal.positive, slot_of),
                    "_B",
                )
                em.emit(1, f"rows = [r for r in rows if {label}(r)]")
            else:
                _emit_predicate_filter(em, literal, slot_of)
        elif action == _BINDER:
            atom = literal.atom
            target = source = None
            for candidate, other in (
                (atom.left, atom.right),
                (atom.right, atom.left),
            ):
                if (
                    isinstance(candidate, Var)
                    and candidate not in slot_of
                    and all(v in slot_of for v in expr_variables(other))
                ):
                    target, source = candidate, other
                    break
            assert target is not None
            label = em.const(_compile_expr(source, slot_of), "_E")
            em.emit(1, "out = []")
            em.emit(1, "app = out.append")
            em.emit(1, "for r in rows:")
            em.emit(2, "try:")
            em.emit(3, f"v = {label}(r)")
            em.emit(2, "except BuiltinError:")
            em.emit(3, "continue")
            em.emit(2, "app(r + (v,))")
            em.emit(1, "rows = out")
            slot_of[target] = len(slot_of)
        else:  # _GENERATE
            _emit_generate(em, literal, slot_of)
    em.emit(1, "return rows")
    fn, source_text = em.build("_run")
    slots = tuple(sorted(slot_of, key=slot_of.__getitem__))
    return CompiledDatalogBody(fn, slots, source_text)


register_lru_cache("datalog.codegen", compiled_datalog_body)
