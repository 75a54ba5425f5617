"""The rule matcher: enumerate the satisfying ground instances of a rule.

This is the join engine behind step 1 of the ``T_P`` operator.  Given a rule
and an object base it enumerates every substitution (variables to OIDs) that
makes all body literals true.

Strategy — a backtracking search over a literal ordering:

1. literals that are already ground act as *filters* and are checked first
   (cheapest pruning);
2. a positive built-in ``X = e`` whose right-hand side is computable acts as
   a *binder*;
3. otherwise a positive version-term or update-term with the most bound
   positions acts as a *generator*, drawing candidate facts from the object
   base indexes;
4. negated literals and comparisons wait until they are ground.

The ordering decisions depend only on which variables are bound, so they are
precompiled once per body into a :class:`~repro.core.plans.JoinPlan`, and
:func:`match_rule` / :func:`match_body` run that plan as generated code
(:mod:`repro.core.codegen`).  The original per-node dynamic chooser is kept
as :func:`match_rule_dynamic` — the executor for bodies the planner cannot
order statically, and the reference oracle the compiled path is
differentially tested against.  The generators and ground-literal checks
below are shared by both: the compiled update-term steps bridge into them.

Every complete assignment is re-verified against the authoritative truth
functions of :mod:`repro.core.truth`, so the index-driven generators and the
precompiled plans can only affect speed, never semantics.  A brute-force
reference matcher that enumerates the active domain is provided for
differential testing.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from repro.core.atoms import BuiltinAtom, Literal, UpdateAtom, VersionAtom
from repro.core.caches import register_lru_cache
from repro.core.errors import BuiltinError, EvaluationError
from repro.core.exprs import evaluate_expr, expr_variables
from repro.core.facts import Fact
from repro.core.objectbase import ObjectBase
from repro.core.plans import JoinPlan, compile_plan
from repro.core.rules import UpdateRule
from repro.core.terms import (
    Oid,
    Term,
    UpdateKind,
    Var,
    VersionId,
    is_ground,
)
from repro.core.truth import literal_true
from repro.unify.substitution import apply_term
from repro.unify.unification import match_term

__all__ = [
    "match_rule",
    "match_body",
    "match_rule_dynamic",
    "match_rule_bruteforce",
]

Binding = dict[Var, Oid]


def match_rule(rule: UpdateRule, base: ObjectBase) -> Iterator[Binding]:
    """Yield every substitution making the body of ``rule`` true in ``base``.

    Substitutions are restricted to the rule's variables and yielded at most
    once each.  Built-in type errors (e.g. arithmetic on a symbolic OID)
    fail the candidate instead of raising (DESIGN.md D6).

    Runs the rule's compiled plan (:mod:`repro.core.codegen`, imported
    lazily: it sits above this module), or the dynamic matcher when the
    body has no plan.  Yielded dicts are fresh per answer.
    """
    from repro.core.codegen import match_rule_compiled

    bindings = match_rule_compiled(rule, base)
    if bindings is None:
        return match_rule_dynamic(rule, base)
    return iter(bindings)


@lru_cache(maxsize=4096)
def _body_plan(body: tuple[Literal, ...]) -> JoinPlan | None:
    return compile_plan(body)


register_lru_cache("grounding.body_plan", _body_plan)


def match_body(
    body: tuple[Literal, ...],
    base: ObjectBase,
    *,
    rule_name: str = "<body>",
) -> Iterator[Binding]:
    """Like :func:`match_rule` for a bare body (used by the query API)."""
    from repro.core.codegen import compiled_body

    body = tuple(body)
    compiled = compiled_body(body)
    if compiled is None:
        return match_body_dynamic(body, base, rule_name=rule_name)
    return iter(compiled.bindings(base))


# ----------------------------------------------------------------------
# dynamic reference matcher (fallback + differential baseline)
# ----------------------------------------------------------------------


#: A body literal paired with its (precomputed) variable set — computing
#: ``atom.variables`` per search step dominated the matcher's profile.
_AnnotatedLiteral = tuple[Literal, frozenset[Var]]


def match_rule_dynamic(rule: UpdateRule, base: ObjectBase) -> Iterator[Binding]:
    """The original per-node dynamic-ordering matcher (the naive reference
    path, ``EvaluationOptions(semi_naive=False)``)."""
    return match_body_dynamic(rule.body, base, rule_name=rule.name)


def match_body_dynamic(
    body: tuple[Literal, ...],
    base: ObjectBase,
    *,
    rule_name: str = "<body>",
) -> Iterator[Binding]:
    seen: set[frozenset] = set()
    annotated = [(literal, literal.variables) for literal in body]
    for binding in _search(annotated, {}, base, rule_name):
        key = frozenset(binding.items())
        if key not in seen:
            seen.add(key)
            yield dict(binding)


def _search(
    remaining: list[_AnnotatedLiteral],
    binding: Binding,
    base: ObjectBase,
    rule_name: str,
) -> Iterator[Binding]:
    if not remaining:
        yield binding
        return

    index = _choose_literal(remaining, binding, base)
    if index is None:
        raise EvaluationError(
            f"rule {rule_name!r}: no literal is evaluable under the current "
            f"binding — the rule is unsafe (this should have been caught by "
            f"the safety check)"
        )
    literal, variables = remaining[index]
    rest = remaining[:index] + remaining[index + 1 :]

    if _is_ground_under(variables, binding):
        if _check_ground(literal, binding, base):
            yield from _search(rest, binding, base, rule_name)
        return

    atom = literal.atom
    if isinstance(atom, BuiltinAtom):
        extension = _bind_equality(atom, binding)
        if extension is not None:
            yield from _search(rest, extension, base, rule_name)
        return

    for extension in _generate(literal, binding, base):
        # Re-verify the now-ground literal with the authoritative semantics.
        if _check_ground(literal, extension, base):
            yield from _search(rest, extension, base, rule_name)


# ----------------------------------------------------------------------
# literal selection
# ----------------------------------------------------------------------


def _is_ground_under(variables: frozenset[Var], binding: Binding) -> bool:
    return all(v in binding for v in variables)


def _choose_literal(
    remaining: list[_AnnotatedLiteral], binding: Binding, base: ObjectBase
) -> int | None:
    """Pick the next literal: filters, then binders, then the most
    constrained generator.  Returns ``None`` when stuck (unsafe rule)."""
    best_generator: int | None = None
    best_score = float("-inf")
    for i, (literal, variables) in enumerate(remaining):
        if _is_ground_under(variables, binding):
            return i  # a filter: evaluate immediately
        atom = literal.atom
        if isinstance(atom, BuiltinAtom):
            if literal.positive and atom.op == "=" and _equality_ready(atom, binding):
                return i  # a binder
            continue  # comparisons wait until ground
        if not literal.positive:
            continue  # negations wait until ground
        score = _generator_score(atom, variables, binding)
        if score > best_score:
            best_score = score
            best_generator = i
    return best_generator


def _equality_ready(atom: BuiltinAtom, binding: Binding) -> bool:
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in binding
            and all(v in binding for v in expr_variables(source))
        ):
            return True
    return False


def _generator_score(atom, variables: frozenset[Var], binding: Binding) -> int:
    """Heuristic: prefer generators with more already-bound variables and
    with a ground host (host-indexed lookup beats a method scan)."""
    bound = sum(1 for v in variables if v in binding)
    host = atom.host if isinstance(atom, VersionAtom) else atom.target
    host_ground = all(v in binding for v in _term_vars(host))
    kind_penalty = 0
    if isinstance(atom, UpdateAtom):
        kind_penalty = 1  # update-term generators scan the version map
    return bound * 4 + (2 if host_ground else 0) - kind_penalty


def _term_vars(term: Term):
    while isinstance(term, VersionId):
        term = term.base
    return (term,) if isinstance(term, Var) else ()


# ----------------------------------------------------------------------
# evaluation of ground literals
# ----------------------------------------------------------------------


def _check_ground(literal: Literal, binding: Binding, base: ObjectBase) -> bool:
    atom = literal.atom
    if isinstance(atom, VersionAtom):
        # Hot path: definition 1 of Section 3 is plain fact membership, so
        # build the fact directly instead of substituting the atom (the
        # constructor validation dominated the matcher profile).  The
        # authoritative form lives in truth.version_atom_true.
        pattern = atom.host
        if type(pattern) is Var:
            host = binding.get(pattern, pattern)
        else:
            host = apply_term(pattern, binding)
        args = tuple(
            binding[a] if isinstance(a, Var) else a for a in atom.args
        )
        result = binding[atom.result] if isinstance(atom.result, Var) else atom.result
        present = Fact(host, atom.method, args, result) in base
        return present if literal.positive else not present
    try:
        return literal_true(base, literal.substitute(binding))
    except BuiltinError:
        # Type-mismatched built-ins fail the candidate regardless of
        # polarity (DESIGN.md D6) instead of aborting the evaluation.
        return False


def _bind_equality(atom: BuiltinAtom, binding: Binding) -> Binding | None:
    """Bind the unbound side of ``X = e``; ``None`` when the candidate dies."""
    for target, source in ((atom.left, atom.right), (atom.right, atom.left)):
        if (
            isinstance(target, Var)
            and target not in binding
            and all(v in binding for v in expr_variables(source))
        ):
            try:
                value = evaluate_expr(source, binding)
            except BuiltinError:
                return None
            extension = dict(binding)
            extension[target] = value
            return extension
    return None  # not actually ready; should not happen


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def _generate(
    literal: Literal,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    atom = literal.atom
    if isinstance(atom, VersionAtom):
        yield from _generate_version_atom(atom, binding, base, index_cols)
    elif isinstance(atom, UpdateAtom):
        yield from _generate_update_atom(atom, binding, base, index_cols)
    else:  # pragma: no cover - selection never sends builtins here
        raise EvaluationError(f"cannot generate bindings from {atom}")


def _match_application(
    atom_args: tuple[Term, ...],
    atom_result: Term | None,
    fact: Fact,
    binding: Binding,
) -> Binding | None:
    """Match argument and result patterns of an atom against a fact."""
    work = binding
    for pattern, value in zip(atom_args, fact.args):
        work = _match_position(pattern, value, work)
        if work is None:
            return None
    if atom_result is not None:
        work = _match_position(atom_result, fact.result, work)
    return work


def _match_position(pattern: Term, value: Oid, binding: Binding) -> Binding | None:
    if isinstance(pattern, Var):
        bound = binding.get(pattern)
        if bound is None:
            extension = dict(binding)
            extension[pattern] = value
            return extension
        return binding if bound == value else None
    return binding if pattern == value else None


def _host_candidates(
    pattern: Term,
    binding: Binding,
    method: str,
    arity: int,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
    atom=None,
):
    """Facts possibly matching ``pattern.method@...`` under ``binding``.

    Access-path order: the ``(host, method)`` index when the host is bound;
    otherwise the smallest argument/result-column bucket among the
    plan-selected ``index_cols`` (see
    :class:`~repro.core.plans.PlanStep.index_cols`); a full
    ``(method, arity)`` scan only when nothing is bound.  Returns the live
    index sets (no defensive copy — the matcher never mutates the base
    while a search is in flight)."""
    if type(pattern) is Var:
        # Matcher bindings map plain variables straight to ground OIDs, so
        # the generic term rewriting can be skipped on the hottest shape.
        concrete = binding.get(pattern)
        if concrete is not None:
            return base.iter_facts_by_host_method(concrete, method, arity)
    else:
        concrete = apply_term(pattern, binding)
        if is_ground(concrete):
            return base.iter_facts_by_host_method(concrete, method, arity)
    if index_cols and atom is not None:
        best = None
        for column in index_cols:
            term = atom.result if column < 0 else atom.args[column]
            value = binding.get(term) if type(term) is Var else term
            if value is None:
                continue  # dynamic callers may pass partially bound columns
            bucket = base.iter_facts_by_arg(method, arity, column, value)
            if not bucket:
                # A bound column with an empty bucket rules out every
                # candidate: the generator can prune the whole branch.
                return ()
            if best is None or len(bucket) < len(best):
                best = bucket
        if best is not None:
            return best
    return base.iter_facts_by_method(method, arity)


def _generate_version_atom(
    atom: VersionAtom,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    candidates = _host_candidates(
        atom.host, binding, atom.method, len(atom.args), base, index_cols, atom
    )
    for fact in candidates:
        host_binding = match_term(atom.host, fact.host, binding)
        if host_binding is None:
            continue
        full = _match_application(atom.args, atom.result, fact, host_binding)
        if full is not None:
            yield full


def _generate_update_atom(
    atom: UpdateAtom,
    binding: Binding,
    base: ObjectBase,
    index_cols: tuple[int, ...] = (),
) -> Iterator[Binding]:
    """Generate candidate bindings for a positive body update-term.

    The truth conditions of Section 3 (definition 3) guide the access paths;
    the caller re-verifies each candidate, so these only need to be complete,
    not exact.
    """
    assert atom.method is not None and atom.result is not None
    arity = len(atom.args)

    if atom.kind is UpdateKind.INSERT:
        # true iff ins(v).m -> r ∈ I: a plain indexed lookup.
        new_pattern = atom.new_version()
        for fact in _host_candidates(
            new_pattern, binding, atom.method, arity, base, index_cols, atom
        ):
            host_binding = match_term(new_pattern, fact.host, binding)
            if host_binding is None:
                continue
            full = _match_application(atom.args, atom.result, fact, host_binding)
            if full is not None:
                yield full
        return

    # del / mod: the transition target must be an *existing* version
    # kind(v); enumerate those from the exists map, then read the old value
    # from v* and (for mod) the new value from the new version's state.
    # When the transition host is already bound the exists map has exactly
    # one candidate — probe it directly instead of scanning every version
    # (the same fast path the INSERT branch gets from its host index).
    new_pattern = atom.new_version()
    concrete = apply_term(new_pattern, binding)
    if is_ground(concrete):
        versions: Iterable[Term] = (
            (concrete,) if base.version_exists(concrete) else ()
        )
    else:
        versions = base.iter_existing_versions()
    for version in versions:
        host_binding = match_term(new_pattern, version, binding)
        if host_binding is None:
            continue
        target = apply_term(atom.target, host_binding)
        v_star = base.v_star(target)
        if v_star is None:
            continue
        for old_fact in base.iter_facts_by_host_method(v_star, atom.method, arity):
            old_binding = _match_application(
                atom.args, atom.result, old_fact, host_binding
            )
            if old_binding is None:
                continue
            if atom.kind is UpdateKind.DELETE:
                yield old_binding
                continue
            # MODIFY: bind the new value from the state of mod(v).
            assert atom.result2 is not None
            result2 = (
                old_binding.get(atom.result2)
                if isinstance(atom.result2, Var)
                else atom.result2
            )
            if result2 is not None:
                yield old_binding  # result2 already pinned; verification decides
                continue
            for new_fact in base.iter_facts_by_host_method(version, atom.method, arity):
                if new_fact.args != old_fact.args:
                    continue
                extension = _match_position(atom.result2, new_fact.result, old_binding)
                if extension is not None:
                    yield extension


# ----------------------------------------------------------------------
# brute-force reference (differential testing)
# ----------------------------------------------------------------------


def match_rule_bruteforce(rule: UpdateRule, base: ObjectBase) -> list[Binding]:
    """Enumerate the active domain — the paper's "∀-quantified over O" read
    literally.  Exponential; only for differential tests on small bases.

    The active domain is the OIDs of the base plus the OIDs mentioned by the
    rule itself.  For rules whose built-ins *compute* new values (``S' = S *
    1.1``), equation binding is applied on top of domain enumeration for the
    remaining variables.
    """
    domain = set(base.oid_universe())
    domain |= _rule_constants(rule)

    # Variables bindable only through '=' must not be domain-enumerated.
    computed = _computed_variables(rule)
    enumerated = sorted(rule.variables - computed, key=lambda v: v.name)
    results: list[Binding] = []
    for values in product(sorted(domain, key=str), repeat=len(enumerated)):
        binding: Binding = dict(zip(enumerated, values))
        full = _solve_computed(rule, binding)
        if full is None:
            continue
        if all(_check_ground(lit, full, base) for lit in rule.body):
            results.append(full)
    return results


def _rule_constants(rule: UpdateRule) -> set[Oid]:
    constants: set[Oid] = set()

    def walk_term(term: Term) -> None:
        while isinstance(term, VersionId):
            term = term.base
        if isinstance(term, Oid):
            constants.add(term)

    def walk_expr(expr) -> None:
        from repro.core.exprs import BinOp, Neg

        if isinstance(expr, Oid):
            constants.add(expr)
        elif isinstance(expr, BinOp):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, Neg):
            walk_expr(expr.operand)

    atoms = [lit.atom for lit in rule.body] + [rule.head]
    for atom in atoms:
        if isinstance(atom, VersionAtom):
            walk_term(atom.host)
            for arg in atom.args:
                walk_term(arg)
            walk_term(atom.result)
        elif isinstance(atom, UpdateAtom):
            walk_term(atom.target)
            for arg in atom.args:
                walk_term(arg)
            if atom.result is not None:
                walk_term(atom.result)
            if atom.result2 is not None:
                walk_term(atom.result2)
        elif isinstance(atom, BuiltinAtom):
            walk_expr(atom.left)
            walk_expr(atom.right)
    return constants


def _computed_variables(rule: UpdateRule) -> frozenset[Var]:
    """Variables that only '=' built-ins can bind (not in any positive
    version-/update-term)."""
    from_facts: set[Var] = set()
    for literal in rule.body:
        if literal.positive and isinstance(literal.atom, (VersionAtom, UpdateAtom)):
            from_facts |= literal.atom.variables
    return frozenset(rule.variables - from_facts)


def _solve_computed(rule: UpdateRule, binding: Binding) -> Binding | None:
    """Bind computed variables through '=' chains; None if impossible."""
    work = dict(binding)
    pending = [
        lit.atom
        for lit in rule.body
        if lit.positive
        and isinstance(lit.atom, BuiltinAtom)
        and lit.atom.op == "="
    ]
    progress = True
    while pending and progress:
        progress = False
        for eq in list(pending):
            extension = _bind_equality(eq, work)
            if extension is not None and extension != work:
                work = extension
                pending.remove(eq)
                progress = True
            elif all(v in work for v in eq.variables):
                pending.remove(eq)
                progress = True
    if any(v not in work for v in rule.variables):
        return None
    return work
