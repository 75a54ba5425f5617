"""Differential property test: compiled execution == naive.

The codegen'd, set-at-a-time executor (:mod:`repro.core.codegen`, the
production path) must be observationally identical to the naive reference
(``semi_naive=False``), which interprets every body with the
dynamic-ordering matcher: same ``result(P)``, same *sets* of fired rule
instances per stratum, same linearity verdicts, same error behaviour.
Randomized programs cover all three update kinds, negation, built-ins,
``del[v].*``, recursion and deep version chains — the same generator the
semi-naive equivalence suite uses — so the compiled closures face every
body shape the planner can produce, including the unplannable ones (where
they must fall back, not diverge).

The Datalog substrate's compiled bodies get the same treatment against its
planned walker on random layered-chain programs.
"""

from hypothesis import given, settings, strategies as st

from repro.core.codegen import compiled_body, match_rule_compiled
from repro.core.errors import ReproError
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.grounding import _body_plan, match_rule_dynamic
from repro.core.plans import rule_plan
from repro.datalog.codegen import compiled_datalog_body
from repro.datalog.evaluation import _compile_plan, _search_planned, evaluate_stratified
from repro.workloads.enterprise import (
    enterprise_update_program,
    hypothetical_program,
    paper_example_program,
)
from repro.workloads.genealogy import ancestors_program
from repro.workloads.synthetic import (
    random_datalog_chain_program,
    random_edge_database,
    random_object_base,
    random_update_program,
)

seeds = st.integers(0, 1_000_000_000)

COMPILED = EvaluationOptions(collect_trace=True)
NAIVE = EvaluationOptions(collect_trace=True, semi_naive=False)


def _base_for(seed: int):
    return random_object_base(
        n_objects=6 + seed % 5,
        facts_per_object=3,
        numeric_ratio=0.6,
        seed=seed,
    )


def _run(program, base, options):
    try:
        return evaluate(program, base, options), None
    except ReproError as error:
        return None, type(error)


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_compiled_equals_interpreted_and_naive(seed):
    """Acceptance property: identical result bases, fired-instance sets,
    linearity verdicts and error types between the compiled path and the
    naive path, which interprets every body (200 examples)."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)

    compiled, compiled_error = _run(program, base, COMPILED)
    naive, naive_error = _run(program, base, NAIVE)

    assert compiled_error == naive_error
    if compiled is None:
        return
    assert compiled.result_base == naive.result_base
    assert compiled.final_versions == naive.final_versions
    assert compiled.iterations == naive.iterations
    assert _fired_sets(compiled.trace) == _fired_sets(naive.trace)


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_fired_count_metrics_agree_across_execution_paths(seed):
    """Observability must not depend on the executor: with metrics on, the
    per-rule ``engine_rule_fired`` counters equal the fired instances the
    trace records for each rule, on the compiled and the naive path alike,
    and both paths fail alike."""
    from repro.obs import metrics

    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)

    def counts(options):
        metrics.registry().reset()
        outcome, error = _run(program, base, options)
        entry = metrics.registry().snapshot().get("engine_rule_fired")
        recorded = dict(entry["series"]) if entry else {}
        traced: dict[str, int] = {}
        if outcome is not None:
            for stratum in outcome.trace.strata:
                for iteration in stratum.iterations:
                    for fired in iteration.fired:
                        key = f"rule={fired.rule_name}"
                        traced[key] = traced.get(key, 0) + 1
        return error, recorded, traced

    metrics.enable_metrics(True)
    try:
        compiled_error, compiled_recorded, compiled_traced = counts(COMPILED)
        naive_error, naive_recorded, naive_traced = counts(NAIVE)
    finally:
        metrics.registry().reset()
        metrics.enable_metrics(None)
    assert compiled_error == naive_error
    if compiled_error is None:
        assert compiled_recorded == compiled_traced
        assert naive_recorded == naive_traced


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compiled_matcher_agrees_with_interpreted_per_rule(seed):
    """Rule-matcher level: the compiled closure's bindings equal the
    interpreted dynamic matcher's as a set for every plannable random rule,
    and the compiled matcher yields no binding twice (the dedup contract:
    keys only when more than one generator)."""
    program = random_update_program(seed=seed, allow_nonlinear=True)
    base = _base_for(seed)
    for rule in program:
        compiled = match_rule_compiled(rule, base)
        if compiled is None:
            assert rule_plan(rule).full_plan is None
            continue
        fast = {frozenset(b.items()) for b in compiled}
        assert len(fast) == len(compiled), f"rule {rule.name}: duplicates"
        slow = {frozenset(b.items()) for b in match_rule_dynamic(rule, base)}
        assert fast == slow, f"rule {rule.name}: {fast} != {slow}"


def _assert_seed_plans_exist(program):
    for rule in program:
        plans = rule_plan(rule)
        if plans.full_plan is None:
            continue
        for position, *_ in plans.signature.seeds:
            assert plans.seed_plan(position) is not None, (
                f"rule {rule.name}: full plan but no seed plan at {position}"
            )


@settings(max_examples=200, deadline=None)
@given(seeds)
def test_plannable_rules_have_every_seed_plan(seed):
    """Whenever a rule has a full plan, every seed literal's plan exists
    too (binding more variables up front never strands the static
    chooser).  This is why ``tp_step`` may match a SEED-classified rule in
    full when a seeded entry is missing: the case does not arise for
    plannable rules."""
    _assert_seed_plans_exist(random_update_program(seed=seed, allow_nonlinear=True))


def test_paper_workload_rules_have_every_seed_plan():
    for program in (
        paper_example_program(),
        hypothetical_program(),
        enterprise_update_program(hpe_threshold=4000),
        ancestors_program(),
    ):
        _assert_seed_plans_exist(program)


@settings(max_examples=100, deadline=None)
@given(seeds)
def test_compiled_body_slots_cover_plan_key_vars(seed):
    """Structural invariant behind the dedup contract: a compiled body's
    slot layout covers exactly the plan's ``key_vars`` (all body variables
    in ``var_sort_key`` order), and its dedup-key slots read them back in
    that exact order."""
    from repro.core.plans import var_sort_key

    program = random_update_program(seed=seed, allow_nonlinear=True)
    for rule in program:
        body = compiled_body(tuple(rule.body))
        if body is None:
            continue
        plan = _body_plan(tuple(rule.body))
        assert tuple(body.slots[i] for i in body.key_slots) == plan.key_vars
        assert tuple(sorted(body.slots, key=var_sort_key)) == plan.key_vars
        assert body.generator_count == plan.generator_count


@settings(max_examples=80, deadline=None)
@given(seeds, st.booleans())
def test_datalog_compiled_equals_interpreted(seed, negated_tail):
    """The Datalog substrate: per rule, the compiled body yields the same
    bindings (with the same multiplicity) as the planned walker, and whole
    evaluations agree across both fixpoint flavours on random layered-chain
    programs over random graphs."""
    program = random_datalog_chain_program(
        n_idb=2 + seed % 3, negated_tail=negated_tail, seed=seed
    )
    edb = random_edge_database(
        n_nodes=8 + seed % 8, n_edges=16 + seed % 16, seed=seed
    )
    database = evaluate_stratified(program, edb)
    for rule in program:
        compiled = compiled_datalog_body(rule.body)
        plan = _compile_plan(rule.body)
        if compiled is None:
            assert plan is None
            continue
        walked = _search_planned(plan, 0, {}, database, None, None)
        assert sorted(map(_key, compiled.bindings(database))) == sorted(
            map(_key, walked)
        )
    assert database == evaluate_stratified(program, edb, seminaive=False)


def _key(binding):
    return tuple(sorted((var.name, str(value)) for var, value in binding.items()))
