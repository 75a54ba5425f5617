"""Unit tests for the codegen'd, set-at-a-time join executor.

The differential property suite (``tests/property/test_codegen_equiv.py``)
establishes compiled == naive on randomized programs, where the naive path
runs the interpreted dynamic-ordering matcher; these tests pin the
deterministic contracts — slot layout and dedup keys against
``var_sort_key``, the paper workloads end to end, the prepared-query fast
path, and the cache-registry surface.
"""

from repro.core.caches import cache_stats
from repro.core.codegen import compiled_body, compiled_rule, match_rule_compiled
from repro.core.evaluation import EvaluationOptions, evaluate
from repro.core.grounding import _body_plan, match_body_dynamic, match_rule_dynamic
from repro.core.plans import rule_plan, var_sort_key
from repro.core.query import PreparedQuery
from repro.lang.parser import parse_body
from repro.workloads.enterprise import (
    enterprise_base,
    enterprise_update_program,
    hypothetical_base,
    hypothetical_program,
    paper_example_base,
    paper_example_program,
)


def _fired_sets(trace):
    return [
        {(f.rule_name, str(f.head), f.binding) for i in s.iterations for f in i.fired}
        for s in trace.strata
    ]


def _workloads():
    return [
        (paper_example_program(), paper_example_base()),
        (paper_example_program(), paper_example_base(bob_salary=4100)),
        (hypothetical_program(), hypothetical_base()),
        (
            enterprise_update_program(hpe_threshold=4000),
            enterprise_base(n_employees=40, overpaid_ratio=0.2, seed=7),
        ),
    ]


# ----------------------------------------------------------------------
# end-to-end parity on the paper workloads
# ----------------------------------------------------------------------


def test_compiled_execution_matches_interpreted_on_paper_workloads():
    """Full evaluations (multi-stratum, update atoms in bodies, negation,
    seeded delta iterations) agree between the compiled path and the naive
    path, which interprets every body with the dynamic matcher: result
    base, fired-instance sets, linearity verdicts."""
    options_compiled = EvaluationOptions(collect_trace=True)
    options_naive = EvaluationOptions(collect_trace=True, semi_naive=False)
    for program, base in _workloads():
        fast = evaluate(program, base, options_compiled)
        slow = evaluate(program, base, options_naive)
        assert fast.result_base == slow.result_base
        assert fast.final_versions == slow.final_versions
        assert fast.iterations == slow.iterations
        assert _fired_sets(fast.trace) == _fired_sets(slow.trace)


def test_compiled_matcher_matches_interpreted_per_rule():
    """Per rule, the compiled bindings equal the dynamic matcher's as a
    set, and the compiled matcher yields no binding twice."""
    for program, base in _workloads():
        for rule in program:
            compiled = match_rule_compiled(rule, base)
            if compiled is None:
                assert rule_plan(rule).full_plan is None
                continue
            fast = {frozenset(b.items()) for b in compiled}
            assert len(fast) == len(compiled)
            assert fast == {
                frozenset(b.items()) for b in match_rule_dynamic(rule, base)
            }


# ----------------------------------------------------------------------
# slot layout and dedup keys
# ----------------------------------------------------------------------


def test_slot_layout_and_dedup_keys_agree_with_var_sort_key():
    """The dedup contract: a compiled body's key slots read back exactly
    the plan's ``key_vars`` — every body variable in ``var_sort_key``
    order — and the slot tuple is a permutation of them."""
    for program, _base in _workloads():
        for rule in program:
            body = compiled_body(tuple(rule.body))
            if body is None:
                continue
            plan = _body_plan(tuple(rule.body))
            assert tuple(body.slots[i] for i in body.key_slots) == plan.key_vars
            assert tuple(sorted(body.slots, key=var_sort_key)) == plan.key_vars
            assert body.generator_count == plan.generator_count


def test_key_getter_small_arities():
    """The 0-ary and 1-ary dedup-key special cases (plain ``itemgetter``
    would return a scalar for one slot and is unavailable for zero)."""
    base = paper_example_base()

    ground = compiled_body(parse_body("phil.isa -> empl"))
    assert ground is not None
    assert ground.key_slots == ()
    assert ground.key_getter(()) == ()
    assert ground.bindings(base) == [{}]

    single = compiled_body(parse_body("E.isa -> empl"))
    assert single is not None
    assert len(single.key_slots) == 1
    row = next(iter(single.fn(base, [()])))
    assert single.key_getter(row) == (row[single.key_slots[0]],)
    assert len(single.bindings(base)) == 2  # phil and bob


def test_compiled_body_is_cached():
    body = parse_body("E.isa -> empl, E.sal -> S")
    assert compiled_body(body) is compiled_body(tuple(body))


# ----------------------------------------------------------------------
# the prepared-query fast path
# ----------------------------------------------------------------------


def test_prepared_query_uses_compiled_executor():
    query = PreparedQuery(parse_body("E.isa -> empl, E.sal -> S"))
    assert query.compiled is not None
    base = enterprise_base(n_employees=30, overpaid_ratio=0.1, seed=3)
    assert query.run(base) == query.run_unplanned(base)


def test_match_body_prefers_compiled_and_agrees():
    from repro.core.grounding import match_body

    body = parse_body("E.isa -> empl, E.boss -> B, E.sal -> SE, B.sal -> SB, SE > SB")
    base = enterprise_base(n_employees=30, overpaid_ratio=0.3, seed=3)
    via_match_body = {frozenset(b.items()) for b in match_body(body, base)}
    dynamic = {frozenset(b.items()) for b in match_body_dynamic(body, base)}
    assert via_match_body == dynamic


# ----------------------------------------------------------------------
# the cache-registry surface
# ----------------------------------------------------------------------


def test_codegen_caches_registered():
    compiled_rule(paper_example_program().rules[0])  # ensure at least one entry
    stats = cache_stats()
    for name in ("codegen.rule", "codegen.body", "codegen.backend"):
        assert name in stats, f"{name} missing from cache_stats()"
    assert stats["codegen.rule"]["size"] >= 1
    backend = stats["codegen.backend"]
    assert backend["bodies_compiled"] >= 1
    assert {"seed_matchers_compiled", "batch_steps", "loop_steps"} <= set(backend)


def test_datalog_codegen_cache_registered():
    from repro.datalog.codegen import compiled_datalog_body
    from repro.workloads.synthetic import random_datalog_chain_program

    rule = random_datalog_chain_program(n_idb=1).rules[0]
    assert compiled_datalog_body(rule.body) is not None
    assert "datalog.codegen" in cache_stats()


def test_generated_source_is_inspectable():
    body = compiled_body(parse_body("E.isa -> empl, E.sal -> S"))
    assert body is not None
    assert "def _run(base, rows):" in body.source
