"""Seeded inputs for the three workloads.

Everything the program under test receives is generated here: the object
bases, the update-program texts and the query texts.  The bases are the
library's deterministic generators at their default seeds, the same on
every run; the workload seed picks the ops (employees, amounts, teams,
queries and their order).  The salary model that the correctness checks
compare against is kept by the generators themselves, so it never comes
from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lang.pretty import format_program
from repro.workloads import enterprise_base, enterprise_update_program
from repro.workloads.genealogy import ancestors_program, genealogy_base
from repro.workloads.synthetic import random_object_base, version_chain_program

#: Employees in the enterprise base of every workload (about 6.3k facts).
N_EMPLOYEES = 1500

#: Subscriptions that ``live-read`` opens, one per manager's team.
SUBSCRIBED_TEAMS = 8

#: Hot analytical queries of ``live-read``.  The first and third are
#: invalidated by every raise; the second reads no salary, so its memo is
#: carried across raises.
HOT_QUERIES = (
    "E.boss -> B, E.sal -> SE, B.sal -> SB, SE > SB",
    "E.boss -> B, B.boss -> C, C.pos -> mgr",
    "E.pos -> mgr, E.sal -> S",
)

#: One block of ``live-read`` ops, shuffled by the seed: 10% raises, the
#: reads split evenly between hot queries (by index into
#: :data:`HOT_QUERIES`) and point lookups.  Fixed counts per block keep
#: the mix, and so the run's cost, the same on every seed.
LIVE_BLOCK = ("raise",) * 2 + (0, 1, 2) * 3 + ("point",) * 9

#: The full salary scan of the final ``point-commit`` check.
SALARY_SCAN = "E.sal -> S"


def raise_text(employee: str, amount: int) -> str:
    """A two-fact targeted raise: one program text per employee and amount."""
    return (
        f"raise: mod[{employee}].sal -> (S, S2) <= "
        f"{employee}.sal -> S, S2 = S + {amount}."
    )


def point_query(employee: str) -> str:
    return f"{employee}.sal -> S"


def team_query(manager: str) -> str:
    return f"E.boss -> {manager}, E.sal -> S"


@dataclass(frozen=True)
class Op:
    """One client operation.

    ``kind`` is ``commit`` (raise, then read it back), ``raise`` (raise a
    subscribed team member), ``hot`` (analytical query) or ``point``
    (one employee's salary).  ``salary`` is the model salary the op must
    observe: after the raise for writes, the current one for point reads.
    """

    kind: str
    text: str
    employee: str = ""
    salary: int = 0
    old_salary: int = 0
    team: int = -1


class Enterprise:
    """The enterprise base and the salary model over it."""

    def __init__(self) -> None:
        self.base = enterprise_base(n_employees=N_EMPLOYEES).freeze()
        self.salaries: dict[str, int] = {}
        self.boss: dict[str, str] = {}
        for fact in self.base:
            if fact.method == "sal":
                self.salaries[fact.host.value] = fact.result.value
            elif fact.method == "boss":
                self.boss[fact.host.value] = fact.result.value
        self.staff = sorted(
            (name for name in self.salaries if name.startswith("emp")),
            key=lambda name: int(name[3:]),
        )


class PointCommitOps:
    """``point-commit``: raise a random staff member, then read it back."""

    block_size = 1

    def __init__(self, enterprise: Enterprise, seed: int, cycle: int = 0) -> None:
        self._rng = random.Random(f"point-commit:{seed}:{cycle}")
        self._staff = enterprise.staff
        self.model = dict(enterprise.salaries)

    def __next__(self) -> Op:
        employee = self._rng.choice(self._staff)
        amount = self._rng.randint(1, 99)
        old = self.model[employee]
        self.model[employee] = old + amount
        return Op("commit", raise_text(employee, amount), employee, old + amount, old)

    def __iter__(self):
        return self


class LiveReadOps:
    """``live-read``: mostly reads, plus raises of subscribed team members.

    The teams are eight managers with at least three direct reports, chosen
    by the seed.  A raise changes one member's salary, so exactly one of the
    eight subscriptions must receive a delta.
    """

    block_size = len(LIVE_BLOCK)

    def __init__(self, enterprise: Enterprise, seed: int, cycle: int = 0) -> None:
        self._rng = random.Random(f"live-read:{seed}:{cycle}")
        self._staff = enterprise.staff
        self.model = dict(enterprise.salaries)
        reports: dict[str, list[str]] = {}
        for employee, manager in enterprise.boss.items():
            reports.setdefault(manager, []).append(employee)
        candidates = sorted(m for m, team in reports.items() if len(team) >= 3)
        self.managers = self._rng.sample(candidates, SUBSCRIBED_TEAMS)
        self.members = [sorted(reports[m]) for m in self.managers]
        self.team_queries = [team_query(m) for m in self.managers]
        self._block: list = []

    def __next__(self) -> Op:
        if not self._block:
            self._block = list(LIVE_BLOCK)
            self._rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "raise":
            team = self._rng.randrange(SUBSCRIBED_TEAMS)
            employee = self._rng.choice(self.members[team])
            amount = self._rng.randint(1, 99)
            old = self.model[employee]
            self.model[employee] = old + amount
            return Op(
                "raise", raise_text(employee, amount), employee,
                old + amount, old, team,
            )
        if kind != "point":
            return Op("hot", HOT_QUERIES[kind])
        employee = self._rng.choice(self._staff)
        return Op("point", point_query(employee), employee, self.model[employee])

    def __iter__(self):
        return self


@dataclass(frozen=True)
class Family:
    """One ``batch-apply`` program: its text, its frozen input base and the
    program object the naive reference is computed from."""

    name: str
    text: str
    base: object
    program: object


def batch_families() -> list[Family]:
    """The paper's Section 2.3 program on the enterprise base, the
    recursive ancestors program on an 8x40 genealogy, and version chains
    of depth 16, 20 and 24 on 50 random objects."""
    enterprise = enterprise_base(n_employees=N_EMPLOYEES).freeze()
    genealogy = genealogy_base(generations=8, per_generation=40).freeze()
    objects = random_object_base(n_objects=50).freeze()
    programs = [
        ("enterprise", enterprise_update_program(), enterprise),
        ("ancestors", ancestors_program(), genealogy),
    ] + [(f"chain-{k}", version_chain_program(k), objects) for k in (16, 20, 24)]
    return [
        Family(name, format_program(program), base, program)
        for name, program, base in programs
    ]


class BatchOps:
    """Rounds over the families, each round in a seeded order.  A run
    measures whole rounds, so every run applies the same mix."""

    def __init__(self, families: list[Family], seed: int, cycle: int = 0) -> None:
        self._rng = random.Random(f"batch-apply:{seed}:{cycle}")
        self._families = families
        self._round: list[Family] = []
        self.round_size = len(families)

    def __next__(self) -> Family:
        if not self._round:
            self._round = list(self._families)
            self._rng.shuffle(self._round)
        return self._round.pop()

    def __iter__(self):
        return self
