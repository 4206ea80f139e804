"""Work budgets for the enumeration-heavy operations.

All enumerations (maximal independent sets, set-cover search, guess-family
materialization, distribution grids) and the simplex pivots of each LP
charge their work against a meter so a hostile input fails with a resource
error instead of hanging.  Each operation creates its own meter, so the
budget caps one operation, not the process.  The independence number's
branch and bound charges `mis_enumeration` one unit per vertex for its
greedy first set and one unit per candidate vertex each search node scans.
MIS enumeration, the independence number and the graph products also check
the size of their bitmask rows before building them,
`make_graph` checks the rows it is about to allocate against `graph_rows`
(n * ceil(n / 64) words with an edge, n words without), the t-fold powers
check t - 1 times their rows' words and the product MIS family t units
per set besides its members, so a huge t fails even on one vertex, the
approximate-guess caps of one call share one meter and spend t units per
ordered tuple of base families, so a long table budget fails too,
product trace families check theirs (`trace_family`), `make_mapping`
checks the size of its integer counts as their common denominator grows,
`generate_valid_mapping` checks the units it deals, sequences times r
(`scheme_units`),
`optimal_leakage_t` checks its witness's cells, sequences times codewords,
against `witness_cells` before it builds anything on the OR power,
`decode_index` checks its t symbols (`sequence_symbols`) and the singleton
and multi-guess families their |V|**t sequences (`guess_family`),
the parametric fixtures c<n>, k<n> and p<n> check their edge count
(`fixture_edges`) before listing the edges, and the seeded oracle checks
check their trial count (`oracle_trials`) before their trial loops.
The default budget is 2**20 units of search work; the ZEROLEAK_BUDGET
environment variable overrides it.  The automorphism
search has a separate hard vertex cap that is not environment-tunable.
"""

from __future__ import annotations

import os

from .errors import DomainError, ResourceBudgetError

DEFAULT_ENUMERATION_BUDGET = 1 << 20

# Hard cap for the brute-force automorphism search; permutation backtracking
# beyond this is out of scope regardless of the enumeration budget.
AUTOMORPHISM_VERTEX_CAP = 10

_ENV_VAR = "ZEROLEAK_BUDGET"


def enumeration_budget() -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise DomainError("bad_budget_env", f"{_ENV_VAR} must be a positive integer, got {raw!r}", {"value": raw})
    return value


class WorkMeter:
    """Counts abstract work units and raises once the budget is exhausted."""

    def __init__(self, name: str, limit: int | None = None):
        self.name = name
        self.limit = enumeration_budget() if limit is None else limit
        self.spent = 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.limit:
            raise ResourceBudgetError(self.name, self.limit)

    def check_size(self, size: int, what: str) -> None:
        # One-shot guard for enumerations whose size is known up front.
        if size > self.limit:
            raise ResourceBudgetError(
                self.name,
                self.limit,
                f"{what} needs {size} units, over the {self.name} budget of {self.limit}",
            )
