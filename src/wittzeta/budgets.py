"""Every budget in one table, each limit in the unit its cost is counted
in, and the one check that refuses a call past a limit.

The code that knows the sizes computes a cost before the work starts:
"tuples" per chart in `counting._plan_chart` (its limit also caps the
gcd of a one-variable chart and the fields given log tables), "series"
in `zeta._expansion_cost` from the bits of q, "elimination" in
`rational.rationalize`.  A field of more than `EXACT_BITS` bits is past
every limit that counts its elements, so q = p^k is not computed: a cost
is named or bounded below.

No row holds `finitefield.PRIME_TEST_BOUND`, the proven range of the
13-base Miller-Rabin test and not a cost, or `cli.main`'s flag lower
bounds: those are usage errors with their own ValueError message, and a
check shared with them would branch on its caller.
"""

from collections import namedtuple

from .errors import BudgetExceeded

Budget = namedtuple("Budget", "limit unit")
BUDGETS = {
    "tuples": Budget(10**7, "tuples to enumerate"),
    "series": Budget(10**8, "bit units"),  # each catalog zeta prints in ~2 s
    "elimination": Budget(10**6, "entry updates"),
}
EXACT_BITS = 256


def check(row: str, cost, context: str = "") -> None:
    """Raise `BudgetExceeded` as "<context><cost> <unit>, budget is <limit>"
    past the row's limit; a cost given as text is too large to compute."""
    limit, unit = BUDGETS[row]
    if isinstance(cost, str) or cost > limit:
        raise BudgetExceeded(f"{context}{cost} {unit}, budget is {limit}")
