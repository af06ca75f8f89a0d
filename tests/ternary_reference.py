"""Reference versions of the T3, T4 and T5 sweeps, and of `validate`.

The sweeps are the count loops `check_ternary_axioms` ran on every triple
before it decided whole rows at once.  They read the table one entry at
a time through `at` and yield every counterexample in lexicographic
order.  `validate` is the version that certified a linear ring from the
full seven-axiom VW report of its quasi-field.  They are kept only so
that the tests can require the row-level sweeps to yield the same
witness sequences, and `validate` the same verdicts, on every table.
"""

from dataclasses import replace

from affplane.errors import InputError
from affplane.quasifield import LINEAR_RING_AXIOMS, check_vw, from_ternary
from affplane.ternary import check_ternary_axioms


def _t3_sweep(q, at):
    # T3: for each (a, x, y) a unique b with <ax+b> = y
    for a in range(q):
        for x in range(q):
            counts = [0] * q
            for b in range(q):
                counts[at(a, x, b)] += 1
            for y in range(q):
                if counts[y] != 1:
                    yield (a, x, y)


def _t4_sweep(q, at):
    # Per-(a, x) solution lists for <ax+b> = y.
    solve_b = [[[] for _ in range(q)] for _ in range(q * q)]
    for a in range(q):
        for x in range(q):
            row = solve_b[a * q + x]
            for b in range(q):
                row[at(a, x, b)].append(b)

    # T4: for a != a', each (b, b') admits a unique solution x of
    # <ax+b> = <a'x+b'>
    for a in range(q):
        for a2 in range(q):
            if a2 == a:
                continue
            counts = [0] * (q * q)
            for x in range(q):
                row2 = solve_b[a2 * q + x]
                for b in range(q):
                    y = at(a, x, b)
                    for b2 in row2[y]:
                        counts[b * q + b2] += 1
            for i in range(q * q):
                if counts[i] != 1:
                    yield (a, a2, i // q, i % q)


def _t5_sweep(q, at):
    # T5: for x != x', each (y, y') comes from a unique pair (a, b)
    for x in range(q):
        for x2 in range(q):
            if x2 == x:
                continue
            counts = [0] * (q * q)
            for a in range(q):
                for b in range(q):
                    counts[at(a, x, b) * q + at(a, x2, b)] += 1
            for i in range(q * q):
                if counts[i] != 1:
                    yield (x, x2, i // q, i % q)


def validate(T):
    """`ternary.validate` with the linear ring's quasi-field checked by
    `check_vw`, all seven VW sweeps."""
    if T.validated:
        return T
    Q = from_ternary(T)
    if Q is None or not check_vw(Q).passes(*LINEAR_RING_AXIOMS):
        report = check_ternary_axioms(T)
        if not report.all_pass:
            failing = [k for k, ok in report.flags().items() if not ok]
            raise InputError(f"ternary axioms fail: {', '.join(failing)}")
    return replace(T, validated=True)
