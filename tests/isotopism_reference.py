"""Reference version of the isotopism search.

This is the search that tried every H with H(0) = 0, (q-1)! of them, in
lexicographic order, rebuilding F and G per H inline.  It is kept only so
that the tests can require the pruned search to return the same
`Isotopism` (or None) on every input they give it.
"""

import itertools

from affplane.errors import InputError, SearchBoundExceeded
from affplane.ternary import ISOTOPISM_SEARCH_BOUND, Isotopism


def _is_bijection(seq, q):
    return len(seq) == q and sorted(seq) == list(range(q))


def _identity_holds(T, U, F, G, H):
    q = T.q
    at = T.at
    at2 = U.at
    # nontrivial block first: for well-formed tables the a=0 and x=0
    # slices hold automatically, so bad candidates die fast here
    for a in range(1, q):
        fa = F[a]
        for x in range(1, q):
            gx = G[x]
            for b in range(q):
                if H[at(a, x, b)] != at2(fa, gx, H[b]):
                    return False
    for a in range(q):
        fa = F[a]
        for x in range(q):
            if a and x:
                continue
            gx = G[x]
            for b in range(q):
                if H[at(a, x, b)] != at2(fa, gx, H[b]):
                    return False
    return True


def find_isotopism(T, U):
    """Exhaustive isotopism search in lexicographic (H, f1, g1) order.

    Each H with H(0)=0 determines F from g1 and G from f1; every emitted
    triple is verified in full, and absence means the whole candidate
    space was exhausted.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q = T.q
    if q > ISOTOPISM_SEARCH_BOUND:
        raise SearchBoundExceeded(
            f"isotopism search supports q <= {ISOTOPISM_SEARCH_BOUND}")
    rng = range(q)
    for rest in itertools.permutations(range(1, q)):
        H = (0,) + rest
        f_by_g1 = {}
        for g1 in rng:
            F = tuple(H[T.at(a, g1, 0)] for a in rng)
            if _is_bijection(F, q):
                f_by_g1[g1] = F
        g_by_f1 = {}
        for f1 in rng:
            G = tuple(H[T.at(f1, x, 0)] for x in rng)
            if _is_bijection(G, q):
                g_by_f1[f1] = G
        for f1 in sorted(g_by_f1):
            G = g_by_f1[f1]
            for g1 in sorted(f_by_g1):
                F = f_by_g1[g1]
                if _identity_holds(T, U, F, G, H):
                    return Isotopism(F, G, H)
    return None
