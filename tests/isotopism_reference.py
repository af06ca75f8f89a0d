"""Reference versions of the isotopism search.

`find_isotopism` is the search that tried every H with H(0) = 0, (q-1)!
of them, in lexicographic order, rebuilding F and G per H inline.
`additive_find_isotopism` is the search that followed it: the additive H
only when both rings are linear, every pair (f1, g1) whose F and G are
bijections verified entry by entry, and no shortcut.  Both are kept only
so that the tests can require `affplane.find_isotopism` to return the
same `Isotopism` (or None) on every input they give it.
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
    # slices hold automatically, so bad candidates die fast here; b is
    # outermost, since a bad candidate between linear rings fails at b = 0
    # wherever it fails
    for b in range(q):
        hb = H[b]
        for a in range(1, q):
            fa = F[a]
            for x in range(1, q):
                if H[at(a, x, b)] != at2(fa, G[x], hb):
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


def _is_linear(T):
    """True iff <ax+b> = <1<ax+0>+b> on all triples and <1y+0> = y."""
    q, t = T.q, T.table
    # the b-row of (a, x) must be the b-row of (1, <ax+0>)
    rows = [t[(q + y) * q:(q + y + 1) * q] for y in range(q)]
    return (all(row[0] == y for y, row in enumerate(rows))
            and all(t[i:i + q] == rows[t[i]] for i in range(0, q ** 3, q)))


def _completions(T, H, f1s, g1s):
    """The (F, G) that H extends to, in (f1, g1) order.

    G(x) = H(<f1 x + 0>) for each f1 in f1s and F(a) = H(<a g1 + 0>) for
    each g1 in g1s; a map that is no bijection is skipped.  Each map is
    built once, however many pairs it takes part in.
    """
    q = T.q
    Gs = [tuple(H[T.at(f1, x, 0)] for x in range(q)) for f1 in f1s]
    Fs = [tuple(H[T.at(a, g1, 0)] for a in range(q)) for g1 in g1s]
    Fs = [F for F in Fs if _is_bijection(F, q)]
    for G in Gs:
        if _is_bijection(G, q):
            for F in Fs:
                yield F, G


def _h_candidates(T, U):
    """Every H with H(0) = 0 that an isotopism T -> U can have, in
    lexicographic order.

    H(1), H(2), ... are assigned in carrier order, images tried in
    increasing order.  When T and U are both linear, every isotopism has
    an additive H: with y + b = <1y+b>, setting b = 0 in the identity
    gives H(<ax+0>) = <F(a)G(x)+0>, so H(<ax+b>) = H(<ax+0>) + H(b), and
    every y is the product <1y+0>.  A partial H is then dropped as soon
    as it breaks H(y + b) = H(y) + H(b) on its assigned elements.  Any
    other pair is not pruned, and every H is yielded.
    """
    q = T.q
    # each sum y + b = v is checked when the last of y, b, v gets its image
    sums = [[] for _ in range(q)]
    if _is_linear(T) and _is_linear(U):
        for y in range(q):
            for b in range(q):
                v = T.at(1, y, b)
                sums[max(y, b, v)].append((y, b, v))
    H = [0] * q
    used = [False] * q

    def extend(e):
        if e == q:
            yield tuple(H)
            return
        for img in range(1, q):
            if used[img]:
                continue
            H[e] = img
            if all(H[v] == U.at(1, H[y], H[b]) for y, b, v in sums[e]):
                used[img] = True
                yield from extend(e + 1)
                used[img] = False

    return extend(1)


def additive_find_isotopism(T, U):
    """Exhaustive isotopism search in lexicographic (H, f1, g1) order.

    The candidate H are the additive bijections when both rings are
    linear (`<ax+b> = <1<ax+0>+b>` and `<1y+0> = y`), which every
    isotopism between such rings has, and all H with H(0) = 0 otherwise.
    Each H determines F from g1 and G from f1; every emitted triple is
    verified in full, and absence means the whole candidate space was
    exhausted.
    """
    if T.q != U.q:
        raise InputError("carrier sizes differ")
    q = T.q
    if q > ISOTOPISM_SEARCH_BOUND:
        raise SearchBoundExceeded(
            f"isotopism search supports q <= {ISOTOPISM_SEARCH_BOUND}")
    for H in _h_candidates(T, U):
        for F, G in _completions(T, H, range(q), range(q)):
            if _identity_holds(T, U, F, G, H):
                return Isotopism(F, G, H)
    return None
