#!/usr/bin/env python3
"""Survey every twisted-multiplication quasi-field over the standard
suite of (field, Galois group) pairs.

For each admissible map phi the script builds the left quasi-field,
verifies the axiom table, and compares the algebraic predictions
(associativity from phi being a homomorphism, right distributivity from
phi being constant) against the exhaustive scans.  The associativity
scan runs on a fresh copy of the build's tables, since a build answers
`associativity_witness` from the proof it keeps.  A prediction that a
scan contradicts raises `InternalCheckError`, naming phi, under
`python -O` too.
"""

import argparse

from affplane import (LEFT_AXIOMS, InternalCheckError, QuasiField,
                      associativity_witness, build_left, check_vw, classify,
                      enumerate_phi, galois_subgroup, make_field,
                      predicts_associative, predicts_right_distributive)

SUITE = (
    (3, 2, 1),   # GF(9), group of order 2 over GF(3)
    (2, 4, 2),   # GF(16), group of order 2 over GF(4)
    (5, 2, 1),   # GF(25), group of order 2 over GF(5)
    (3, 3, 1),   # GF(27), group of order 3 over GF(3)
)


def confirm(spec, prediction, predicted, scanned):
    """Raise unless the scan agrees with the algebraic prediction."""
    if predicted != scanned:
        raise InternalCheckError(f"phi={spec.phi}: predicted {prediction}={predicted}, "
                                 f"but the scan says {scanned}")


def survey(p, n, d, do_classify):
    K = make_field(p, n)
    G = galois_subgroup(K, d)
    specs = enumerate_phi(K, G)
    print(f"GF({K.q}), group order {G.order}: {len(specs)} phi maps")
    for spec in specs:
        Q = build_left(spec)
        report = check_vw(Q)
        fresh = QuasiField(Q.q, Q.add_table, Q.mul_table)  # no kept proof
        assoc = associativity_witness(fresh) is None
        confirm(spec, "associative", predicts_associative(spec), assoc)
        right_distributive = report.flags()["VW4-r"]
        confirm(spec, "right-distributive", predicts_right_distributive(spec),
                right_distributive)
        line = (f"  phi={spec.phi}: left axioms "
                f"{'pass' if report.passes(*LEFT_AXIOMS) else 'FAIL'}, "
                f"associative={assoc}, right-distributive={right_distributive}")
        if do_classify:
            line += f", plane={classify(Q).verdict}"
        print(line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classify", action="store_true",
                        help="also classify each plane")
    args = parser.parse_args()
    for p, n, d in SUITE:
        survey(p, n, d, args.classify)


if __name__ == "__main__":
    main()
