import random
import sys
import tracemalloc
from itertools import count

import pytest

from affplane import (AffinePlane, QuasiField, canonical_frame, formats, from_field,
                      make_field, opposite, plane_from_ternary, to_ternary)
from affplane.cli import main
from affplane.errors import FormatError
from affplane.ternary import TernaryRing
from test_witnesses import _plane_mutants


@pytest.fixture
def t3_path(tmp_path, t3):
    path = tmp_path / "k3.trs"
    formats.write_trs(path, t3)
    return path


def test_trs_round_trip(tmp_path, andre9_ring):
    path = tmp_path / "a.trs"
    formats.write_trs(path, andre9_ring)
    back = formats.read_trs(path)
    assert back.q == 9 and back.table == andre9_ring.table
    formats.write_trs(tmp_path / "b.trs", back)
    assert (tmp_path / "a.trs").read_bytes() == (tmp_path / "b.trs").read_bytes()


def test_qf_round_trip(tmp_path, andre9):
    path = tmp_path / "a.qf"
    formats.write_qf(path, andre9)
    back = formats.read_qf(path)
    assert back.add_table == andre9.add_table
    assert back.mul_table == andre9.mul_table


def test_plane_round_trip(tmp_path, p3):
    path = tmp_path / "a.aplane"
    formats.write_plane(path, p3)
    back = formats.read_plane(path)
    assert back == p3
    assert canonical_frame(back) == canonical_frame(p3)


def test_coll_round_trip(tmp_path):
    perm = (2, 0, 1, 3)
    path = tmp_path / "a.coll"
    formats.write_coll(path, perm)
    assert formats.read_coll(path) == perm


def test_lf_and_no_trailing_whitespace(tmp_path, t3):
    path = tmp_path / "k3.trs"
    formats.write_trs(path, t3)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert b" \n" not in data


@pytest.mark.parametrize("content,line_no", [
    ("BAD 1\nq 3\n", 1),
    ("TRS 1\nq x\n", 2),
    ("TRS 1\nq 3\nnope\n", 3),
    ("TRS 1\nq 3\n" + "0\n" * 26, 29),  # truncated table
    ("TRS 1\nq 3\n" + "0\n" * 27 + "0\n", 30),  # trailing content
    ("TRS 1\nq 3\n5\n" + "0\n" * 26, 3),  # value out of range
    ("TRS 1\r\nq 3\n" + "0\n" * 27, 1),  # CR
    ("TRS 1\nq 3 \n" + "0\n" * 27, 2),  # trailing space
    ("TRS 1\nq 1\n0\n", 2),  # order below 2
])
def test_trs_malformed(tmp_path, content, line_no):
    path = tmp_path / "bad.trs"
    path.write_text(content)
    with pytest.raises(FormatError) as exc:
        formats.read_trs(path)
    assert exc.value.line_no == line_no


def test_plane_rejects_unsorted_lines(tmp_path):
    path = tmp_path / "bad.aplane"
    path.write_text("APLANE 1\npoints 3\nlines 2\n1 2\n0 1\n")
    with pytest.raises(FormatError):
        formats.read_plane(path)
    path.write_text("APLANE 1\npoints 3\nlines 1\n2 1\n")
    with pytest.raises(FormatError):
        formats.read_plane(path)


@pytest.mark.parametrize("kind,reader,content,line_no", [
    ("ternary", formats.read_trs, "TRS 1\nq \u00b2\n", 2),
    ("quasifield", formats.read_qf, "QF 1\nq 2\n0\n1\n\u00b2\n" + "0\n" * 5, 5),
    ("plane", formats.read_plane, "APLANE 1\npoints 3\nlines 1\n0 1 \u00b2\n", 4),
    (None, formats.read_coll, "COLL 1\npoints 2\n0 -> \u00b2\n1 -> 0\n", 3),
])
def test_readers_take_ascii_digits_only(tmp_path, capsys, kind, reader, content, line_no):
    """`str.isdigit` accepts the superscript two, which `int` rejects: each
    reader names the line, and `afp` exits 2 (no command reads COLL)."""
    path = tmp_path / "bad"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert exc.value.line_no == line_no
    if kind is not None:
        assert main(["check", kind, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:{line_no}: ")


LONG = "0" * 4300 + "1"  # more digits than `int` takes by default


@pytest.mark.parametrize("kind,reader,content,line_no", [
    ("ternary", formats.read_trs, f"TRS 1\nq {LONG}\n", 2),
    ("ternary", formats.read_trs, "TRS 1\nq 2\n" + "0\n" * 3 + LONG + "\n" + "0\n" * 4, 6),
    ("quasifield", formats.read_qf, "QF 1\nq 2\n0\n1\n1\n" + LONG + "\n" + "0\n" * 4, 6),
    ("plane", formats.read_plane, f"APLANE 1\npoints 3\nlines 1\n0 1 {LONG}\n", 4),
    (None, formats.read_coll, f"COLL 1\npoints 2\n0 -> {LONG}\n1 -> 0\n", 3),
], ids=["trs-q", "trs-value", "qf-value", "aplane-point", "coll-image"])
def test_readers_reject_numbers_longer_than_int_takes(tmp_path, capsys, kind, reader,
                                                      content, line_no):
    """A token of more digits than `sys.get_int_max_str_digits()` makes
    `int` raise ValueError: each reader names the line instead, and `afp`
    exits 2 (no command reads COLL)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        path = tmp_path / "bad"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert exc.value.line_no == line_no
        if kind is not None:
            assert main(["check", kind, str(path)]) == 2
            assert capsys.readouterr().err.startswith(f"error: {path}:{line_no}: ")
    finally:
        sys.set_int_max_str_digits(limit)


def _outcome(read, path):
    try:
        return "returns", read(path)
    except FormatError as exc:
        return "raises", str(exc), exc.line_no


def _line_by_line(monkeypatch, read, path):
    """read(path) with the bulk parsers turned off; a plane it returns was
    read by `_expect_point_line`, line by line."""
    expect_point_line, parsed = formats._expect_point_line, []
    with monkeypatch.context() as m:
        m.setattr(formats, "_point_block", lambda block, n: None)
        m.setattr(formats, "_expect_point_line",
                  lambda cur, n: parsed.append(expect_point_line(cur, n)) or parsed[-1])
        m.setattr(formats, "_expect_values", lambda cur, count, q, what: tuple(
            formats._expect_value(cur, q, what) for _ in range(count)))
        outcome = _outcome(read, path)
    if isinstance(outcome[1], AffinePlane):
        assert parsed == list(outcome[1].lines)
    return outcome


BAD_LINES = ["", "0", "9", "0 0", "1 0", "00 1 2", "0 01", "0  1", " 0 1",
             "0 1 \u00b2", "\u0663", "+1", "-1", "1_0", "0 1 2 3", "x 1"]


def _agree(monkeypatch, read, path, variants):
    """Each variant written to path reads alike in bulk and line by line:
    the same result, or the same message at the same line.  Returns the
    outcomes seen, a message by its last part."""
    outcomes = set()
    for lines in variants:
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        outcome = _outcome(read, path)
        assert outcome == _line_by_line(monkeypatch, read, path)
        outcomes.add(outcome[0] if outcome[0] == "returns" else outcome[1].split(": ")[-1])
    return outcomes


def _multi_digit(good, i):
    """Line i of a file changed by each multi-digit fault: a leading zero
    (`016` in the line y = 0 of order 16), the point 256, a repeated
    point, two adjacent points swapped and a doubled space."""
    t = good[i].split(" ")
    changed = [[t[0], "0" + t[1], *t[2:]], [*t[:-1], "256"], [t[0], t[0], *t[2:]],
               [t[1], t[0], *t[2:]], [t[0], "", *t[1:]]]
    return [good[:i] + [" ".join(c)] + good[i + 1:] for c in changed]


def test_bulk_plane_reader_agrees_line_by_line(tmp_path, monkeypatch, p3, andre16):
    """Every single-line change of an order-3 plane file, a lost line and
    a repeated line read alike in bulk and line by line: the same lines,
    or the same message at the same line.  So do multi-digit faults in
    every 16th line of an order-16 plane file, from the line y = 0."""
    path = tmp_path / "p.aplane"
    formats.write_plane(path, p3)
    good = path.read_text().split("\n")[:-1]
    variants = [good[:-1], good + good[-1:]]
    for i in range(1, len(good)):
        variants += [good[:i] + [bad] + good[i + 1:] for bad in BAD_LINES]
    outcomes = _agree(monkeypatch, formats.read_plane, path, variants)
    assert "returns" in outcomes and len(outcomes) > 8
    formats.write_plane(path, plane_from_ternary(to_ternary(andre16)))
    good = path.read_text().split("\n")[:-1]
    variants = [good[:-1], good + good[-1:]]
    assert good[4].startswith("0 16 32 ")
    for i in range(4, len(good), 16):
        variants += _multi_digit(good, i)
    outcomes = _agree(monkeypatch, formats.read_plane, path, variants)
    assert {"returns", "point index out of range",
            "point indices must be strictly increasing"} <= outcomes


def test_a_well_formed_plane_file_is_parsed_in_bulk(tmp_path, monkeypatch, p3, andre9_plane,
                                                    andre16):
    """`_point_block` takes every canonical file, single-point lines and a
    line that ends above the next one starts included, so no line of one
    is read by `_expect_point_line`."""
    monkeypatch.setattr(formats, "_expect_point_line", lambda cur, n: pytest.fail(cur.pos))
    path = tmp_path / "p.aplane"
    for P in (p3, andre9_plane, plane_from_ternary(to_ternary(andre16)),
              AffinePlane.from_lines(4, [(3,), (0, 1, 2), (1,), (0, 3)])):
        formats.write_plane(path, P)
        assert formats.read_plane(path) == P


def test_bulk_table_reader_agrees_line_by_line(tmp_path, monkeypatch, t3, andre16):
    """As for planes: single-line changes of an order-3 TRS file, and
    multi-digit faults in every 256th value of an order-16 one (a leading
    zero, the value 256, a value repeated, two adjacent values swapped
    and a doubled space)."""
    path = tmp_path / "t.trs"
    formats.write_trs(path, t3)
    good = path.read_text().split("\n")[:-1]
    variants = [good[:-1], good + good[-1:]]
    for i in range(2, len(good)):
        variants += [good[:i] + [bad] + good[i + 1:] for bad in BAD_LINES + ["02", "3"]]

    def read(p):
        return formats.read_trs(p).table

    _agree(monkeypatch, read, path, variants)
    formats.write_trs(path, to_ternary(andre16))
    good = path.read_text().split("\n")[:-1]
    variants = []
    for i in range(2, len(good) - 1, 256):
        v = good[i]
        variants += [good[:i] + [bad] + good[i + 1:] for bad in ("0" + v, "256", f"{v}  {v}")]
        variants += [good[:i] + [v, v] + good[i + 1:], good[:i] + [good[i + 1], v] + good[i + 2:]]
    outcomes = _agree(monkeypatch, read, path, variants)
    assert {"returns", "table value 256 out of range 0..15", "trailing content after table",
            f"expected a table value, got `{good[2]}  {good[2]}`"} <= outcomes


STR_FORMAT = {  # each writer's lines, formatted by `str` one value at a time
    formats.write_trs: lambda T: ["TRS 1", f"q {T.q}", *map(str, T.table)],
    formats.write_qf: lambda Q: ["QF 1", f"q {Q.q}", *map(str, Q.add_table),
                                 *map(str, Q.mul_table)],
    formats.write_plane: lambda P: ["APLANE 1", f"points {P.n}", f"lines {len(P.lines)}",
                                    *(" ".join(map(str, line)) for line in P.lines)],
    formats.write_coll: lambda perm: ["COLL 1", f"points {len(perm)}",
                                      *map("{} -> {}".format, count(), perm)],
}


def test_writers_match_str_formatting(tmp_path, k16, andre9, andre16):
    """Every writer's bytes equal `str` formatting on fields, André
    quasi-fields and their opposites at orders 3 to 16, their rings and
    planes, plane mutants, and permutations."""
    fields = [from_field(make_field(3, 1)), from_field(k16)]
    qfs = fields + [andre9, andre16, opposite(andre9), opposite(andre16)]
    rings = list(map(to_ternary, qfs))
    planes = list(map(plane_from_ternary, rings))
    planes += [AffinePlane.from_lines(P.n, lines) for P in planes[-2:]
               for lines in _plane_mutants(P, 1).values()]
    perms = [(0,), (1, 0), tuple(range(255, -1, -1)),
             tuple(random.Random(1).sample(range(256), 256))]
    path = tmp_path / "out"
    for write, items in ((formats.write_qf, qfs), (formats.write_trs, rings),
                         (formats.write_plane, planes), (formats.write_coll, perms)):
        for item in items:
            write(path, item)
            assert path.read_bytes() == "".join(
                line + "\n" for line in STR_FORMAT[write](item)).encode()


def test_built_and_read_planes_equal_from_lines(tmp_path, andre9_ring, andre16):
    """`plane_from_ternary` and `read_plane` of its file trust their lines;
    each gives the plane `from_lines` validates, masks and `through` alike."""
    path = tmp_path / "p.aplane"
    for T in (andre9_ring, to_ternary(andre16), to_ternary(opposite(andre16))):
        P = plane_from_ternary(T)
        formats.write_plane(path, P)
        ref = AffinePlane.from_lines(P.n, (line[::-1] for line in reversed(P.lines)))
        for built in (P, formats.read_plane(path)):
            assert (built.lines, built.masks, built.through) == (ref.lines, ref.masks, ref.through)
            assert built == ref


@pytest.mark.parametrize("reader,content,line_no", [
    (formats.read_plane, "APLANE 1\npoints 0\nlines 0\n", 2),
    (formats.read_coll, "COLL 1\npoints 0\n", 2),
    (formats.read_coll, "COLL 1\npoints 2\n1 -> 0\n0 -> 1\n", 3),  # wrong source
    (formats.read_coll, "COLL 1\npoints 2\n0 -> 1\n1 -> 2\n", 4),  # image out of range
], ids=["aplane-points-0", "coll-points-0", "coll-source", "coll-image"])
def test_plane_and_coll_malformed(tmp_path, reader, content, line_no):
    path = tmp_path / "bad"
    path.write_text(content)
    with pytest.raises(FormatError) as exc:
        reader(path)
    assert exc.value.line_no == line_no


def test_coll_rejects_non_permutation(tmp_path):
    path = tmp_path / "bad.coll"
    path.write_text("COLL 1\npoints 2\n0 -> 0\n1 -> 0\n")
    with pytest.raises(FormatError):
        formats.read_coll(path)


# ---------------------------------------------------------------------------
# CLI

def test_cli_andre_check_classify(tmp_path, capsys):
    out = tmp_path / "k9.qf"
    assert main(["andre", "--p", "3", "--n", "2", "--subfield-deg", "1",
                 "--phi", "0,1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "quasifield", str(out)]) == 0
    report = capsys.readouterr().out
    assert "VW4-r: FAIL at (1, 3, 3)\n" in report
    assert "VW4: pass\n" in report and "left axiom set: pass" in report
    assert main(["classify", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "non-desarguesian"


def test_cli_phi_validation(tmp_path, capsys):
    out = tmp_path / "x.qf"
    code = main(["andre", "--p", "3", "--n", "2", "--subfield-deg", "1",
                 "--phi", "1,0", "--out", str(out)])
    assert code == 2
    assert "first phi entry" in capsys.readouterr().err
    code = main(["andre", "--p", "3", "--n", "2", "--subfield-deg", "1",
                 "--phi", "0,x", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: --phi must be comma-separated integers\n"
    assert not out.exists()


def test_cli_out_directory_exits_two(tmp_path, capsys):
    code = main(["andre", "--p", "3", "--n", "2", "--subfield-deg", "1",
                 "--phi", "0,1", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_plane_coordinatize_round_trip(tmp_path, capsys, t3):
    trs = tmp_path / "k3.trs"
    formats.write_trs(trs, t3)
    plane = tmp_path / "k3.aplane"
    assert main(["plane", "build", str(trs), "--out", str(plane)]) == 0
    assert main(["check", "plane", str(plane)]) == 0
    back = tmp_path / "back.trs"
    assert main(["coordinatize", str(plane), "--l", "1", "--m", "0",
                 "--z", "4", "--out", str(back)]) == 0
    assert trs.read_bytes() == back.read_bytes()
    capsys.readouterr()


def test_cli_iso_isotopy(tmp_path, capsys, t3):
    a = tmp_path / "a.trs"
    formats.write_trs(a, t3)
    assert main(["iso", str(a), str(a)]) == 0
    assert capsys.readouterr().out.startswith("found: 0 1 2")
    assert main(["isotopy", str(a), str(a)]) == 0
    assert capsys.readouterr().out.startswith("found")


def test_cli_iso_verifies_the_map(tmp_path, capsys, t3):
    """`afp iso` reads its files without validating them; on two order-3
    tables that differ only at <0*0+1> no map is an isomorphism."""
    a, b = tmp_path / "a.trs", tmp_path / "b.trs"
    formats.write_trs(a, t3)
    table = list(t3.table)
    table[1] = 2  # <0*0+1>
    formats.write_trs(b, TernaryRing(3, tuple(table)))
    assert main(["iso", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "absent\n"


def test_cli_verdicts_need_a_ternary_ring(tmp_path, capsys):
    """The order-3 table <ax+b> = x + b + 1 fails T1, T2, T4 and T5, so
    the commands whose verdicts assume a ternary ring reject it, while
    `afp iso` answers: isomorphism is defined on any tables, and the
    identity commutes with every operation."""
    t = tmp_path / "t.trs"
    formats.write_trs(t, TernaryRing(3, tuple((x + b + 1) % 3 for a in range(3)
                                              for x in range(3) for b in range(3))))
    out = tmp_path / "t.aplane"
    for argv in (["isotopy", t, t], ["--verbose", "classify", t],
                 ["plane", "build", t, "--out", out]):
        assert main(list(map(str, argv))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ternary axioms fail: T1, T2, T4, T5\n"
    assert not out.exists()
    assert main(["iso", str(t), str(t)]) == 0
    assert capsys.readouterr().out == "found: 0 1 2\n"


def test_cli_isotopy_absent_at_order_9(tmp_path, capsys, k9, andre9_ring):
    """The near-field and field planes of order 9 are not isomorphic, so
    their coordinate rings are not isotopic (output as at the exhaustive
    search over all 8! maps H)."""
    near, field = tmp_path / "near9.trs", tmp_path / "k9.trs"
    formats.write_trs(near, andre9_ring)
    formats.write_trs(field, to_ternary(from_field(k9)))
    assert main(["isotopy", str(near), str(field)]) == 0
    assert capsys.readouterr().out == "absent\n"


def test_cli_translate(tmp_path, capsys, t3):
    trs = tmp_path / "k3.trs"
    formats.write_trs(trs, t3)
    plane = tmp_path / "k3.aplane"
    main(["plane", "build", str(trs), "--out", str(plane)])
    coll = tmp_path / "t.coll"
    assert main(["translate", str(plane), "--from", "0", "--to", "4",
                 "--out", str(coll)]) == 0
    out = capsys.readouterr().out
    assert "found" in out
    perm = formats.read_coll(coll)
    assert perm[0] == 4
    for source, target in (("9", "0"), ("0", "-1"), ("9", "9")):
        assert main(["translate", str(plane), "--from", source, "--to", target]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: point index out of range\n")


def test_cli_translate_writes_before_it_prints(tmp_path, capsys, k9):
    """An --out path that cannot be written exits 2 with nothing on
    stdout, though the translation exists."""
    trs, plane = tmp_path / "f9.trs", tmp_path / "f9.aplane"
    formats.write_trs(trs, to_ternary(from_field(k9)))
    assert main(["plane", "build", str(trs), "--out", str(plane)]) == 0
    capsys.readouterr()
    args = ["translate", str(plane), "--from", "0", "--to", "80", "--out"]
    assert main(args + [str(tmp_path / "missing" / "x.coll")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert main(args + [str(tmp_path / "x.coll")]) == 0
    assert capsys.readouterr().out.startswith("found\n")


def test_cli_translate_on_single_line_plane_exits_two(tmp_path, capsys):
    plane = tmp_path / "line.aplane"
    plane.write_text("APLANE 1\npoints 3\nlines 1\n0 1 2\n")
    assert main(["translate", str(plane), "--from", "0", "--to", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_check_failure_exits_one(tmp_path, capsys, t3):
    table = list(t3.table)
    table[13] = (table[13] + 1) % 3
    from affplane.ternary import TernaryRing
    bad = tmp_path / "bad.trs"
    formats.write_trs(bad, TernaryRing(3, tuple(table)))
    assert main(["check", "ternary", str(bad)]) == 1
    capsys.readouterr()


def test_cli_malformed_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.trs"
    bad.write_text("TRS 1\nq 3\nwhat\n")
    assert main(["check", "ternary", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.trs:3" in err
    assert main(["check", "ternary", str(tmp_path / "missing.trs")]) == 2
    capsys.readouterr()


def test_cli_gf_deterministic(capsys):
    assert main(["gf", "--p", "3", "--n", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["gf", "--p", "3", "--n", "2"]) == 0
    assert capsys.readouterr().out == first
    assert "modulus: 1 0 1" in first


@pytest.mark.parametrize("argv, order", [
    (["gf", "--p", "2", "--n", "100000"], "2^100000"),  # 30,103 digits
    (["gf", "--p", "3", "--n", "3000"], "3^3000"),  # 1,432 digits
    # a prime that trial division takes long on
    (["gf", "--p", "1000000000000000003", "--n", "1"], "1000000000000000003"),
    (["andre", "--p", "2", "--n", "100000", "--subfield-deg", "1", "--phi", "0",
      "--out", "never-written.qf"], "2^100000"),
])
def test_cli_orders_far_above_the_bound_exit_two(capsys, argv, order):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: order {order} exceeds the configured bound 2048\n"


def test_a_large_points_header_builds_no_table_of_point_bits(tmp_path, capsys):
    """A million points and one line of two: a table of the points' bits
    would hold about n^2/16 bytes, 62 GB.  The largest allocation left is
    the per-point index `through`, 8 MB as a list and 8 MB as its tuple."""
    path = tmp_path / "sparse.aplane"
    path.write_text("APLANE 1\npoints 1000000\nlines 1\n0 999999\n")
    tracemalloc.start()
    try:
        P = formats.read_plane(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.masks == (1 | 1 << 999999,) and P.through[999999] == 1
    assert peak < 24 * 2 ** 20
    assert main(["check", "plane", str(path)]) == 1
    assert capsys.readouterr().out.startswith("A1: FAIL at (0, 1)\n")


def test_a_points_header_above_the_largest_plane_is_rejected(tmp_path, capsys):
    """A billion points would need a per-point index of gigabytes: the
    header is refused before anything is built, above the 2048^2 points
    of the plane of the largest field `make_field` builds."""
    path = tmp_path / "huge.aplane"
    for n, code in ((1000000000, 2), (2048 ** 2 + 1, 2), (2048 ** 2, 1)):
        path.write_text(f"APLANE 1\npoints {n}\nlines 0\n")
        assert main(["check", "plane", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 1 else
                       f"error: {path}:2: points must be <= 4194304, got {n}\n")


def test_cli_repeat_invocations_byte_identical(tmp_path):
    out1 = tmp_path / "a.qf"
    out2 = tmp_path / "b.qf"
    args = ["andre", "--p", "2", "--n", "4", "--subfield-deg", "2",
            "--phi", "0,1,0", "--side", "right"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_classify_trs_verbose(tmp_path, capsys, t3):
    trs = tmp_path / "k3.trs"
    formats.write_trs(trs, t3)
    assert main(["--verbose", "classify", str(trs)]) == 0
    out = capsys.readouterr().out
    assert "desarguesian" in out.splitlines()[0]
    assert "reason: isomorphism-found" in out


def test_cli_classify_rejects_tables_that_are_no_quasi_field(tmp_path, capsys):
    """XOR addition with a non-associative multiplication that fails
    VW2, VW4, VW5 and their right forms: `classify` certifies the tables
    before its associativity shortcut, so it gives no verdict."""
    qf = tmp_path / "bad.qf"
    add = tuple(a ^ b for a in range(4) for b in range(4))
    formats.write_qf(qf, QuasiField(4, add, (0, 0, 0, 0, 0, 1, 2, 3, 0, 2, 0, 0, 0, 3, 0, 1)))
    assert main(["check", "quasifield", str(qf)]) == 1
    failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if ": FAIL" in line]
    assert failed == ["VW2", "VW4", "VW5", "VW4-r", "VW5-r", "left axiom set", "right axiom set"]
    assert main(["--verbose", "classify", str(qf)]) == 2
    assert capsys.readouterr() == (
        "", "error: tables pass neither the left nor the right axiom set\n")


def test_cli_classify_order_25_near_field(tmp_path, capsys):
    """The order-25 near-field's plane is classified by the isomorphism
    search, which has no order bound."""
    qf = tmp_path / "near25.qf"
    assert main(["andre", "--p", "5", "--n", "2", "--subfield-deg", "1",
                 "--phi", "0,1,1,0", "--out", str(qf)]) == 0
    capsys.readouterr()
    assert main(["--verbose", "classify", str(qf)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "non-desarguesian"
    assert "reason: search-exhausted" in out
