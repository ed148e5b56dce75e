import json
import time

import pytest

from multinv import (GroupAction, GroupTooLarge, classify, cli, groups,
                     laurent, monoid, roots)
from multinv.cli import main
from multinv.lattice import IntMatrix
from multinv.laurent import LaurentPolynomial
from helpers import (BASE_RANK2, minus_identity, root_lattice_generators,
                     weyl_generators)

RANK2_DOC = {
    "rank": 2,
    "generators": [[[0, 1], [1, 0]], [[1, -1], [0, -1]]],
}
Z3_DOC = {"rank": 2, "generators": [[[0, 1], [-1, -1]]]}
SIGN3_DOC = {
    "rank": 3,
    "generators": [
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]],
        [[-1, 0, 0], [0, 1, 0], [0, 0, -1]],
    ],
}
MIXED_DOC = {
    "rank": 3,
    "generators": [
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]],
    ],
}


def write_doc(tmp_path, doc, name="action.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_human_readable(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, out, _ = run(capsys, ["analyze", path])
    assert code == 0
    assert "group order:         6" in out
    assert "reflections:         3" in out
    assert "SemigroupAlgebra" in out


def test_analyze_json(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, out, _ = run(capsys, ["analyze", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["group_order"] == 6
    assert report["reflection_count"] == 3
    assert report["is_reflection_group"] is True
    assert report["verdict"]["status"] == "SemigroupAlgebra"
    assert report["verdict"]["monoid"]["hilbert_basis"] == [[3, 0], [0, 3],
                                                            [1, 1]]


def test_json_output_round_trips(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    runs = [
        [command, path, "--json", "--base-override",
         json.dumps([list(b) for b in BASE_RANK2])]
        for command in ["analyze", "invariants", "classgroup",
                        "hilbert-basis", "verdict"]
    ]
    runs.append(
        ["singular-locus", write_doc(tmp_path, SIGN3_DOC, "sign.json"),
         "--json"]
    )
    for argv in runs:
        code, out, _ = run(capsys, argv)
        assert code == 0
        rendered = json.dumps(json.loads(out), sort_keys=True, indent=2)
        assert rendered + "\n" == out


def test_invariants_with_base_override(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, out, _ = run(
        capsys,
        ["invariants", path, "--json", "--base-override", "[[-1,0],[0,1]]"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["weights"] == [["-2/3", "1/3"], ["-1/3", "2/3"]]
    assert report["multipliers"] == [3, 3]
    assert report["hilbert_basis"] == [[3, 0], [0, 3], [1, 1]]
    assert report["invariants"][0]["factored"] == "orb(w1)^3"
    assert report["invariants"][2]["factored"] == "orb(w1) * orb(w2)"
    expanded = report["invariants"][2]["expanded"]
    assert expanded == "a + b + a*b^-1 + 3 + a^-1*b + b^-1 + a^-1"


def test_base_override_from_file(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps([list(b) for b in BASE_RANK2]))
    code, out, _ = run(
        capsys,
        ["invariants", path, "--json", "--base-override", str(base_path)],
    )
    assert code == 0
    assert json.loads(out)["multipliers"] == [3, 3]


def test_invariants_rank1_expansion(tmp_path, capsys):
    path = write_doc(tmp_path, {"rank": 1, "generators": [[[-1]]]})
    code, out, _ = run(capsys, ["invariants", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["invariants"][0]["expanded"] == "a + 2 + a^-1"


def test_classgroup_command(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, out, _ = run(capsys, ["classgroup", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["class_group"]["divisors"] == [1, 3]
    assert report["class_group"]["description"] == "Z/3"
    assert report["fundamental_group"]["divisors"] == [1, 3]


def test_classgroup_rank3(tmp_path, capsys):
    doc = {
        "rank": 3,
        "generators": [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[1, 0, -1], [0, 1, -1], [0, 0, -1]],
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        ],
    }
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["classgroup", path, "--json"])
    assert code == 0
    assert json.loads(out)["class_group"]["description"] == "Z/4"


def test_classgroup_trivial_group(tmp_path, capsys):
    path = write_doc(tmp_path, {"rank": 2, "generators": []})
    code, out, _ = run(capsys, ["classgroup", path])
    assert code == 0
    assert "trivial" in out


def test_classgroup_rejects_non_reflection_group(tmp_path, capsys):
    path = write_doc(tmp_path, Z3_DOC)
    code, _, err = run(capsys, ["classgroup", path])
    assert code == 2
    assert "reflection" in err


def test_verdict_odd_prime(tmp_path, capsys):
    path = write_doc(tmp_path, Z3_DOC)
    code, out, _ = run(capsys, ["verdict", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["status"] == "NotSemigroupAlgebra"
    assert report["verdict"]["rule"] == "odd-prime-order"


def test_verdict_identity_only_is_group_algebra(tmp_path, capsys):
    path = write_doc(
        tmp_path, {"rank": 2, "generators": [[[1, 0], [0, 1]]]}
    )
    code, out, _ = run(capsys, ["verdict", path, "--json"])
    assert code == 0
    assert json.loads(out)["verdict"]["rule"] == "group-algebra"


def test_require_verdict_exits_3_on_unknown(tmp_path, capsys):
    path = write_doc(tmp_path, MIXED_DOC)
    code, out, _ = run(capsys, ["verdict", path, "--require-verdict"])
    assert code == 3
    assert "Unknown" in out
    code, _, _ = run(capsys, ["verdict", path])
    assert code == 0


# the rank-4 sign group of diag(-1, -1, 1, 1) and diag(1, -1, -1, 1):
# fixed rank 1, ideal height 2, no reflection, and an Unknown verdict
SIGN4_DOC = {
    "rank": 4,
    "generators": [
        [[-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    ],
}


def test_require_verdict_reads_the_verdict_of_every_command_kind(
        tmp_path, capsys):
    # only analyze and verdict report a verdict; singular-locus answers
    # without one, and the reflection-group commands refuse the group
    sign4 = write_doc(tmp_path, SIGN4_DOC, "sign4.json")
    code, out, err = run(capsys, ["analyze", sign4, "--require-verdict"])
    assert (code, err) == (3, "")
    assert "fixed rank:          1\n" in out
    assert "ideal height:        2\n" in out
    assert "verdict: Unknown [unclassified]\n" in out
    code, out, err = run(capsys, ["verdict", sign4, "--json",
                                  "--require-verdict"])
    assert (code, err) == (3, "")
    assert json.loads(out)["verdict"]["status"] == classify.UNKNOWN
    code, out, err = run(capsys, ["singular-locus", sign4,
                                  "--require-verdict"])
    assert (code, err) == (0, "")
    assert out.startswith("components:          12\n")
    assert out.count("  component: (") == 12
    for command, message in (
            ("invariants", "the group contains no reflections"),
            ("classgroup", "class group formula needs a reflection group"),
            ("hilbert-basis", "the group contains no reflections")):
        assert run(capsys, [command, sign4, "--require-verdict"]) == (
            2, "", f"error: {message}\n")
    # a decided verdict, and the commands that report none, exit 0
    a2 = write_doc(tmp_path, RANK2_DOC, "a2.json")
    for command in ("analyze", "verdict", "invariants", "classgroup",
                    "hilbert-basis"):
        assert run(capsys, [command, a2, "--require-verdict"])[0] == 0


def test_singular_locus_command(tmp_path, capsys):
    path = write_doc(tmp_path, SIGN3_DOC)
    code, out, _ = run(capsys, ["singular-locus", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["component_count"] == 12
    assert report["component_dimension"] == 1
    assert report["intersection_point_count"] == 8
    assert {"coordinates": [1, 2], "signs": [1, 1]} in report["components"]


def test_singular_locus_beyond_the_component_bound_exits_2(tmp_path,
                                                           capsys):
    n = 20
    doc = {"rank": n,
           "generators": [[[-int(i == j) for j in range(n)]
                           for i in range(n)]]}
    start = time.perf_counter()
    code, out, err = run(capsys, ["singular-locus", write_doc(tmp_path, doc)])
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert f"{2 ** 20} components" in err


def test_singular_locus_rejects_non_sign_group(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, _, err = run(capsys, ["singular-locus", path])
    assert code == 2
    assert "diagonal" in err


def test_hilbert_basis_command(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, out, _ = run(
        capsys,
        ["hilbert-basis", path, "--json", "--base-override",
         "[[-1,0],[0,1]]"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["hilbert_basis"] == [[3, 0], [0, 3], [1, 1]]
    assert report["box_points"][0] == [0, 0]


def test_invalid_input_exits_2(tmp_path, capsys):
    bad_det = write_doc(tmp_path, {"rank": 2,
                                   "generators": [[[2, 0], [0, 1]]]},
                        "bad1.json")
    code, out, err = run(capsys, ["analyze", bad_det])
    assert (code, out) == (2, "")
    assert err == "error: generators[0] has determinant 2, not +-1\n"
    # close_group takes each determinant once, after the document's other
    # fields are checked, so a bad label is reported first
    bad_both = write_doc(tmp_path, {"rank": 2, "labels": ["x"],
                                    "generators": [[[1, 0], [0, 1]],
                                                   [[1, 1], [1, 1]]]},
                         "bad4.json")
    code, _, err = run(capsys, ["verdict", bad_both])
    assert (code, err) == (2, "error: 'labels' must be 2 nonempty strings\n")
    singular = write_doc(tmp_path, {"rank": 2,
                                    "generators": [[[1, 0], [0, 1]],
                                                   [[1, 1], [1, 1]]]},
                         "bad5.json")
    code, _, err = run(capsys, ["verdict", singular])
    assert (code, err) == (2, "error: generators[1] has determinant 0, "
                              "not +-1\n")

    ragged = write_doc(tmp_path, {"rank": 2, "generators": [[[1, 0]]]},
                       "bad2.json")
    code, _, err = run(capsys, ["analyze", ragged])
    assert code == 2 and "generators[0]" in err

    not_json = tmp_path / "bad3.json"
    not_json.write_text("{")
    code, _, err = run(capsys, ["analyze", str(not_json)])
    assert code == 2 and "invalid JSON" in err

    missing = run(capsys, ["analyze", str(tmp_path / "nope.json")])
    assert missing[0] == 2


MALFORMED = [
    ([1, 2], [], "top-level document must be a JSON object"),
    ({"rank": 2, "generators": {}}, [],
     "'generators' must be a list of matrices"),
    ({"rank": 2, "generators": [[[1, 0], [0]]]}, [],
     "generators[0][1] must have 2 entries"),
    ({"rank": 2, "generators": [[[1, True], [0, 1]]]}, [],
     "generators[0][0][1] must be an integer"),
    ({"rank": 2, "generators": [[[1, 0.5], [0, 1]]]}, [],
     "generators[0][0][1] must be an integer"),
    (dict(RANK2_DOC, base_override={"0": [1, 0]}), [],
     "base override must be a list of root vectors"),
    (dict(RANK2_DOC, base_override=[[1, 0, 0]]), [],
     "base_override[0] must be an integer vector of length 2"),
    ([RANK2_DOC], ["--base-override", "[[1, 0], [0, 1]]"],
     "top-level document must be a JSON object"),
    # well formed, but A2 has a base of 2 roots
    (RANK2_DOC, ["--base-override", "[[1, 0]]"],
     "base must have 2 roots, got 1"),
    # two variables printed under one name would make the text ambiguous
    (dict(RANK2_DOC, labels=["a", "a"]), [], "'labels' must be distinct"),
]


@pytest.mark.parametrize("doc, flags, message", MALFORMED, ids=[
    "list-document", "generators-object", "short-row", "boolean-entry",
    "float-entry", "base-object", "base-length", "override-on-list",
    "short-base", "repeated-labels"])
def test_malformed_document_exits_2(tmp_path, capsys, doc, flags, message):
    path = write_doc(tmp_path, doc)
    assert run(capsys, ["verdict", path, *flags]) == (
        2, "", f"error: {message}\n")


@pytest.mark.parametrize("doc", [
    # roots e1 and e2 with coroots (2, -3) and (-3, 2): a hyperbolic pair
    {"rank": 2, "generators": [[[-1, 0], [3, 1]], [[1, 3], [0, -1]]]},
    # roots e1, e2 and e1 with coroots 2e1, 2e2 and 2e1 + e2
    {"rank": 3, "generators": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]],
                               [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
                               [[-1, 0, 0], [-1, 1, 0], [0, 0, 1]]]},
    # root e1 with coroots (2, 0) and (2, 1)
    {"rank": 2, "generators": [[[-1, 0], [0, 1]], [[-1, 0], [-1, 1]]]},
    # roots e1 and e2 with coroots (2, 1) and (0, 2): e1 meets its second
    # coroot, (2, -1), in the walk
    {"rank": 2, "generators": [[[-1, 0], [-1, 1]], [[1, 0], [0, -1]]]},
    # the affine Weyl group of A1: roots e1 and e2 with coroots (2, -2)
    # and (-2, 2)
    {"rank": 2, "generators": [[[-1, 0], [2, 1]], [[1, 2], [0, -1]]]},
    # the affine Weyl group of A2: roots e1, e2 and e3 with coroots the
    # columns of its Cartan matrix
    {"rank": 3, "generators": [[[-1, 0, 0], [1, 1, 0], [1, 0, 1]],
                               [[1, 1, 0], [0, -1, 0], [0, 1, 1]],
                               [[1, 0, 1], [0, 1, 1], [0, 0, -1]]]},
], ids=["hyperbolic", "two-coroots", "e1", "mid-walk", "affine-A1",
        "affine-A2"])
def test_an_infinite_reflection_walk_exits_2_unclosed(tmp_path, capsys,
                                                      monkeypatch, doc):
    def no_closure(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", no_closure)
    path = write_doc(tmp_path, doc)
    assert run(capsys, ["verdict", path]) == (
        2, "", "error: closure exceeded 10000 elements; group is probably "
               "infinite\n")


def test_oversized_integer_exits_2(tmp_path, capsys):
    # json.loads raises ValueError, not JSONDecodeError, for an integer
    # past the interpreter's 4,300-digit conversion limit
    huge = "1" + "0" * 5000
    doc = tmp_path / "huge.json"
    doc.write_text('{"rank":1,"generators":[[[' + huge)
    code, out, err = run(capsys, ["analyze", str(doc)])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid JSON") and err.count("\n") == 1

    path = write_doc(tmp_path, RANK2_DOC)
    base_file = tmp_path / "base.json"
    base_file.write_text(f"[[{huge}, 0]]")
    for base in (f"[[{huge}, 0]]", str(base_file)):
        code, out, err = run(capsys, ["invariants", path,
                                      "--base-override", base])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse base override")
        assert err.count("\n") == 1


def test_deep_nesting_and_undecodable_bytes_exit_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, _, err = run(capsys, ["analyze", str(deep)])
    assert code == 2 and err.startswith("error: invalid JSON")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    code, _, err = run(capsys, ["analyze", str(binary)])
    assert code == 2 and err.startswith("error: cannot read")


def test_a_huge_rank_exits_2_before_any_basis_is_built(tmp_path, capsys):
    # the basis of Z^n alone would exhaust memory at this rank
    path = write_doc(tmp_path, {"rank": 10**6, "generators": []})
    start = time.perf_counter()
    code, out, err = run(capsys, ["analyze", path])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: 'rank' must be at most 256\n")
    path = write_doc(tmp_path, {"rank": 256, "generators": []})
    assert run(capsys, ["analyze", path])[0] == 0


def test_group_cap_flag(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, _, err = run(capsys, ["analyze", path, "--group-cap", "2"])
    assert code == 2
    assert "exceeded" in err


def generator_doc(gens):
    return {"rank": gens[0].nrows,
            "generators": [[list(r) for r in g.entries] for g in gens]}


def test_group_cap_bounds_a_reflection_group(tmp_path, capsys):
    # |G| = 6 comes from the root heights, and the cap binds the 3
    # (root, coroot) pairs walked, not |G|
    for doc in (RANK2_DOC, generator_doc(weyl_generators("A", 2))):
        path = write_doc(tmp_path, doc)
        code, out, err = run(capsys, ["analyze", path, "--group-cap", "2"])
        assert (code, out, err) == (
            2, "", "error: closure exceeded 2 elements; group is probably "
                   "infinite\n")
        code, out, _ = run(capsys, ["analyze", path, "--group-cap", "3"])
        assert code == 0 and "group order:         6" in out


def test_the_library_and_the_cli_agree_under_the_same_cap(tmp_path, capsys):
    # B6 and -1: |G| = 46080 from the 36 reflections walked, with -1
    # descending into W(B6); the cap bounds the 36 pairs, not |G|
    gens = weyl_generators("B", 6) + [minus_identity(6)]
    path = write_doc(tmp_path, generator_doc(gens))
    assert classify.verdict(GroupAction(6, gens)).status == "SemigroupAlgebra"
    code, out, err = run(capsys, ["verdict", path, "--json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["verdict"]["status"] == "SemigroupAlgebra"
    message = "closure exceeded 35 elements; group is probably infinite"
    with pytest.raises(GroupTooLarge) as exc:
        classify.verdict(GroupAction(6, gens, 35))
    assert str(exc.value) == message
    assert run(capsys, ["verdict", path, "--group-cap", "35"]) == (
        2, "", f"error: {message}\n")


def test_group_cap_stops_the_walk_of_a_finite_reflection_group(
        tmp_path, capsys, monkeypatch):
    # S6 has 15 reflections, more than the cap of 10, so the root walk
    # itself raises, and no element is listed
    def no_closure(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", no_closure)
    path = write_doc(tmp_path, generator_doc(weyl_generators("S", 6)))
    assert run(capsys, ["verdict", path, "--group-cap", "10"]) == (
        2, "", "error: closure exceeded 10 elements; group is probably "
               "infinite\n")


def test_s3_in_a_basis_with_40_digit_entries_answers_at_once(tmp_path,
                                                            capsys):
    # S3 permuting Z^3, conjugated by u = [[1, k, 0], [0, 1, k], [0, 0, 1]]
    # with k = 10^40: generator entries of up to 81 digits
    k = 10 ** 40
    u = IntMatrix([[1, k, 0], [0, 1, k], [0, 0, 1]])
    u_inv = IntMatrix([[1, -k, k * k], [0, 1, -k], [0, 0, 1]])
    gens = [IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    path = write_doc(tmp_path, generator_doc([u * g * u_inv for g in gens]))
    start = time.perf_counter()
    for command in ("analyze", "verdict", "invariants", "hilbert-basis",
                    "classgroup"):
        code, out, err = run(capsys, [command, path, "--json"])
        assert (code, err) == (0, "")
        if command == "analyze":
            report = json.loads(out)
            assert (report["group_order"], report["reflection_count"],
                    report["fixed_rank"]) == (6, 3, 1)
            assert report["verdict"]["rule"] == "reflection-invariants"
    assert run(capsys, ["singular-locus", path]) == (
        2, "", "error: every element must be diagonal with +-1 entries\n")
    # about 0.02 s in all; the bound only catches a blow-up
    assert time.perf_counter() - start < 10


def test_an_oversized_weight_box_exits_2_before_it_is_listed(tmp_path, capsys):
    # A10 on its root lattice: the fundamental weights have order 11
    # modulo the root lattice, so the half-open box prod([0, 11)) holds
    # 11^10 / 11 lattice points
    path = write_doc(tmp_path, generator_doc(root_lattice_generators("A", 10)))
    for command in ("verdict", "hilbert-basis"):
        start = time.perf_counter()
        code, out, err = run(capsys, [command, path])
        assert (code, out, err) == (
            2, "", "error: the weight box holds up to 2357947691 lattice "
                   "points, more than the 4000000 that can be listed\n")
        assert time.perf_counter() - start < 5.0


def test_the_printed_closed_box_is_bounded_too(tmp_path, capsys, monkeypatch):
    # A2: the half-open box holds 3 points, the closed box prod([0, 3])
    # at most 4 * 2 (upper Hermite diagonal 1, 3)
    monkeypatch.setattr(monoid, "MAX_BOX_POINTS", 5)
    path = write_doc(tmp_path, RANK2_DOC)
    assert run(capsys, ["verdict", path])[0] == 0
    assert run(capsys, ["hilbert-basis", path]) == (
        2, "", "error: the weight box holds up to 8 lattice points, more "
               "than the 5 that can be listed\n")


def test_an_oversized_expansion_exits_2_before_an_orbit_is_walked(
        tmp_path, capsys, monkeypatch):
    # A4 on Z^5: the invariants print 2874 terms, counted from the root
    # heights before any orbit of an invariant is expanded
    def no_expansion(*args):
        raise AssertionError("an orbit was expanded")

    path = write_doc(tmp_path, generator_doc(weyl_generators("A", 4)))
    with monkeypatch.context() as patch:
        patch.setattr(laurent, "MAX_INVARIANT_TERMS", 2873)
        patch.setattr(laurent, "_walk_down", no_expansion)
        assert run(capsys, ["invariants", path]) == (
            2, "", "error: the invariants expand to 2874 terms, more than "
                   "the 2873 that can be listed\n")
    monkeypatch.setattr(laurent, "MAX_INVARIANT_TERMS", 2874)
    assert run(capsys, ["invariants", path])[0] == 0


def test_an_expansion_past_the_bound_lists_no_orbit(tmp_path, capsys,
                                                    monkeypatch):
    # D_n on Z^n: the sum of |W row| over the rows, each row a term of its
    # own, bounds the terms from below and is refused before the products
    # list any orbit; D5's rows give 242, and its invariants 463 terms
    def no_orbit(*args):
        raise AssertionError("an orbit was listed")

    path = write_doc(tmp_path, generator_doc(weyl_generators("D", 5)))
    message = ("error: the invariants expand to {} terms, more than the {} "
               "that can be listed\n")
    with monkeypatch.context() as patch:
        patch.setattr(laurent, "MAX_INVARIANT_TERMS", 241)
        patch.setattr(laurent, "weight_orbit", no_orbit)
        patch.setattr(laurent, "_walk_down", no_orbit)
        assert run(capsys, ["invariants", path]) == (
            2, "", message.format("at least 242", 241))
    monkeypatch.setattr(laurent, "MAX_INVARIANT_TERMS", 242)
    assert run(capsys, ["invariants", path]) == (
        2, "", message.format(463, 242))
    # D26 walks 650 reflections, under the default cap, but the orbit of
    # its row 2 w_26 alone has 2^25 weights
    monkeypatch.undo()
    monkeypatch.setattr(laurent, "weight_orbit", no_orbit)
    path = write_doc(tmp_path, generator_doc(weyl_generators("D", 26)))
    start = time.perf_counter()
    assert run(capsys, ["invariants", path]) == (
        2, "", message.format("at least 2541865828328", 10000000))
    assert time.perf_counter() - start < 5.0


def test_reflection_group_commands_list_no_element(tmp_path, capsys,
                                                   monkeypatch):
    def no_closure(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", no_closure)
    # every group answers under the default cap of 10000, which bounds
    # the reflections walked (at most 120, for E8), not |G|
    runs = [("verdict", weyl_generators("S", 6)),
            ("verdict", weyl_generators("D", 5)),
            ("verdict", weyl_generators("B", 5)),
            ("verdict", root_lattice_generators("E", 8)),
            ("analyze", weyl_generators("B", 4))]
    # a generator that is no reflection moves the pairs by conjugation
    # and descends to the identity: S9 from (1 2) and the 9-cycle, and
    # -1, which lies in W(B7) and W(E8)
    cycle = IntMatrix([[int(j == (i + 1) % 9) for j in range(9)]
                       for i in range(9)])
    runs += [(command, gens)
             for gens in ([weyl_generators("S", 9)[0], cycle],
                          weyl_generators("B", 7) + [minus_identity(7)],
                          root_lattice_generators("E", 8)
                          + [minus_identity(8)])
             for command in ("verdict", "analyze")]
    for n in (6, 7, 8):
        runs += [(command, root_lattice_generators("E", n))
                 for command in ("verdict", "classgroup", "analyze")]
    for command, gens in runs:
        path = write_doc(tmp_path, generator_doc(gens))
        start = time.perf_counter()
        code, out, err = run(capsys, [command, path, "--json"])
        assert (command, len(gens), code, err) == (command, len(gens), 0, "")
        assert time.perf_counter() - start < 5.0
    report = json.loads(out)  # analyze on E8
    assert (report["group_order"], report["reflection_count"],
            report["ideal_height"]) == (696729600, 120, 1)


@pytest.mark.parametrize("gens", [
    # s_e1 and a hyperbolic h: the walk meets h^-1 s_e1 h = s_(2, 1),
    # which with s_e1 fails the dihedral rule
    [[[-1, 0], [0, 1]], [[2, 1], [1, 1]]],
    # s_e1 on Z^3 and a shear of e2 and e3: W_N = <s_e1> is finite, and
    # the complement, the shear's powers, is closed to the cap of 10000
    [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]],
], ids=["reflection+hyperbolic", "reflection+shear"])
def test_an_infinite_group_with_a_reflection_exits_2_at_once(tmp_path, capsys,
                                                             gens):
    path = write_doc(tmp_path, {"rank": len(gens[0]), "generators": gens})
    for command in ("analyze", "verdict"):
        start = time.perf_counter()
        assert run(capsys, [command, path]) == (
            2, "", "error: closure exceeded 10000 elements; group is "
                   "probably infinite\n")
        # about 0.03 s for the shear's 5,000 powers; the bound only
        # catches a closure run to the whole cap or beyond
        assert time.perf_counter() - start < 2.0


def test_labels_are_used_in_rendering(tmp_path, capsys):
    doc = dict(RANK2_DOC)
    doc["labels"] = ["x", "y"]
    doc["base_override"] = [list(b) for b in BASE_RANK2]
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, ["invariants", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert "x*y^-1" in report["invariants"][2]["expanded"]


def test_boolean_rank_exits_2(tmp_path, capsys):
    for rank in (True, False):
        path = write_doc(tmp_path, {"rank": rank, "generators": []})
        code, _, err = run(capsys, ["analyze", path])
        assert code == 2 and "'rank'" in err


def test_nonpositive_group_cap_exits_2(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    for cap in ("0", "-5"):
        code, _, err = run(capsys, ["analyze", path, "--group-cap", cap])
        assert code == 2 and "--group-cap" in err


def test_analyze_computes_each_group_fact_once(tmp_path, capsys,
                                               monkeypatch):
    # S3 permuting the coordinates of Z^3: order 6, fixed rank 1, and an
    # induced action of order 6 on the rank-2 effective quotient
    doc = {
        "rank": 3,
        "generators": [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        ],
    }
    calls = {"close_group": 0, "rank": 0}
    close_group = groups.close_group
    rank = IntMatrix.rank

    def counted_close_group(*args, **kwargs):
        calls["close_group"] += 1
        return close_group(*args, **kwargs)

    def counted_rank(self):
        calls["rank"] += 1
        return rank(self)

    # roots no longer imports close_group; patched there all the same, a
    # call that came back through it would be counted
    for module in (groups, roots, classify, cli):
        monkeypatch.setattr(module, "close_group", counted_close_group,
                            raising=False)
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    code, out, _ = run(capsys, ["analyze", write_doc(tmp_path, doc),
                                "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["group_order"], report["fixed_rank"]) == (6, 1)
    # the input group only: reflection generation is |G| against |W'|,
    # and analyze reads only the fixed rank, so the induced quotient group
    # is never built
    assert calls["close_group"] == 1
    # G has reflections, so its least displacement rank is 1 without a
    # rank(1 - g); the one rank is that of the root span, and the base is
    # checked inside the elimination that gives the roots' base
    # coordinates
    assert calls["rank"] <= 1
    # rot90 x -1 on Z^3 has no reflection: analyze reads the least
    # displacement rank for the ideal height and verdict reads it again,
    # and its three nonidentity elements all have the trace bound 2
    calls["rank"] = 0
    rot = {"rank": 3, "generators": [[[0, 1, 0], [-1, 0, 0], [0, 0, -1]]]}
    code, out, _ = run(capsys, ["analyze", write_doc(tmp_path, rot),
                                "--json"])
    assert code == 0
    assert json.loads(out)["ideal_height"] == 2
    assert calls["rank"] <= 1


def test_classgroup_computes_each_group_fact_once(tmp_path, capsys,
                                                  monkeypatch):
    # S5 permuting the coordinates of Z^5: the class group is one Smith
    # form over the generators, so only the input group is closed and only
    # the fundamental group needs a root system
    gens = weyl_generators("S", 5)
    doc = {"rank": 5, "generators": [[list(r) for r in g.entries]
                                     for g in gens]}
    calls = {"close_group": 0, "build_root_system": 0,
             "smith_normal_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    close_group = counted("close_group", groups.close_group)
    build_root_system = counted("build_root_system", roots.build_root_system)
    for module in (groups, roots, classify, cli):
        monkeypatch.setattr(module, "close_group", close_group,
                            raising=False)
        monkeypatch.setattr(module, "build_root_system", build_root_system,
                            raising=False)
    # the Smith forms class_group takes itself; S5 on Z^5 has no
    # diagonalizable reflection, so no kernel lattice is needed either
    monkeypatch.setattr(classify, "smith_normal_form", counted(
        "smith_normal_form", classify.smith_normal_form))
    code, out, _ = run(capsys, ["classgroup", write_doc(tmp_path, doc),
                                "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["class_group"]["description"] == "trivial"
    assert report["fundamental_group"]["description"] == "Z/5"
    assert calls == {"close_group": 1, "build_root_system": 1,
                     "smith_normal_form": 1}


def test_invariants_expand_without_group_orbits_or_polynomial_products(
        tmp_path, capsys, monkeypatch):
    # A4 on its root lattice: order 120 and 14 Hilbert-basis elements; the
    # orbits are walked in weight coordinates and multiplied as dicts
    gens = weyl_generators("A", 4)
    doc = {"rank": 4, "generators": [[list(r) for r in g.entries]
                                     for g in gens]}
    calls = []
    mul = LaurentPolynomial.__mul__
    monkeypatch.setattr(LaurentPolynomial, "__mul__",
                        lambda p, q: calls.append(q) or mul(p, q))
    code, out, _ = run(capsys, ["invariants", write_doc(tmp_path, doc),
                                "--json"])
    assert code == 0
    assert len(json.loads(out)["invariants"]) == 14
    assert calls == []


def test_parser_is_built_once_and_answers_as_a_fresh_one(tmp_path, capsys,
                                                        monkeypatch):
    path = write_doc(tmp_path, RANK2_DOC)
    calls = (["analyze", path], ["analyze", path, "--group-cap", "many"],
             ["--help"], ["verdict", path, "--json"])

    def outcomes():
        got = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            got.append((code, *capsys.readouterr()))
        return got

    assert cli.build_parser() is cli.build_parser()
    memoised = outcomes()
    assert [code for code, _, _ in memoised] == [0, ("exit", 2),
                                                 ("exit", 0), 0]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert memoised == outcomes()


TRIVIAL_DOCS = {
    "rank3": {"rank": 3, "generators": []},
    "rank0": {"rank": 0, "generators": []},
    "identity": {"rank": 2, "generators": [[[1, 0], [0, 1]]]},
    "identity-twice": {"rank": 2,
                       "generators": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]},
}


def trivial_group_runs(rank: int) -> dict:
    """{(command, flags): (exit code, stdout, stderr)} for the trivial
    group on Z^rank, as the commands answered before the trivial group
    went through the general root, class-group and fixed-lattice code."""
    detail = ("the action is trivial, so the invariants form the group "
              "algebra of the full lattice")
    verdict = {"detail": detail,
               "monoid": {"generator_count": 0, "hilbert_basis": [],
                          "multipliers": [], "units_rank": rank},
               "rule": "group-algebra", "status": "SemigroupAlgebra"}
    verdict_text = f"verdict: SemigroupAlgebra [group-algebra]\n  {detail}\n"
    reports = {
        "analyze": (
            f"rank:                {rank}\n"
            "group order:         1\n"
            "reflections:         0\n"
            "reflection group:    True\n"
            f"fixed rank:          {rank}\n"
            "effective rank:      0\n"
            "ideal height:        -\n"
            "fixed point free:    True (on the effective quotient)\n"
            + verdict_text,
            {"command": "analyze", "effective_rank": 0,
             "fixed_point_free_on_quotient": True, "fixed_rank": rank,
             "group_order": 1, "ideal_height": None,
             "is_reflection_group": True, "rank": rank,
             "reflection_count": 0, "verdict": verdict}),
        "invariants": (
            "base:        []\nmultipliers: []\nhilbert basis: []\n",
            {"base": [], "command": "invariants", "hilbert_basis": [],
             "invariants": [], "labels": list("abc"[:rank]),
             "multipliers": [], "weights": []}),
        "classgroup": (
            "class group:       trivial\n"
            "fundamental group: trivial (weight lattice / root lattice)\n",
            {"class_group": {"description": "trivial", "divisors": []},
             "command": "classgroup",
             "fundamental_group": {"description": "trivial",
                                   "divisors": []}}),
        "hilbert-basis": (
            "multipliers:   []\nbox points:    [[]]\nhilbert basis: []\n"
            f"units rank:    {rank}\n",
            {"box_points": [[]], "command": "hilbert-basis",
             "cone_rays": [], "hilbert_basis": [], "multipliers": [],
             "units_rank": rank}),
        "verdict": (verdict_text,
                    {"command": "verdict", "verdict": verdict}),
    }
    runs = {}
    for command, (text, report) in reports.items():
        runs[command, ()] = (0, text, "")
        runs[command, ("--json",)] = (
            0, json.dumps(report, sort_keys=True, indent=2) + "\n", "")
    error = "error: sign-group analysis needs a nontrivial group\n"
    for flags in ((), ("--json",)):
        runs["singular-locus", flags] = (2, "", error)
    return runs


@pytest.mark.parametrize("doc", TRIVIAL_DOCS.values(), ids=TRIVIAL_DOCS)
def test_trivial_group_answers_every_command_as_before(tmp_path, capsys,
                                                       doc):
    path = write_doc(tmp_path, doc)
    runs = trivial_group_runs(doc["rank"])
    assert {command for command, _ in runs} == set(cli.COMMANDS)
    for (command, flags), expected in runs.items():
        assert run(capsys, [command, path, *flags]) == expected, \
            (command, flags)


@pytest.mark.parametrize("rank", (0, 3))
def test_the_trivial_group_lists_no_element(tmp_path, capsys, monkeypatch,
                                            rank):
    # no generator: the complement is the identity alone, listed without
    # a closure, and every command but singular-locus answers from there
    def no_closure(*args):
        raise AssertionError("the element list was built")

    monkeypatch.setattr(groups, "_close", no_closure)
    assert groups.close_group([], rank=rank).order == 1
    path = write_doc(tmp_path, {"rank": rank, "generators": []})
    runs = trivial_group_runs(rank)
    for command in ("analyze", "verdict", "invariants", "hilbert-basis",
                    "classgroup"):
        for flags in ((), ("--json",)):
            assert run(capsys, [command, path, *flags]) == \
                runs[command, flags], (command, flags)


def test_a_base_override_on_the_trivial_group_is_checked(tmp_path, capsys):
    # the trivial group has no roots, so its base is empty, and a base of
    # one vector is refused as it is for any group of another rank, also
    # by analyze and verdict, which need no root datum; singular-locus
    # reads no base, so it takes none
    path = write_doc(tmp_path, TRIVIAL_DOCS["identity"])
    refused = (2, "", "error: singular-locus takes no base override\n")
    for command in cli.COMMANDS:
        assert run(capsys, [command, path, "--base-override", "[]"]) == (
            refused if command == "singular-locus"
            else trivial_group_runs(2)[command, ()]), command
        assert run(capsys, [command, path, "--base-override", "[[7, 7]]"]) \
            == (refused if command == "singular-locus" else
                (2, "", "error: base must have 0 roots, got 1\n")), command


@pytest.mark.parametrize("doc, bases", [
    ({"rank": 2, "generators": [[[-1, 0], [0, -1]]]}, ("[]", "[[7, 7]]")),
    (SIGN3_DOC, ("[]", "[[1, 0, 0]]")),
], ids=["minus-identity", "sign-group"])
def test_a_base_override_on_a_group_without_reflections_is_refused(
        tmp_path, capsys, doc, bases):
    # no base of roots is read for a group without reflections, so every
    # command refuses any base, the empty one too, also the three that
    # answer without one, rather than ignore it
    path = write_doc(tmp_path, doc)
    refused = "base override refused: the group contains no reflections"
    errors = {"classgroup": "class group formula needs a reflection group",
              "singular-locus": "singular-locus takes no base override",
              "analyze": refused, "verdict": refused}
    for command in cli.COMMANDS:
        assert (run(capsys, [command, path])[0] == 0) == (
            command in ("analyze", "verdict", "singular-locus")), command
        message = errors.get(command, "the group contains no reflections")
        for base in bases:
            assert run(capsys, [command, path, "--base-override", base]) \
                == (2, "", f"error: {message}\n"), (command, base)


def test_a_base_override_refused_by_analyze_and_verdict_names_the_override(
        tmp_path, capsys):
    # S3 permuting Z^3, times -I: the transpositions generate S3 alone, so
    # the two commands answer the group, but refuse a base of its roots
    path = write_doc(tmp_path, {"rank": 3, "generators": [
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]]})
    for command in ("analyze", "verdict"):
        assert run(capsys, [command, path])[0] == 0, command
        assert run(capsys, [command, path, "--base-override",
                            "[[1, -1, 0], [0, 1, -1]]"]) == (
            2, "", "error: base override refused: the reflections generate "
            "a proper subgroup\n"), command
