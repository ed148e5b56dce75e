import json
import time

from multinv import classify, cli, groups, roots
from multinv.cli import main
from multinv.lattice import IntMatrix
from helpers import BASE_RANK2

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
    code, _, err = run(capsys, ["analyze", bad_det])
    assert code == 2 and "determinant" in err

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


def test_group_cap_flag(tmp_path, capsys):
    path = write_doc(tmp_path, RANK2_DOC)
    code, _, err = run(capsys, ["analyze", path, "--group-cap", "3"])
    assert code == 2
    assert "exceeded" in err


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

    for module in (groups, roots, classify, cli):
        monkeypatch.setattr(module, "close_group", counted_close_group)
    monkeypatch.setattr(IntMatrix, "rank", counted_rank)
    code, out, _ = run(capsys, ["analyze", write_doc(tmp_path, doc),
                                "--json"])
    assert code == 0
    report = json.loads(out)
    assert (report["group_order"], report["fixed_rank"]) == (6, 1)
    # the input group and the reflection subgroup; analyze reads only the
    # fixed rank, so the induced quotient group is never built
    assert calls["close_group"] == 2
    # rank(1 - g) once per nonidentity element of G (the induced group
    # needs none), plus the root-span and base checks of the root system
    assert calls["rank"] <= (6 - 1) + 2
