"""End-to-end command-line behavior, run in process."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rigidity import cli, counting, errors
from rigidity.groupspec import GroupSpec


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_process(argv, **env):
    """`python -m rigidity.cli` on argv in a new interpreter, with env added."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "rigidity.cli", *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True, timeout=300,
    )


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err or out
    return json.loads(out)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "1.0.0"


def test_order_structured(capsys):
    data = run_json(capsys, "order", "Sym(5)")
    assert data["order"] == 120
    assert data["command"] == "order"
    assert data["input"] == "Sym(5)"
    assert data["constructor"] == "Sym"
    assert len(data["generators"]) == 2


def test_order_text(capsys):
    code, out, _ = run(capsys, "order", "Omega3(5)")
    assert code == 0
    assert "order: 60" in out


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, "order", "Sym(50)")
    assert code == 3
    assert "cap" in err
    code, _, _ = run(capsys, "order", "Sym(5)", "--cap", "10")
    assert code == 3


def test_usage_errors(capsys):
    assert run(capsys, "order", "Sym(")[0] == 2
    assert run(capsys, "order", "Foo(3)")[0] == 2
    assert run(capsys, "order", "Sym(5)", "--cap", "0")[0] == 2
    assert run(capsys, "order", "Sym(5)", "--threads", "0")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.GroupSpecError("bad spec", 3), 2),
        (errors.UnknownConstructorError("no such constructor"), 2),
        (errors.UnsupportedModulusError("modulus 11"), 2),
        (errors.IncompatibleGeneratorsError("mixed generators"), 2),
        (errors.SingularMatrixError("singular"), 2),
        (errors.CapExceededError("over the cap"), 3),
        (errors.SplitFailureError("no prime split"), 1),
        (errors.NonIntegerResultError("non-integer count"), 1),
        (errors.VerificationError("routes disagree"), 1),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None,
)
def test_typed_errors_map_to_exit_codes(capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "order", fail)
    status, out, err = run(capsys, "order", "Sym(3)")
    assert status == code
    assert out == ""
    assert err == f"error: {error}\n"


def test_out_of_memory_exits_with_the_cap_code(capsys, monkeypatch):
    def fail(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "order", fail)
    status, out, err = run(capsys, "order", "Sym(3)")
    assert status == 3
    assert out == ""
    assert err == "error: out of memory\n"


def test_classes_output(capsys):
    data = run_json(capsys, "classes", "Alt(5)")
    sizes = [c["size"] for c in data["classes"]]
    assert sizes == [1, 15, 20, 12, 12]
    orders = [c["element-order"] for c in data["classes"]]
    assert orders == [1, 2, 3, 5, 5]
    for c in data["classes"]:
        assert c["size"] * c["centralizer-order"] == 60


def test_selector_forms(capsys):
    data = run_json(capsys, "count", "Sym(5)", "order2size10", "id:4", "id:5")
    assert data["class-ids"] == [1, 4, 5]
    assert data["count"] == 120
    assert data["count-identity"] is True


def test_selector_errors(capsys):
    code, _, err = run(capsys, "count", "Sym(5)", "id:99", "id:1", "id:1")
    assert code == 2
    code, _, err = run(capsys, "count", "Sym(5)", "order7size10", "id:1", "id:1")
    assert code == 2
    assert "no class" in err
    # two order-5 classes of size 12 in Alt(5) make this ambiguous
    code, _, err = run(capsys, "count", "Alt(5)", "order5size12", "id:1", "id:1")
    assert code == 2
    assert "ambiguous" in err
    assert "id:" in err


@pytest.mark.parametrize("command", ["count", "rigid"])
def test_one_class_selector_is_a_usage_error(capsys, command):
    # the one arity check is the counting routes' own
    code, out, err = run(capsys, command, "Sym(4)", "id:1")
    assert (code, out) == (2, "")
    assert err == "error: need at least 2 classes, got 1\n"


@pytest.mark.parametrize(
    "token",
    ["id:1_0", "id: 1", "id:+1", "id:\u0661"],
    ids=["underscore", "space", "sign", "arabic-indic-digit"],
)
def test_id_selectors_take_ascii_digits_only(capsys, token):
    # int() would read each of these as a class id
    code, out, err = run(capsys, "count", "Sym(6)", token, "id:1", "id:1")
    assert (code, out) == (2, "")
    assert err == f"error: bad class selector {token!r}\n"


@pytest.mark.parametrize(
    "token",
    ["order\u0662size10", "order2size\u0661\u0660", "order2size10\n"],
    ids=["arabic-indic-order", "arabic-indic-size", "trailing-newline"],
)
def test_order_size_selectors_take_ascii_digits_only(capsys, token):
    # int() would read each of these as order 2, size 10: a class of Sym(5)
    code, out, err = run(capsys, "count", "Sym(5)", token, "id:4", "id:5")
    assert (code, out) == (2, "")
    assert err == f"error: bad class selector {token!r}; use id:N or orderNsizeM\n"


def test_rigid_order_mode_takes_ascii_digits_only(capsys):
    # int() would read U+0662 as 2 and run the (2, 4, 5) census
    code, out, err = run(capsys, "rigid", "Sym(5)", "\u0662", "4", "5")
    assert (code, out) == (2, "")
    assert err == "error: bad class selector '\u0662'; use id:N or orderNsizeM\n"


def test_chartab_structured(capsys):
    data = run_json(capsys, "chartab", "Cyc(3)")
    assert data["degrees"] == [1, 1, 1]
    cube_root_terms = data["rows"][1][2]
    assert cube_root_terms["conductor"] == 3
    assert cube_root_terms["terms"] == [[1, 1, 1]]


def test_chartab_oracle_pass(capsys):
    data = run_json(capsys, "chartab", "Sym(4)", "--oracle")
    assert data["oracle-status"] == "pass"
    assert data["oracle-diff"] == []


def test_chartab_oracle_requires_symmetric_spec(capsys):
    code, _, err = run(capsys, "chartab", "Dih(4)", "--oracle")
    assert code == 2
    assert "Sym" in err


def test_chartab_oracle_is_checked_before_enumeration(capsys, monkeypatch):
    def refuse(spec, cap):
        raise AssertionError(f"{spec.text} was enumerated")

    monkeypatch.setattr(GroupSpec, "build", refuse)
    for spec in ("Alt(8)", "Sym(8)", "Cyc(3)", "Perm(3; (0 1 2))"):
        assert run(capsys, "chartab", spec, "--oracle") == (
            2,
            "",
            "error: --oracle needs a Sym(n) group with n <= 7\n",
        )


def test_chartab_oracle_range_precedes_the_cap(capsys):
    # a too-large Sym(n) with --oracle is a usage error, not a cap error (3)
    code, _, err = run(capsys, "chartab", "Sym(8)", "--oracle", "--cap", "100")
    assert code == 2
    assert err == "error: --oracle needs a Sym(n) group with n <= 7\n"
    assert run(capsys, "chartab", "Sym(0)", "--oracle")[2] == "error: degree must be ≥ 1, got 0\n"


def test_order_of_a_permutation_degree_past_two_bytes(capsys):
    data = run_json(capsys, "order", "Perm(70000; (0 1))")
    assert data["order"] == 2
    assert data["generators"] == ["(0 1)"]


def test_count_pair(capsys):
    data = run_json(capsys, "count", "Sym(3)", "id:1", "id:1")
    assert data["count"] == 3
    assert "class-algebra-constant" not in data


def test_triples_census(capsys):
    data = run_json(capsys, "triples", "Alt(4)", "2", "2", "2")
    census = data["census"]
    assert census["orders"] == [2, 2, 2]
    assert census["total"] == 6
    assert len(census["orbits"]) == 2
    for orbit in census["orbits"]:
        assert orbit["size"] == 3
        assert orbit["stabilizer-order"] == 4
        assert orbit["subgroup-order"] == 4


def test_rigid_order_mode(capsys):
    data = run_json(capsys, "rigid", "Sym(5)", "2", "4", "5")
    assert data["mode"] == "orders"
    assert data["census"]["total"] == 120
    verdicts = {
        tuple(v["class-ids"]): (v["verdict"], v["count"])
        for v in data["per-tuple-verdicts"]
    }
    assert verdicts == {(1, 4, 5): ("rigid", 120), (2, 4, 5): ("empty", 0)}


@pytest.mark.parametrize(
    "selectors",
    [("2", "4", "5"), ("id:1", "id:4", "id:5")],
    ids=["orders", "classes"],
)
def test_rigid_checks_zero_counts_against_scan(capsys, monkeypatch, selectors):
    # a character route that says "no solutions" must not hide the scan's 120
    def zero(CT, class_ids):
        return 0

    monkeypatch.setattr(counting, "frobenius_count", zero)
    monkeypatch.setattr(cli, "frobenius_count", zero)
    code, out, err = run(
        capsys, "rigid", "Sym(5)", *selectors, "--format", "structured"
    )
    assert code == 1
    assert out == ""
    assert "disagrees with scan 120" in err


def test_rigid_scan_cap_counts_a_scan_over_every_first_entry(capsys):
    # the cap bounds the product of all class sizes but the largest, as if
    # every x₁ were scanned: 10·24 for (1, 4, 5) and 15·24 for (2, 4, 5)
    code, _, err = run(capsys, "rigid", "Sym(5)", "2", "4", "5", "--cap", "359")
    assert code == 3
    assert "scan needs 360 iterations, exceeding cap 359" in err
    assert run(capsys, "rigid", "Sym(5)", "2", "4", "5", "--cap", "360")[0] == 0


def test_oracle_scan_cap_is_checked_per_triple(capsys):
    # the largest scan among Sym(4)'s class triples is 8·8, for the class of
    # 3-cycles three times; recorded while every triple was scanned on its own
    code, out, err = run(capsys, "oracle", "Sym(4)", "--cap", "63")
    assert (code, out, err) == (3, "", "error: scan needs 64 iterations, exceeding cap 63\n")
    code, out, err = run(capsys, "oracle", "Sym(4)", "--cap", "64")
    assert (code, err) == (0, "")
    assert out == run(capsys, "oracle", "Sym(4)")[1]


def _memoized_rows(capsys, monkeypatch, argv):
    """(class table, Cayley rows memoized, stdout) after one passing command."""
    tables = []
    classes = cli.conjugacy_classes
    monkeypatch.setattr(cli, "conjugacy_classes", lambda G: tables.append(classes(G)) or tables[-1])
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    (T,) = tables
    return T, sum(row is not None for row in T.group._rows), out


@pytest.mark.parametrize(
    "argv, pair_scan",
    [(("rigid", "Sym(6)", "2", "4", "5"), False), (("oracle", "Sym(5)"), True)],
    ids=["census", "oracle"],
)
def test_scan_memoizes_at_most_two_rows_per_class(capsys, monkeypatch, argv, pair_scan):
    T, rows, _ = _memoized_rows(capsys, monkeypatch, argv)
    if pair_scan:
        # the all-triples loop scans by pairs, each product by key arithmetic
        assert rows == 0
    else:
        assert 0 < rows <= 2 * T.num_classes


@pytest.mark.parametrize(
    "argv, bound, digest",
    [
        (
            ("rigid", "Sym(6)", "id:2", "id:4", "id:4", "id:2"),
            41,
            "118f1278ab5ce6a5778789340851206cf689211ac99f2c426d493f1d6c4801ee",
        ),
        (
            ("rigid", "Mat(7, 2; [1 1 0 1], [0 6 1 0])", "id:2", "id:3", "id:4", "id:5"),
            43,
            "e55132f7a7f09b13f935899b41eaa2ce5997c445740865bede1deeb6afb3ce91",
        ),
    ],
    ids=["Sym(6)", "SL(2,7)"],
)
def test_four_class_scan_memoizes_no_more_rows(capsys, monkeypatch, argv, bound, digest):
    # a scan of 4 classes memoizes one row per distinct partial product; the
    # bounds and digests were recorded before the scan loop lost its scratch list
    _, rows, out = _memoized_rows(capsys, monkeypatch, argv)
    assert rows <= bound
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_headline_census_output_is_pinned(capsys):
    # recorded before the scan was reduced by conjugation: total 10080, 2 orbits
    code, out, err = run(capsys, "rigid", "Sym(7)", "2", "3", "7", "--format", "structured")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "76a58833f784c029b4a8ca5d8127a046bb9bb51857ef87a32c93cadf6248e286"
    )


def test_sym7_character_table_output_is_pinned(capsys):
    # recorded before products of valid elements were built unchecked
    code, out, err = run(capsys, "chartab", "Sym(7)")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "af3265af5df64e4dc9db147d3fa4742695419e67cdcc66398dd3d1692f91019a"
    )


def test_sym8_character_table_output_is_pinned(capsys):
    # recorded before class matrices were built on demand and eigenvalues
    # found as roots of the restricted characteristic polynomial
    code, out, err = run(capsys, "chartab", "Sym(8)")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b88b486ae128937d84f1ee5a79d25b24135d033446917f118323dd9b1d04d9d3"
    )


@pytest.mark.parametrize(
    "spec, digest",
    [
        (
            # SL(2,11): columns at conductors 1, 5, 11 and 12, the table at 660
            "Mat(11, 2; [1 1 0 1], [0 10 1 0])",
            "be66f4e0cbfdbd0d0c76c68f40c6889a9ec7b9aaaaf85d3a3fc3d580dfc57aaf",
        ),
        (
            # SL(2,13): columns at conductors 1, 7, 12 and 13, the table at 1092
            "Mat(13, 2; [1 1 0 1], [0 12 1 0])",
            "b47156561eaaf5766b0f5bf0961e1411dd4533e4d6d0751d298335996fb35dd8",
        ),
        (
            # columns at conductors 1, 3, 5 and 15
            "Cyc(30)",
            "8392768926be273e2b8ebed5c241c7c799444293c31b2151e84b81c19895d441",
        ),
        (
            # GL(2,5): columns at conductors 1, 4 and 24
            "Mat(5, 2; [2 0 0 1], [1 1 0 1], [0 4 1 0])",
            "84c4a9a8c8194675f71acb3f248c17ed546b6f2ac1f92adaffa42ccd78f98401",
        ),
        (
            # values at 18 descend to 9 by the trace for p = 2, then every 3rd coordinate is read
            "Cyc(18)",
            "5bfe40f737b37b65526d744452c5c03cf7095abc5d87f8ddadc91492f39ed0c7",
        ),
    ],
    ids=["SL(2,11)", "SL(2,13)", "Cyc(30)", "GL(2,5)", "Cyc(18)"],
)
def test_multi_conductor_table_outputs_are_pinned(capsys, spec, digest):
    # columns at several conductors, so the orthogonality check pairs them at
    # different lcms; recorded while it still ran at the table's one conductor
    code, out, err = run(capsys, "chartab", spec)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_multi_conductor_oracle_output_is_pinned(capsys):
    # SL(2,11): 3375 class triples whose sums run at each multiset's
    # conductor; recorded while every sum still ran at the table's 660
    code, out, err = run(
        capsys, "oracle", "Mat(11, 2; [1 1 0 1], [0 10 1 0])", "--format", "structured"
    )
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b203913c3dffe77e712aca2e3fa4442e80edcd20fcc98bf0fdc4e01722fd85db"
    )


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("chartab", "Alt(8)"),
            "ceb61bc84113afca59e564f0e3285b13523b60b93d60d7361ef514ebeaa543f5",
        ),
        (
            ("rigid", "Alt(8)", "2", "4", "5"),
            "3378110967711e9347bfb6f48c9b30bed7df34ede384132dd3e2023b29fc71c3",
        ),
        (
            # the split reads 16 of its 17 non-identity class matrices here
            ("chartab", "Alt(9)"),
            "b41c50c9c2d9523b8980a47629a477284a114c4d464c4a067129ddd24647f406",
        ),
    ],
    ids=["chartab-Alt(8)", "rigid-Alt(8)", "chartab-Alt(9)"],
)
def test_alternating_table_outputs_are_pinned(capsys, argv, digest):
    # recorded while the split still counted whole class matrices
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("chartab", "Sym(7)", "--oracle", "--format", "structured"),
            "30e4ba3baa72ad009b58f3000465084f9a6efe51b79d6f9e26aa7294e091e03e",
        ),
        (
            ("chartab", "Sym(5)", "--oracle"),
            "48e1fa9ba244d116ed99814679dbfc13415150cbdd13507630b1b7ce5cc654c2",
        ),
        (
            ("paper-audit", "--section", "4"),
            "9c036b5a58d1a4c061d8e81dc3ecf3e840a95f09dc8d892c477cdfc6f0159eb6",
        ),
    ],
    ids=["oracle-Sym(7)-structured", "oracle-Sym(5)-text", "audit-section-4"],
)
def test_oracle_outputs_are_pinned(capsys, argv, digest):
    # recorded while the oracle still sorted its own columns and was realigned
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "spec, digest",
    [
        ("Sym(8)", "999099e155de656639577b300a1d42faac05115a2bde4e675bb4264145107576"),
        # wrapped from a closed element list, so its generators have no tree
        ("SO3(7)", "057bff58fa239363ea0e4a35018e8747fee02c206f1400377b1a6c9ae485b7bb"),
        (
            "Mat(7, 2; [1 1 0 1], [0 6 1 0])",
            "80d2e7fadf1e01bbb01b0f140c2f0416f26fd546c9e6e797dd6d48fa3d095cea",
        ),
        (
            "Perm(6; (0 2), (0 2 3 5 4 1))",
            "0a10343a7ca3468d68b48ad6598653dbec4a18fda1ae32ced1a5536e12587245",
        ),
    ],
)
def test_class_outputs_are_pinned(capsys, spec, digest):
    # recorded while the class sweep still conjugated through the inverse map
    code, out, err = run(capsys, "classes", spec)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a diagonal Alt(5): one 5-cycle on 0..4 and one on the top five points
_TUPLE_IMAGES = "Perm(257; (0 1 2 3 4)(252 253 254 255 256), (0 1 2)(252 253 254))"
_BYTE_IMAGES = "Perm(256; (0 1 2 3 4)(251 252 253 254 255), (0 1 2)(251 252 253))"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("classes", _TUPLE_IMAGES),
            "a1847a344ffb1d6283ae4617e320318d97bdf779ec156838ace3d6e48134ccb9",
        ),
        (
            ("rigid", _TUPLE_IMAGES, "2", "3", "5"),
            "518b8521251d91236f7f62957efa615b72d3588f1c5b8b6e0a6bc172ae314962",
        ),
        (
            ("classes", _BYTE_IMAGES),
            "9587d344077523e94bd7066de5e9d64a5c858040c6592d4bc18969129305c550",
        ),
        (
            ("rigid", _BYTE_IMAGES, "2", "3", "5"),
            "d41a096dfb92779ca3010dc2a1fceaad409e0337c08f7ba0bfa9e94d2d3c16d1",
        ),
    ],
    ids=["classes-degree-257", "rigid-degree-257", "classes-degree-256", "rigid-degree-256"],
)
def test_image_storage_outputs_are_pinned(capsys, argv, digest):
    # degree 257 stores images as a tuple, degree 256 as bytes; recorded
    # while group elements were still Permutation objects
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            # prints the generators chosen from the derived subgroup's elements
            ("order", "Omega3(7)"),
            "0ca8c7c939303029b32ffee0eb7aaba4c37d0cf0f38d78899e9adbf76a3ed0a0",
        ),
        (
            ("classes", "Omega3(7)"),
            "df1cae2ca2439b81d09fbcea87a9ffc382f101f0a71e8aa8f36d8d89c08e840f",
        ),
        (
            ("chartab", "Omega3(5)"),
            "f14a79b111dd7ac2c056adfd32c3e217711f091a64f71ec7dc0828efbac91d34",
        ),
        (
            # reports derived-subgroup-order
            ("paper-audit", "--section", "2"),
            "0bcd6f0d35c38e0697f37ef2d9063a3025f11b7bb7512cf024decf6777ff8775",
        ),
    ],
    ids=["order-Omega3(7)", "classes-Omega3(7)", "chartab-Omega3(5)", "audit-section-2"],
)
def test_derived_subgroup_outputs_are_pinned(capsys, argv, digest):
    # recorded while the derived subgroup was still a fixed-point loop
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ("paper-audit", "--format", "structured"),
            "9381a43464bb754531e833c9732e2fefedd0c7e70c7ca807766ab5af507d4c4c",
        ),
        (
            ("paper-audit", "--format", "text"),
            "fb55fcfa8055abc9631e4de37852cc5aa263fea1b3215a85e61c4babe927067d",
        ),
        (
            ("rigid", "Sym(5)", "id:1", "id:4", "id:5", "--format", "structured"),
            "9aa3458ebf16065f59cca3e8b9f5293026e9ca06d0a538109fb6c1f11acfbf16",
        ),
        (
            ("rigid", "Sym(5)", "id:1", "id:4", "id:5", "--format", "text"),
            "e43676110291310938f57b2a1b2f83a02cfdcc117c7b03049b23609cd6a7dc92",
        ),
        (
            # not rigid, so it reports an orbit count
            ("rigid", "Alt(4)", "id:1", "id:1", "id:1", "--format", "structured"),
            "84b817a23eb2c0b120006a790e94db2e21c19cf42653f74bd029acda8900e890",
        ),
        (
            ("triples", "Alt(5)", "2", "5", "5"),
            "3f00c93e5afe187be450a268de3a4fa3c78a2b20a3793439b64816f2992fe34c",
        ),
        (
            # a census over matrices
            ("rigid", "Mat(7, 2; [1 1 0 1], [0 6 1 0])", "3", "4", "7"),
            "8c053fd6708623e82d726fe5995e774bc78e4e6e5cf12129cec20cf076740f63",
        ),
    ],
    ids=[
        "audit-structured",
        "audit-text",
        "rigid-classes-Sym(5)-structured",
        "rigid-classes-Sym(5)-text",
        "rigid-classes-Alt(4)-structured",
        "triples-Alt(5)-text",
        "rigid-orders-Mat-text",
    ],
)
def test_orbit_report_outputs_are_pinned(capsys, argv, digest):
    # recorded while the scan's orbits still reached the report through
    # OrbitDecomposition and generated_subgroup_report
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            # prints the generators chosen by the greedy walk over a closed list
            ("order", "SO3(7)"),
            "4fc94ea93508c4084a5afc7e1d7978a2ee3ee5e11cbc02d65c245ee41a0bc22a",
        ),
        (
            # census fingerprints inside a group wrapped from its element list
            ("triples", "SO3(5)", "2", "4", "5", "--format", "structured"),
            "3673b6ee28af911f939486fcf1d5422f17833fd31dbed4c7b0f64b9aaabfd16b",
        ),
        (
            ("rigid", "Sym(6)", "2", "4", "5", "--format", "structured"),
            "aa68ab67b8ebed241382513795f1ec741416f82e03add7250c605dca156097b1",
        ),
        (
            # empty by parity, so it reports no orbit
            ("rigid", "Sym(6)", "id:2", "id:4", "id:5", "--format", "structured"),
            "f7b095ceeafb708742e205bd3e56b629d32fafe9d9effdd81aedd403b5313894",
        ),
        (
            # reports generated-subgroup-order (120)
            ("rigid", "Sym(6)", "id:1", "id:7", "id:8", "--format", "structured"),
            "afd421deaf40e3bc37c1b4e804671de108f288b563931fe58ea87d13b85551a2",
        ),
    ],
    ids=[
        "order-SO3(7)",
        "triples-SO3(5)-structured",
        "rigid-orders-Sym(6)-structured",
        "rigid-classes-Sym(6)-empty",
        "rigid-classes-Sym(6)-structured",
    ],
)
def test_subgroup_closure_outputs_are_pinned(capsys, argv, digest):
    # recorded while subgroups were still closed on element objects
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("chartab", "Alt(6)"),
        ("rigid", "Sym(5)", "2", "4", "5"),
        ("triples", "Alt(5)", "2", "5", "5"),
    ],
    ids=["chartab-Alt(6)", "rigid-Sym(5)", "triples-Alt(5)"],
)
def test_stdout_is_the_same_under_every_hash_seed(argv):
    # permutations hash as their image bytes, and a bytes hash is salted per
    # process, so output that followed the set order of elements would differ
    outputs = []
    for seed in ("0", "1", "2"):
        done = fresh_process(argv, PYTHONHASHSEED=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] and outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_main_called_again_in_one_process_prints_what_a_fresh_process_prints(capsys):
    # one parser serves every call, so no call may leave state for the next:
    # the defaults of --format and of the repeatable --section must come back
    argvs = [
        ("paper-audit", "--section", "1", "--section", "5", "--format", "text"),
        ("order", "Sym(4)", "--format", "structured"),
        ("paper-audit", "--section", "1"),
        ("classes", "Alt(4)"),
        ("rigid", "Sym(4)", "2", "3", "4", "--format", "structured"),
        ("order", "Sym(4)"),
        ("paper-audit", "--section", "5"),
    ]
    in_process = [run(capsys, *argv) for argv in argvs]
    for argv, (code, out, err) in zip(argvs, in_process):
        done = fresh_process(argv)
        assert (code, out, err) == (done.returncode, done.stdout, done.stderr), argv


def test_rigid_order_mode_needs_three(capsys):
    assert run(capsys, "rigid", "Sym(5)", "2", "4")[0] == 2


def test_rigid_selector_mode(capsys):
    data = run_json(capsys, "rigid", "Sym(5)", "id:1", "id:4", "id:5")
    assert data["mode"] == "classes"
    assert data["verdict"] == "rigid"
    assert data["stabilizer-order"] == 1
    assert data["count"] == 120
    assert len(data["orbits"]) == 1
    orbit = data["orbits"][0]
    assert orbit["generated-subgroup-order"] == 120
    assert len(orbit["representative"]) == 3


def test_rigid_empty_verdict_still_passes(capsys):
    data = run_json(capsys, "rigid", "Sym(5)", "id:2", "id:4", "id:5")
    assert data["verdict"] == "empty"
    assert data["count"] == 0
    # both routes find no solutions, so no orbits are listed
    assert "orbits" not in data


def test_oracle_command(capsys):
    data = run_json(capsys, "oracle", "Cyc(6)")
    assert data["status"] == "pass"
    assert data["triples"] == 216
    assert data["mismatches"] == []


def test_audit_passes_and_is_deterministic(capsys):
    code, first, _ = run(capsys, "paper-audit")
    assert code == 0
    code, second, _ = run(capsys, "paper-audit")
    assert code == 0
    assert first == second
    data = json.loads(first)
    assert data["overall"] == "pass"
    assert [s["index"] for s in data["sections"]] == [1, 2, 3, 4, 5, 6]
    assert all(s["status"] == "pass" for s in data["sections"])


def test_audit_cited_checks_carry_citations(capsys):
    data = json.loads(run(capsys, "paper-audit")[1])
    cited = [
        c
        for s in data["sections"]
        for c in s["checks"]
        if c["provenance"] == "cited"
    ]
    assert cited
    assert all(c.get("citation") for c in cited)
    computed = [
        c
        for s in data["sections"]
        for c in s["checks"]
        if c["provenance"] == "computed"
    ]
    assert len(computed) > len(cited)


def test_audit_section_filter(capsys):
    code, out, _ = run(capsys, "paper-audit", "--section", "5")
    assert code == 0
    data = json.loads(out)
    assert [s["index"] for s in data["sections"]] == [5]
    assert data["input"]["sections"] == [5]


def test_audit_unknown_section(capsys):
    code, _, err = run(capsys, "paper-audit", "--section", "9")
    assert code == 2
    assert "unknown audit section" in err


def test_audit_ledger_override_tamper(capsys, tmp_path):
    override = {
        "triple-1": [
            {
                "label": "u3",
                "a_value": [[4, 2, 1]],
                "centralizer_order": [[4, 6, 1]],
            },
            {
                "label": "u4",
                "a_value": [[4, 1, 1]],
                "centralizer_order": [[4, 3, 1]],
            },
            {
                "label": "u5",
                "a_value": [[4, 1, 1]],
                "centralizer_order": [[4, 2, 1]],
            },
        ]
    }
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(override))
    code, out, _ = run(capsys, "paper-audit", "--ledger", str(path))
    assert code == 1
    data = json.loads(out)
    assert data["overall"] == "fail"
    by_index = {s["index"]: s["status"] for s in data["sections"]}
    assert by_index[5] == "fail"
    assert by_index[1] == "pass"
    assert data["input"]["ledger-override"] == str(path)


def test_audit_ledger_override_matching_values_pass(capsys, tmp_path):
    override = {
        "triple-2": [
            {
                "label": "u3",
                "a_value": [[4, 3, 1]],
                "centralizer_order": [[4, 6, 1]],
            },
            {
                "label": "u4",
                "a_value": [],
                "centralizer_order": [[4, 3, 1]],
            },
            {
                "label": "u5",
                "a_value": [[4, 1, 1]],
                "centralizer_order": [[4, 2, 1]],
            },
        ]
    }
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(override))
    code, out, _ = run(capsys, "paper-audit", "--ledger", str(path))
    assert code == 0
    assert json.loads(out)["overall"] == "pass"


def test_audit_ledger_override_errors(capsys, tmp_path):
    for content, message in (
        (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b"[1, 2]", "top level must be an object"),
        (b'{"triple-9": []}', "unknown key 'triple-9'"),
        (b'{"triple-1": 5}', "triple-1 must be a list"),
        (b'{"triple-1": [3]}', "triple-1[0] must be an object"),
        (
            b'{"triple-1": [{"a_value": [], "centralizer_order": []}]}',
            "triple-1[0] missing 'label'",
        ),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ):
        malformed = tmp_path / "malformed.json"
        malformed.write_bytes(content)
        assert run(capsys, "paper-audit", "--ledger", str(malformed)) == (
            2,
            "",
            f"error: ledger file {malformed}: {message}\n",
        )

    # a file that cannot be opened gets the same prefix
    missing = tmp_path / "absent.json"
    for path, message in (
        (missing, f"[Errno 2] No such file or directory: '{missing}'"),
        (tmp_path, f"[Errno 21] Is a directory: '{tmp_path}'"),
    ):
        assert run(capsys, "paper-audit", "--ledger", str(path)) == (
            2,
            "",
            f"error: ledger file {path}: {message}\n",
        )

    # a ledger equal to the embedded one except for the terms below
    for u3_centralizer, u5_terms, message in (
        ([[4, 6, 1]], [[4, True, True]], "triple-1[2].a_value: bad term [4, True, True]"),
        ([[4, 6, 1]], [[-1, 1, 1]], "triple-1[2].a_value: negative degree in term [-1, 1, 1]"),
        ([], [[4, 1, 1]], "entry u3: zero centralizer order"),
    ):
        rows = [
            {"label": "u3", "a_value": [[4, 1, 1]], "centralizer_order": u3_centralizer},
            {"label": "u4", "a_value": [[4, 1, 1]], "centralizer_order": [[4, 3, 1]]},
            {"label": "u5", "a_value": u5_terms, "centralizer_order": [[4, 2, 1]]},
        ]
        bad_term = tmp_path / "bad_term.json"
        bad_term.write_text(json.dumps({"triple-1": rows}))
        code, _, err = run(
            capsys, "paper-audit", "--section", "5", "--ledger", str(bad_term)
        )
        assert code == 2
        assert f"error: ledger file {bad_term}: {message}" in err


@pytest.mark.parametrize(
    "fmt, digest",
    [
        (
            "structured",
            "df23eaafa7d5b2ff35639da0f5b438eae430b2bba2becf1ab4a8d86e08f8f54e",
        ),
        (
            "text",
            "3a3d06e8a0ea4586cfb7ad5024772d07cb94dd5e9e9fed5ca0d4c13a3025137e",
        ),
    ],
    ids=["structured", "text"],
)
def test_audit_ledger_override_output_is_pinned(capsys, tmp_path, fmt, digest):
    # recorded while qsymbolic still carried its full rational-function algebra;
    # triple-1 sums to (2/3*q^4 + 1/3*q^2 - 1/12*q - 5/6) / (q^4 - 1)
    override = {
        "triple-1": [
            {
                "label": "u3",
                "a_value": [[4, 1, 1], [1, -1, 2]],
                "centralizer_order": [[4, 6, 1], [0, -6, 1]],
            },
            {
                "label": "u4",
                "a_value": [[2, 1, 1]],
                "centralizer_order": [[4, 3, 1], [2, 3, 1]],
            },
            {
                "label": "u5",
                "a_value": [[4, 1, 1]],
                "centralizer_order": [[4, 2, 1]],
            },
        ],
        "triple-2": [
            {
                "label": "u3",
                "a_value": [[4, 3, 1]],
                "centralizer_order": [[4, 6, 1]],
            },
            {
                "label": "u4",
                "a_value": [],
                "centralizer_order": [[4, 3, 1]],
            },
            {
                "label": "u5",
                "a_value": [[4, 1, 1]],
                "centralizer_order": [[4, 2, 1]],
            },
        ],
    }
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(override))
    code, out, err = run(
        capsys, "paper-audit", "--section", "5", "--ledger", str(path), "--format", fmt
    )
    assert code == 1, err
    # the path is echoed in input.ledger-override and in each citation
    out = out.replace(str(path), "LEDGER")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_audit_text_format(capsys):
    code, out, _ = run(capsys, "paper-audit", "--format", "text", "--section", "6")
    assert code == 0
    assert "negative controls" in out
    assert "pass" in out


def test_perm_and_mat_specs_through_cli(capsys):
    data = run_json(capsys, "order", "Perm(4; (0 1), (0 1 2 3))")
    assert data["order"] == 24
    data = run_json(capsys, "order", "Mat(3, 2; [0 2 1 0], [1 1 1 2])")
    assert data["order"] == 8
