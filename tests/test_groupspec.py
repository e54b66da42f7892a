"""The textual group mini-language."""

from __future__ import annotations

import pytest

from rigidity.errors import (
    CapExceededError,
    GroupSpecError,
    UnknownConstructorError,
)
from rigidity.groupspec import GroupSpec, build_group, parse_group_spec


def test_named_constructors_parse():
    spec = parse_group_spec("Sym(5)")
    assert spec.constructor == "Sym"
    assert spec.params == (5,)
    assert spec.generators is None
    assert parse_group_spec("Omega3(5)").constructor == "Omega3"


def test_whitespace_is_free():
    assert build_group("  Sym ( 4 )  ").order == 24


def test_build_named_groups():
    assert build_group("Sym(5)").order == 120
    assert build_group("Alt(5)").order == 60
    assert build_group("Cyc(12)").order == 12
    assert build_group("Dih(6)").order == 12
    assert build_group("SO3(5)").order == 120
    assert build_group("Omega3(5)").order == 60


def test_perm_constructor():
    spec = parse_group_spec("Perm(4; (0 1), (0 1 2 3))")
    assert spec.params == (4,)
    assert spec.generators == (((0, 1),), ((0, 1, 2, 3),))
    assert spec.build().order == 24
    # juxtaposed cycles form one generator
    assert build_group("Perm(4; (0 1)(2 3))").order == 2
    assert build_group("Perm(3; ())").order == 1


def test_mat_constructor():
    G = build_group("Mat(3, 2; [0 2 1 0], [1 1 1 2])")
    assert G.order == 8
    assert build_group("Mat(5, 1; [2])").order == 4


def test_unknown_constructor():
    with pytest.raises(UnknownConstructorError) as info:
        parse_group_spec("Foo(3)")
    assert str(info.value) == (
        "unknown constructor 'Foo' "
        "(expected one of Sym, Alt, Cyc, Dih, SO3, Omega3, Perm, Mat)"
    )
    spec = GroupSpec(constructor="Foo", params=(3,), generators=None, text="Foo(3)")
    with pytest.raises(UnknownConstructorError, match="unknown constructor 'Foo'"):
        spec.build()


def test_error_positions():
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("Sym(")
    assert info.value.position == 4
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("Sym(3) trailing")
    assert info.value.position == 7
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec("Perm(3; )")
    assert info.value.position == 8


@pytest.mark.parametrize(
    "text, message",
    [
        ("Sym(\u0665)", "expected an integer (at position 4)"),
        ("Sym(1\u0665)", "expected ')' (at position 5)"),
        ("Sym(\u00b2)", "expected an integer (at position 4)"),
        ("Perm(\u0663; (0 1))", "expected an integer (at position 5)"),
        ("Perm(3; (0 \u0661))", "expected a point or ')' (at position 11)"),
        ("Mat(5, 1; [\u0662])", "expected an entry or ']' (at position 11)"),
        ("Mat(5, 1; [2], [\u00b3])", "expected an entry or ']' (at position 16)"),
    ],
    ids=[
        "arabic-indic-degree",
        "arabic-indic-second-digit",
        "superscript-degree",
        "arabic-indic-perm-degree",
        "arabic-indic-point",
        "arabic-indic-entry",
        "superscript-entry",
    ],
)
def test_integers_take_ascii_digits_only(text, message):
    # str.isdigit also accepts these; int() reads U+0665 as 5 and rejects U+00B2
    # without a position
    with pytest.raises(GroupSpecError) as info:
        parse_group_spec(text)
    assert str(info.value) == message


def test_malformed_specs():
    for text in (
        "",
        "Sym",
        "Sym()",
        "Sym(x)",
        "Perm(3)",
        "Perm(3; (0 1)ledger",
        "Mat(3, 2; [])",
        "Mat(3; [1 0 0 1])",
    ):
        with pytest.raises(GroupSpecError):
            parse_group_spec(text)


def test_matrix_entry_count_checked():
    with pytest.raises(GroupSpecError):
        parse_group_spec("Mat(3, 2; [1 0 0])")


def test_build_cap():
    with pytest.raises(CapExceededError):
        build_group("Sym(50)")
    with pytest.raises(CapExceededError):
        build_group("Cyc(17)", cap=10)


def test_builder_parameter_validation_surfaces():
    with pytest.raises(ValueError):
        build_group("Sym(0)")
    with pytest.raises(ValueError):
        build_group("Mat(4, 2; [1 0 0 1])")
