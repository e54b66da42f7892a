"""The audit's pipeline cache."""

from __future__ import annotations

from rigidity.audit import Pipelines


def test_pipelines_build_each_stage_once():
    pipelines = Pipelines()
    G = pipelines.group("Sym(4)")
    assert pipelines.group("Sym(4)") is G
    assert pipelines.classes("Sym(4)")[0] is G
    T = pipelines.classes("Sym(4)")[1]
    assert pipelines.classes("Sym(4)")[1] is T
    G2, T2, CT = pipelines.characters("Sym(4)")
    assert G2 is G and T2 is T
    assert pipelines.characters("Sym(4)")[2] is CT
    assert pipelines.group("Sym(3)") is not G


def test_pipelines_instances_share_no_objects():
    a, b = Pipelines(), Pipelines()
    built_a, built_b = a.characters("Alt(4)"), b.characters("Alt(4)")
    for x, y in zip(built_a, built_b):
        assert x is not y
    Ga, Gb = built_a[0], built_b[0]
    assert Ga.elements == Gb.elements and Ga.elements is not Gb.elements
    # keys are immutable, and the identity key is the element kind's own
    assert Ga.elements[0] is Ga.kind.identity is Gb.elements[0]
    assert not any(x is y for x, y in zip(Ga.elements[1:], Gb.elements[1:]))
