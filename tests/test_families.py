from __future__ import annotations

import pytest

from conftest import canonical_form
from securedom import DomainError, solve
from securedom.families import (
    _SIZES,
    FAMILY_KINDS,
    FamilySpec,
    formula_value,
    formula_witness,
    generate,
)
from securedom.verify import is_scds_definition


def test_parameter_bounds():
    # ceilings: the largest parameter whose member has at most 1e7 vertices
    # and at most 2e7 edges; only the complete graph meets the edge cap first
    for kind, floor, ceiling, cap in (
        ("complete", 1, 6_325, "20005975 edges; the cap is 20000000"),
        ("subdivided_wheel", 3, 4_999_999, "vertices; the cap is 10000000"),
        ("book", 2, 4_999_999, "vertices; the cap is 10000000"),
        ("ladder", 3, 5_000_000, "vertices; the cap is 10000000"),
        ("star", 2, 9_999_999, "vertices; the cap is 10000000"),
    ):
        FamilySpec(kind, floor)
        with pytest.raises(DomainError):
            FamilySpec(kind, floor - 1)
        FamilySpec(kind, ceiling)
        with pytest.raises(DomainError, match=cap):
            FamilySpec(kind, ceiling + 1)
    with pytest.raises(DomainError):
        FamilySpec("wheel", 3)


def test_size_formulas_match_generated_members():
    for kind in FAMILY_KINDS:
        least, vertices, edges = _SIZES[kind]
        for n in range(least, 12):
            g = generate(FamilySpec(kind, n))
            assert (g.n, g.m) == (vertices(n), edges(n)), (kind, n)


def test_subdivided_wheel_structure():
    g = generate(FamilySpec("subdivided_wheel", 3))
    assert (g.n, g.m) == (7, 9)
    assert g.degree(6) == 3  # hub
    assert all(g.degree(2 * j + 1) == 2 for j in range(3))  # subdivision vertices
    assert all(g.degree(2 * j) == 3 for j in range(3))  # rim vertices
    g5 = generate(FamilySpec("subdivided_wheel", 5))
    assert (g5.n, g5.m) == (11, 15)
    assert g5.degree(10) == 5


def test_book_structure():
    g = generate(FamilySpec("book", 3))
    assert (g.n, g.m) == (8, 10)
    assert g.degree(0) == 4 and g.degree(4) == 4  # centers: page star plus matching
    assert g.has_edge(0, 4)
    assert all(g.has_edge(i, i + 4) for i in range(4))


def test_ladder_structure():
    g = generate(FamilySpec("ladder", 3))
    assert (g.n, g.m) == (6, 7)
    assert all(g.has_edge(i, i + 3) for i in range(3))


def test_formula_values():
    assert formula_value(FamilySpec("subdivided_wheel", 4)) == 5
    assert formula_value(FamilySpec("book", 4)) == 6
    assert formula_value(FamilySpec("ladder", 7)) == 10
    assert formula_value(FamilySpec("complete", 9)) == 1
    assert formula_value(FamilySpec("star", 5)) == 6


def test_witness_examples():
    assert formula_witness(FamilySpec("subdivided_wheel", 3)) == {0, 2, 4, 6}
    assert formula_witness(FamilySpec("book", 3)) == {0, 1, 2, 3, 4}
    # bottom row plus top picks; n=4 needs the final top vertex as well
    assert formula_witness(FamilySpec("ladder", 4)) == {0, 1, 2, 3, 5, 7}
    assert formula_witness(FamilySpec("ladder", 3)) == {0, 1, 2, 4}
    assert formula_witness(FamilySpec("star", 3)) == {0, 1, 2, 3}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("step", range(4))
def test_witness_verifies_and_matches_formula(kind, step):
    spec = FamilySpec(kind, {"complete": 1, "subdivided_wheel": 3, "book": 2, "ladder": 3, "star": 2}[kind] + step)
    graph = generate(spec)
    witness = formula_witness(spec)
    assert len(witness) == formula_value(spec)
    assert is_scds_definition(graph, witness)[0]


def test_formula_matches_oracle_for_members_up_to_14_vertices():
    specs = (
        [FamilySpec("subdivided_wheel", n) for n in range(3, 7)]
        + [FamilySpec("book", n) for n in range(2, 7)]
        + [FamilySpec("ladder", n) for n in range(3, 8)]
        + [FamilySpec("complete", n) for n in range(1, 8)]
        + [FamilySpec("star", n) for n in range(2, 8)]
    )
    for spec in specs:
        graph = generate(spec)
        assert graph.n <= 14
        assert solve(graph, "scds").value == formula_value(spec), spec


def test_two_page_book_is_the_three_rung_ladder():
    b2 = generate(FamilySpec("book", 2))
    l3 = generate(FamilySpec("ladder", 3))
    assert canonical_form(b2) == canonical_form(l3)
    assert formula_value(FamilySpec("book", 2)) == formula_value(FamilySpec("ladder", 3)) == 4
