import json
from pathlib import Path

import pytest

from wittzeta import cli
from wittzeta.errors import DegreeZero, NotPrime, UnsupportedClass
from wittzeta.varieties import (
    CATALOG,
    Block,
    K0Class,
    SymbolicAtom,
    affine_space,
    affine_variety,
    atom_product,
    default_variables,
    elliptic_f5,
    k0_add,
    k0_atom,
    k0_mul,
    k0_neg,
    k0_scale,
    load_variety,
    multiplicative_group,
    point,
    projective_space,
    projective_variety,
    variety_product,
)


def test_default_variables():
    assert default_variables(0) == ()
    assert default_variables(3) == ("x", "y", "z")
    assert default_variables(6) == ("x", "y", "z", "w", "x4", "x5")


def test_block_validation():
    with pytest.raises(ValueError):
        Block("weird", 1)
    with pytest.raises(ValueError):
        Block("affine", -1)
    with pytest.raises(ValueError):
        affine_variety(0, ("x",))
    with pytest.raises(ValueError):
        projective_variety(1, ("x^2 + y",))  # not homogeneous
    projective_variety(1, ("x^2 + x*y",))  # homogeneous, fine


def test_describe():
    assert point().describe() == "affine(0)"
    assert affine_space(2).describe() == "affine(2)"
    assert projective_space(1).describe() == "projective(1)"
    assert multiplicative_group().describe() == "affine(2){-1 + x*y}"
    v = variety_product(projective_space(1), affine_space(1))
    assert v.describe() == "projective(1) x affine(1)"


def test_variety_product_merges_fields():
    e = elliptic_f5()
    prod = variety_product(e, affine_space(2))
    assert (prod.p, prod.k) == (5, 1)
    assert len(prod.blocks) == 2
    with pytest.raises(ValueError):
        variety_product(e, affine_variety(0, p=3, k=1))


def test_load_variety_from_dict_text_and_file(tmp_path):
    data = {"p": 3, "k": 1, "ambient": {"affine": 2}, "equations": ["x^2+y^2-1"]}
    v1 = load_variety(data)
    v2 = load_variety(json.dumps(data))
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(data))
    v3 = load_variety(path)
    assert v1 == v2 == v3
    assert v1.p == 3 and v1.k == 1
    assert v1.blocks[0].kind == "affine"


VARIETY_FILES = sorted((Path(__file__).parent.parent / "varieties").glob("*.json"))


def test_every_catalog_variety_has_a_file():
    assert sorted(path.stem for path in VARIETY_FILES) == sorted(CATALOG)


@pytest.mark.parametrize("path", VARIETY_FILES, ids=lambda p: p.stem)
def test_variety_file_loads_to_its_catalog_entry(path):
    assert load_variety(path) == CATALOG[path.stem]()


def test_load_variety_rejects_bad_input():
    with pytest.raises(ValueError):
        load_variety({"ambient": {}})
    with pytest.raises(ValueError):
        load_variety({"ambient": {"weird": 2}})
    with pytest.raises(NotPrime):
        load_variety({"p": 4, "ambient": {"affine": 1}})


@pytest.mark.parametrize("k", [0, -1])
def test_load_variety_rejects_an_extension_degree_below_one(capsys, k):
    data = {"p": 3, "k": k, "ambient": {"affine": 1}}
    message = f'"k" must be at least 1, got {k}'
    with pytest.raises(DegreeZero, match=f"^{message}$"):
        load_variety(data)
    # the command line names the flag and the key, not the degree k*m it
    # would count in
    assert cli.main(["count", "points", "--variety", json.dumps(data)]) == 2
    assert capsys.readouterr() == ("", f"error: --variety: {message}\n")


AFFINE_LINE = '{"ambient": {"affine": 1}, "equations": %s}'


@pytest.mark.parametrize("text, message", [
    ('{"ambient": 3}', 'expected "ambient" with one of affine/projective'),
    (AFFINE_LINE % "[1]", '"equations" must be a list of strings, got [1]'),
    (AFFINE_LINE % '[["x"]]',
     '"equations" must be a list of strings, got [["x"]]'),
    (AFFINE_LINE % "null", '"equations" must be a list of strings, got null'),
    (AFFINE_LINE % '"x^2-2"',
     '"equations" must be a list of strings, got "x^2-2"'),
    (AFFINE_LINE % '"x"', '"equations" must be a list of strings, got "x"'),
    (AFFINE_LINE % '{"x": 1}',
     '"equations" must be a list of strings, got {"x": 1}'),
    ('{"p": 5, "k": 2.7, "ambient": {"affine": 1}}',
     '"k" must be an integer, got 2.7'),
    ('{"p": 5.0, "ambient": {"affine": 1}}', '"p" must be an integer, got 5.0'),
    ('{"ambient": {"affine": "2"}}', '"affine" must be an integer, got "2"'),
    ('{"p": true, "ambient": {"affine": 1}}',
     '"p" must be an integer, got true'),
    ('{"p": "5x", "ambient": {"affine": 1}}',
     '"p" must be an integer, got "5x"'),
])
def test_load_variety_checks_each_key(capsys, text, message):
    with pytest.raises(ValueError) as info:
        load_variety(text)
    assert str(info.value) == message
    argv = ["count", "points", "--variety", text, "--q", "5"]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: --variety: {message}\n")


def test_load_variety_refuses_a_json_value_that_is_no_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    message = r"^a variety must be a JSON object, got \[1, 2\]$"
    with pytest.raises(ValueError, match=message):
        load_variety(path)
    with pytest.raises(ValueError, match="must be a JSON object"):
        load_variety(["ambient"])


def test_symbolic_atoms():
    a = SymbolicAtom.make("X", {"euler": 2, "counting": 5})
    assert a.value_for("euler") == 2
    assert a.value_for("poincare") is None
    assert a.describe() == "X"


def test_atom_product_varieties():
    prod = atom_product(projective_space(1), affine_space(1))
    assert prod.describe() == "projective(1) x affine(1)"


def test_atom_product_symbolic_intersects_value_tables():
    a = SymbolicAtom.make("X", {"euler": 2, "counting": 5})
    b = SymbolicAtom.make("Y", {"euler": -3})
    prod = atom_product(a, b)
    assert prod.value_for("euler") == -6
    assert prod.value_for("counting") is None


def test_atom_product_mixed_is_rejected():
    a = SymbolicAtom.make("X", {"euler": 2})
    with pytest.raises(UnsupportedClass):
        atom_product(a, point())


def test_k0_algebra_collects_terms():
    x = k0_atom(projective_space(1))
    y = k0_atom(point())
    s = k0_add(x, y)
    assert len(s.terms) == 2
    doubled = k0_add(x, x)
    assert doubled.terms[0][1] == 2
    cancelled = k0_add(x, k0_neg(x))
    assert cancelled.terms == ()
    assert k0_scale(3, x).terms[0][1] == 3
    assert k0_scale(0, x).terms == ()


def test_k0_mul_distributes():
    x = k0_atom(projective_space(1))
    y = k0_atom(affine_space(1))
    s = k0_add(x, y)
    prod = k0_mul(s, s)
    # (x + y)^2 = x^2 + 2xy + y^2, three distinct atom products
    assert sorted(m for _, m in prod.terms) == [1, 1, 2]


def test_k0_single_atom():
    x = k0_atom(point())
    atom, mult = x.terms[0]
    assert mult == 1 and atom == point()


def test_k0_describe():
    x = k0_atom(SymbolicAtom.make("X", {"euler": 1}))
    y = k0_atom(SymbolicAtom.make("Y", {"euler": 2}))
    assert k0_add(x, k0_scale(-2, y)).describe() == "[X] - 2*[Y]"
    assert k0_add(k0_neg(x), k0_scale(3, y)).describe() == "-[X] + 3*[Y]"
    assert k0_add(k0_neg(x), k0_neg(y)).describe() == "-[X] - [Y]"
    assert k0_add(k0_scale(-2, x), y).describe() == "-2*[X] + [Y]"
    assert K0Class(()).describe() == "0"
