"""Descriptions of varieties and formal classes of them.

A variety is described by blocks.  Each block is an affine or projective
ambient space together with integer-coefficient equations in that block's
own variables; a product of varieties simply concatenates blocks, keeping
the variable spaces disjoint.  Counting then factors over blocks, which is
what makes products of projective spaces affordable.

Formal integer combinations of atoms model classes in the Grothendieck
group.  An atom is either a variety description or a symbolic atom carrying
an explicit table of measure values (for measures like Euler characteristic
that cannot be read off equations).  Products distribute over the
combination; a product of a symbolic atom with a variety has no defined
value and is rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DegreeZero, NotPrime, UnsupportedClass
from .finitefield import is_prime
from .parsing import parse_poly
from .rings import MPolyRing, poly_ring, scaled_term, signed_sum


def default_variables(n: int) -> tuple[str, ...]:
    return tuple("xyzw"[i] if i < 4 else f"x{i}" for i in range(n))


@dataclass(frozen=True)
class Block:
    kind: str  # "affine" | "projective"
    dim: int
    equations: tuple = ()

    def __post_init__(self):
        if self.kind not in ("affine", "projective"):
            raise ValueError(f"unknown ambient kind {self.kind!r}")
        if self.dim < 0:
            raise ValueError("ambient dimension must be nonnegative")
        if self.equations and self.nvars == 0:
            raise ValueError("a zero-variable block cannot carry equations")
        if self.kind == "projective":
            for eq in self.equations:
                degrees = {sum(e) for e, _ in eq}
                if len(degrees) > 1:
                    raise ValueError(
                        "projective equations must be homogeneous"
                    )

    @property
    def nvars(self) -> int:
        return self.dim if self.kind == "affine" else self.dim + 1

    @property
    def variables(self) -> tuple[str, ...]:
        return default_variables(self.nvars)

    @property
    def ring(self) -> MPolyRing:
        return poly_ring(self.variables)

    def describe(self) -> str:
        head = f"{self.kind}({self.dim})"
        if not self.equations:
            return head
        ring = self.ring
        eqs = "; ".join(ring.render(eq) for eq in self.equations)
        return f"{head}{{{eqs}}}"


@dataclass(frozen=True)
class VarietyDesc:
    blocks: tuple
    p: int = 0  # 0 = no preferred field
    k: int = 0

    def describe(self) -> str:
        text = " x ".join(b.describe() for b in self.blocks)
        return text or "affine(0)"


def affine_variety(
    dim: int, equations=(), p: int = 0, k: int = 0
) -> VarietyDesc:
    names = default_variables(dim)
    eqs = tuple(parse_poly(e, names) for e in equations)
    return VarietyDesc((Block("affine", dim, eqs),), p, k)


def projective_variety(
    dim: int, equations=(), p: int = 0, k: int = 0
) -> VarietyDesc:
    names = default_variables(dim + 1)
    eqs = tuple(parse_poly(e, names) for e in equations)
    return VarietyDesc((Block("projective", dim, eqs),), p, k)


def variety_product(a: VarietyDesc, b: VarietyDesc) -> VarietyDesc:
    fields = {(v.p, v.k) for v in (a, b) if v.p}
    if len(fields) > 1:
        raise ValueError("product factors declare different fields")
    p, k = fields.pop() if fields else (0, 0)
    return VarietyDesc(a.blocks + b.blocks, p, k)


# a small catalog of standard varieties


def point() -> VarietyDesc:
    return affine_variety(0)


def affine_space(n: int) -> VarietyDesc:
    return affine_variety(n)


def multiplicative_group() -> VarietyDesc:
    """The punctured line, presented as the hyperbola x*y = 1."""
    return affine_variety(2, ("x*y - 1",))


def projective_space(n: int) -> VarietyDesc:
    return projective_variety(n)


def elliptic_f5() -> VarietyDesc:
    """The curve y^2*z = x^3 + x*z^2 + z^3 over F_5."""
    return projective_variety(
        2, ("y^2*z - x^3 - x*z^2 - z^3",), p=5, k=1
    )


CATALOG = {
    "pt": point,
    "a1": lambda: affine_space(1),
    "a2": lambda: affine_space(2),
    "gm": multiplicative_group,
    "p1": lambda: projective_space(1),
    "p2": lambda: projective_space(2),
    "e5": elliptic_f5,
}


def _json_int(data: dict, key: str, default: int) -> int:
    """The integer under `key`; a bool, a float or a string is refused."""
    value = data.get(key, default)
    if type(value) is not int:
        raise ValueError(f'"{key}" must be an integer, got {json.dumps(value)}')
    return value


def load_variety(source) -> VarietyDesc:
    """Variety from a JSON object, JSON text, or a path to a JSON file.

    The object has "ambient", {"affine": n} or {"projective": n}, and may
    have "p" and "k" (integers) and "equations" (a list of strings).
    """
    if isinstance(source, (str, Path)):
        text = str(source)
        if text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            data = json.loads(Path(source).read_text())
    else:
        data = source
    if not isinstance(data, dict):
        raise ValueError(
            f"a variety must be a JSON object, got {json.dumps(data)}"
        )
    ambient = data.get("ambient")
    if not isinstance(ambient, dict) or len(ambient) != 1:
        raise ValueError('expected "ambient" with one of affine/projective')
    (kind,) = ambient
    if kind not in ("affine", "projective"):
        raise ValueError(f"unknown ambient kind {kind!r}")
    builder = affine_variety if kind == "affine" else projective_variety
    p = _json_int(data, "p", 0)
    if p and not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    k = _json_int(data, "k", 1)
    if k < 1:
        raise DegreeZero(f'"k" must be at least 1, got {k}')
    eqs = data.get("equations", [])
    if not isinstance(eqs, (list, tuple)) or not all(
        isinstance(e, str) for e in eqs
    ):
        raise ValueError(
            f'"equations" must be a list of strings, got {json.dumps(eqs)}'
        )
    return builder(_json_int(ambient, kind, 0), eqs, p, k if p else 0)


@dataclass(frozen=True)
class SymbolicAtom:
    """A named class known only through its table of measure values."""

    name: str
    values: tuple  # sorted ((measure_name, value), ...)

    @staticmethod
    def make(name: str, values: dict) -> "SymbolicAtom":
        return SymbolicAtom(name, tuple(sorted(values.items())))

    def value_for(self, measure_name: str):
        for key, value in self.values:
            if key == measure_name:
                return value
        return None

    def describe(self) -> str:
        return self.name


def _product_value(a, b):
    """Product of two values: integers, or polynomials in u, where an
    integer factor of a polynomial is lifted to ZZ[u] as `atom_value` does."""
    if isinstance(a, int) and isinstance(b, int):
        return a * b
    if isinstance(a, (int, tuple)) and isinstance(b, (int, tuple)):
        ring = poly_ring(("u",))
        a, b = (ring.from_int(v) if isinstance(v, int) else v for v in (a, b))
        return ring.mul(a, b)
    raise UnsupportedClass("measure values of incompatible kinds")


def atom_product(a, b):
    if isinstance(a, VarietyDesc) and isinstance(b, VarietyDesc):
        return variety_product(a, b)
    if isinstance(a, SymbolicAtom) and isinstance(b, SymbolicAtom):
        shared = {
            key: _product_value(va, b.value_for(key))
            for key, va in a.values
            if b.value_for(key) is not None
        }
        return SymbolicAtom.make(f"{a.name}*{b.name}", shared)
    raise UnsupportedClass(
        "products mixing symbolic atoms with varieties are not defined"
    )


def _atom_key(atom):
    if isinstance(atom, SymbolicAtom):
        return (1, atom.name, repr(atom.values))
    return (0, atom.describe(), atom.p, atom.k)


@dataclass(frozen=True)
class K0Class:
    """Formal integer combination of atoms, like terms collected."""

    terms: tuple  # ((atom, multiplicity), ...)

    def describe(self) -> str:
        return signed_sum(
            scaled_term(str(mult), f"[{atom.describe()}]")
            for atom, mult in self.terms
        )


def _collect(pairs) -> K0Class:
    acc = {}
    for atom, mult in pairs:
        key = _atom_key(atom)
        if key not in acc:
            acc[key] = [atom, 0]
        acc[key][1] += mult
    terms = [
        (atom, mult)
        for key, (atom, mult) in sorted(acc.items())
        if mult != 0
    ]
    return K0Class(tuple(terms))


def k0_atom(atom) -> K0Class:
    return K0Class(((atom, 1),))


def k0_add(a: K0Class, b: K0Class) -> K0Class:
    return _collect(list(a.terms) + list(b.terms))


def k0_neg(a: K0Class) -> K0Class:
    return K0Class(tuple((atom, -m) for atom, m in a.terms))


def k0_scale(n: int, a: K0Class) -> K0Class:
    return _collect((atom, n * m) for atom, m in a.terms)


def k0_mul(a: K0Class, b: K0Class) -> K0Class:
    pairs = []
    for atom_a, m_a in a.terms:
        for atom_b, m_b in b.terms:
            # order the factors canonically so that x*y and y*x collect
            lo, hi = sorted((atom_a, atom_b), key=_atom_key)
            pairs.append((atom_product(lo, hi), m_a * m_b))
    return _collect(pairs)
