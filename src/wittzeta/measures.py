"""Motivic measures as pluggable valuation backends.

A measure assigns ring values to atoms and extends linearly over formal
combinations.  Its symmetric-power policy decides how zeta coefficients
are produced: the counting measure builds them from a closed-point census,
while sigma-policy measures (Euler characteristic, virtual Poincare
polynomial) push the single value through a sigma structure.

The value of the affine line is the measure's `lefschetz`; the Totaro
and bundle identities are phrased in terms of its powers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import count_points
from .errors import UnvaluedAtom
from .rings import Ring, ZZ
from .sigma import BINOMIAL_Z, PLETHYSTIC_ZU, SigmaStructure, ZU
from .varieties import K0Class, SymbolicAtom, VarietyDesc, k0_atom


@dataclass(frozen=True)
class Measure:
    name: str
    structure: SigmaStructure | None = None  # None for the census policy
    p: int = 0  # census field parameters
    k: int = 0
    line: object = None  # value of the affine line, census aside
    threads: int = 1

    @property
    def lefschetz(self):
        """The affine line's value; under the census, q = p^k when read."""
        return self.p**self.k if self.structure is None else self.line

    @property
    def ring(self) -> Ring:
        return ZZ if self.structure is None else self.structure.ring

    @property
    def policy(self) -> str:
        """Symmetric-power policy: "census" or "sigma"."""
        return "census" if self.structure is None else "sigma"


def counting_measure(p: int, k: int = 1, threads: int = 1) -> Measure:
    """Point counting over F_(p^k); values in the integers."""
    return Measure(name="counting", p=p, k=k, threads=threads)


def euler_measure() -> Measure:
    """Compactly supported Euler characteristic; the affine line has value 1."""
    return Measure(name="euler", structure=BINOMIAL_Z, line=1)


def poincare_measure() -> Measure:
    """Virtual Poincare polynomial in u; the affine line has value u^2."""
    u = ZU.variable("u")
    return Measure(name="poincare", structure=PLETHYSTIC_ZU, line=ZU.mul(u, u))


def euler_atom(name: str, chi: int) -> SymbolicAtom:
    return SymbolicAtom.make(name, {"euler": chi})


def poincare_atom(name: str, coeffs) -> SymbolicAtom:
    """Atom with virtual Poincare polynomial sum coeffs[r] * u^r."""
    value = ZU.from_terms(
        {(r,): c for r, c in enumerate(coeffs) if c}
    )
    return SymbolicAtom.make(name, {"poincare": value})


def atom_value(measure: Measure, atom):
    if isinstance(atom, SymbolicAtom):
        value = atom.value_for(measure.name)
        if value is None:
            raise UnvaluedAtom(
                f"atom {atom.name!r} carries no {measure.name} value"
            )
        if measure.ring is ZU and isinstance(value, int):
            value = ZU.from_int(value)
        return value
    if isinstance(atom, VarietyDesc):
        if measure.policy == "census":
            return count_points(
                atom, 1, measure.p, measure.k, measure.threads
            )
        raise UnvaluedAtom(
            f"the {measure.name} measure cannot evaluate equations; "
            "use a symbolic atom with an explicit value"
        )
    raise UnvaluedAtom(f"unknown atom {atom!r}")


def as_k0(c) -> K0Class:
    if isinstance(c, K0Class):
        return c
    return k0_atom(c)


def measure_value(measure: Measure, c):
    """Value of a formal combination, extended linearly from atoms."""
    cls = as_k0(c)
    ring = measure.ring
    total = ring.zero
    for atom, mult in cls.terms:
        value = atom_value(measure, atom)
        total = ring.add(total, ring.mul_int(value, mult))
    return total


def lefschetz_power(measure: Measure, n: int):
    return measure.ring.power(measure.lefschetz, n)
