"""Named quotient rings with known invariants for verification runs.

The hypersurface fixtures are diagonal equations x_0^k + ... + x_v-1^k,
smooth whenever the characteristic does not divide k, so the rings are
normal complete-intersection domains by construction and their a-invariants
are exact: the relation's degree k minus the number v of variables, so
k - 3 here and -v for the polynomial ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import PreconditionError, PrimeField
from .macaulay import Form, FormSystem
from .quotient import GradedQuotient

__all__ = ["DEFAULT_PRIME", "Fixture", "fixture_names", "make_fixture", "variables_ideal"]

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class Fixture:
    name: str
    ring: GradedQuotient
    a_invariant: int
    description: str


def _diagonal_hypersurface(v: int, k: int, p: int) -> GradedQuotient:
    field = PrimeField(p)
    if k % p == 0:
        # char p | k kills every partial derivative: equation not smooth
        raise PreconditionError(
            f"characteristic {p} divides degree {k}: hypersurface not smooth"
        )
    form = Form.make(
        v, k, {tuple(k if i == j else 0 for i in range(v)): 1 for j in range(v)}
    )
    return GradedQuotient(FormSystem(field=field, v=v, forms=(form,)))


# name -> (degree k of x^k+y^k+z^k, the one prime the ring is defined
# over, or None for any prime)
_FERMAT = {
    "fermat-cubic": (3, None),
    "fermat-cubic-p2": (3, 2),
    "fermat-quartic": (4, None),
}


def fixture_names() -> tuple[str, ...]:
    return (*_FERMAT, "poly-ring")


def make_fixture(name: str, p: int | None = None, d: int | None = None) -> Fixture:
    """Build a named ring.

    fermat-cubic     x^3+y^3+z^3 in three variables (default p=32003)
    fermat-cubic-p2  the same equation over F_2
    fermat-quartic   x^4+y^4+z^4 in three variables (default p=32003)
    poly-ring        the polynomial ring in d+1 variables (requires d)
    """
    prime = DEFAULT_PRIME if p is None else p
    if name in _FERMAT:
        k, only = _FERMAT[name]
        if only is not None:
            if p not in (None, only):
                raise PreconditionError(f"{name} is defined over F_{only}, got p={p}")
            prime = only
        return Fixture(
            name=name,
            ring=_diagonal_hypersurface(3, k, prime),
            a_invariant=k - 3,
            description=f"F_{prime}[x,y,z] / (x^{k}+y^{k}+z^{k})",
        )
    if name == "poly-ring":
        if d is None:
            raise PreconditionError("poly-ring fixture needs d (builds d+1 variables)")
        if d < 1:
            raise PreconditionError(f"d must be >= 1, got d={d}")
        v = d + 1
        return Fixture(
            name=name,
            ring=GradedQuotient(FormSystem(field=PrimeField(prime), v=v, forms=())),
            a_invariant=-v,
            description=f"F_{prime}[x_0..x_{v - 1}] (no relations)",
        )
    raise PreconditionError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")


def variables_ideal(ring: GradedQuotient, k: int) -> FormSystem:
    """The ideal generated by the first k variables."""
    if not (1 <= k <= ring.v):
        raise PreconditionError(f"need 1 <= k <= {ring.v}, got {k}")
    forms = tuple(
        Form.make(ring.v, 1, {tuple(1 if i == j else 0 for i in range(ring.v)): 1})
        for j in range(k)
    )
    return FormSystem(field=ring.field, v=ring.v, forms=forms)
