"""Formal integer combinations of stable-birational class labels.

Only the additive group is needed: the volume skeleton sums labels of the
strata attached to bounded cones with sign (-1)^(dim - 1).  Geometric facts
(component counts, which stratum is a point, which is a hypersurface) enter
as annotations and are never computed here.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ._record import record
from .cones import Cone
from .fans import Fan, euler_char_height1


@record(order=True)
class ClassLabel:
    """A symbolic stable-birational class: a point, a very general hypersurface
    of given degree in a projective space of given dimension, or a named class."""
    kind: str
    name: str = ""
    ambient_dim: int = 0
    degree: int = 0

    POINT = "point"
    HYPERSURFACE = "hypersurface"
    SYMBOLIC = "symbolic"

    def __post_init__(self):
        """A label is what its token reads back as: a symbolic name is one token, a
        hypersurface's dimension and degree are ints >= 1, a kind sets no other field."""
        dims = (self.ambient_dim, self.degree)
        if not (self.kind == ClassLabel.POINT and (self.name, *dims) == ("", 0, 0)
                or self.kind == ClassLabel.HYPERSURFACE and self.name == ""
                and all(type(x) is int and x >= 1 for x in dims)
                or self.kind == ClassLabel.SYMBOLIC and dims == (0, 0)
                and isinstance(self.name, str) and self.name.split() == [self.name]):
            raise ValueError(f"{self!r} is no point, hypersurface of dimension and degree "
                             ">= 1, or symbolic class named by one token")

    @staticmethod
    def point() -> "ClassLabel":
        return ClassLabel(ClassLabel.POINT)

    @staticmethod
    def hypersurface(ambient_dim: int, degree: int) -> "ClassLabel":
        return ClassLabel(ClassLabel.HYPERSURFACE, ambient_dim=ambient_dim, degree=degree)

    @staticmethod
    def symbolic(name: str) -> "ClassLabel":
        return ClassLabel(ClassLabel.SYMBOLIC, name=name)

    def render(self) -> str:
        if self.kind == ClassLabel.POINT:
            return "pt"
        if self.kind == ClassLabel.HYPERSURFACE:
            return f"Hyp(P^{self.ambient_dim},d={self.degree})"
        return self.name


class FormalSum:
    """Finite integer combination of class labels; zero coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[ClassLabel, int]] = None):
        clean = {}
        if terms:
            for label, coeff in terms.items():
                if coeff:
                    clean[label] = coeff
        self.terms: dict[ClassLabel, int] = clean

    @staticmethod
    def zero() -> "FormalSum":
        return FormalSum()

    @staticmethod
    def of(label: ClassLabel, coeff: int = 1) -> "FormalSum":
        return FormalSum({label: coeff})

    def coefficient(self, label: ClassLabel) -> int:
        return self.terms.get(label, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) + coeff
        return FormalSum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def __neg__(self) -> "FormalSum":
        return FormalSum({l: -c for l, c in self.terms.items()})

    def __rmul__(self, scalar: int) -> "FormalSum":
        return FormalSum({l: scalar * c for l, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def render(self) -> str:
        """Deterministic text form, e.g. '+2*pt -1*Hyp(P^5,d=3)'."""
        if not self.terms:
            return "0"
        parts = []
        for label in sorted(self.terms):
            coeff = self.terms[label]
            sign = "+" if coeff > 0 else "-"
            parts.append(f"{sign}{abs(coeff)}*{label.render()}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FormalSum({self.render()})"


@record
class StratumAnnotation:
    """Connected components of the stratum over one cone: one label each."""
    cone_id: str
    labels: tuple[ClassLabel, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("annotation needs at least one label")


def default_annotation(cone_id: str) -> StratumAnnotation:
    return StratumAnnotation(cone_id, (ClassLabel.symbolic(f"E({cone_id})"),))


def vol_skeleton(fan: Fan,
                 annotations: Mapping[Cone, StratumAnnotation],
                 active_filter: Optional[Callable[[Cone], bool]] = None) -> FormalSum:
    """Signed sum over bounded cones passing the filter.

    Each contributing cone adds its height-one Euler characteristic
    (-1)^(dim - 1) times the sum of its annotation labels; cones without an
    annotation get one symbolic label E(c<i>), i the cone's index in the
    fan, with component count 1.
    """
    ids = {cone: f"c{i}" for i, cone in enumerate(fan.cones)}
    total = FormalSum.zero()
    for cone in fan.bounded_cones():
        if active_filter is not None and not active_filter(cone):
            continue
        ann = annotations.get(cone) or default_annotation(ids[cone])
        sign = euler_char_height1(cone)
        for label in ann.labels:
            total = total + FormalSum.of(label, sign)
    return total
