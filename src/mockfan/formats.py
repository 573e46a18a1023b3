"""Structured text files for cones, fans, charts, results, and expressions.

All schemas are integer-only and versioned by a leading `schema` line.
Writers emit canonical objects deterministically, so writing what was read
back out reproduces the file byte for byte.  Cone ids in result and
annotation files are the 0-based positions in the fan's canonical cone
listing; a result's active sets travel by them, as an `ActiveSets`, and a
cone with no line reads as the empty set, as the writer writes it.

Grammar (one record per line, whitespace separated):

  cone file        schema mockfan.cone/1; rank R; rays N; N vectors;
                   lineality K; K vectors
  fan file         schema mockfan.fan/1; rank R; has_t 0|1; rays N;
                   N vectors; cones M; M lines `cone <ray indices...>`
  chart file       schema mockfan.chart/1; label L; rank R; scale l;
                   sigma_duals N; N vectors; items M;
                   M lines `item <id> kappa <k> exponent <R ints>`
  result file      fan file body with schema mockfan.result/1, then
                   active_sets M; M lines `cone <idx> items <ids...>`
  annotations      schema mockfan.annotations/1; annotations M;
                   M lines `cone <idx> labels <label tokens...>`
  expression       schema mockfan.expression/1; terms M;
                   M lines `<coeff> <label token>`; `rendered <text>`

Label tokens: `pt`, `hyp:<ambient_dim>:<degree>`, `sym:<name>`.

Blank lines and lines starting with `#` are skipped anywhere.  Readers reject
a negative rank or count, an item id repeated in one active set, a wrong
`rendered` line, and text after the end.

A fan is read through its maximal cones (`_read_fan_body`): a listed cone
whose generators are the rays of a face (`Cone.face_mask`) of the first
built cone whose ray indices hold its own needs no DD, as `fan_from_cones`
adds that face by face closure.  A listing that is no fan fails with the
message of its cone-by-cone reading, from one `fan_from_cones` call.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

from .cones import Cone, cone_from_generators
from .fans import Fan, fan_from_cones, is_bounded_cone, is_special_cone
from .subdivision import ActiveSets, LiftedExponent, MockPolytopeChart
from .volume import ClassLabel, FormalSum, StratumAnnotation


class ParseError(ValueError):
    """Malformed input file."""


CONE_SCHEMA = "mockfan.cone/1"
FAN_SCHEMA = "mockfan.fan/1"
CHART_SCHEMA = "mockfan.chart/1"
RESULT_SCHEMA = "mockfan.result/1"
ANNOTATIONS_SCHEMA = "mockfan.annotations/1"
EXPRESSION_SCHEMA = "mockfan.expression/1"
FACES_SCHEMA = "mockfan.faces/1"
CLASSIFICATION_SCHEMA = "mockfan.classification/1"


class _Lines:
    def __init__(self, text: str):
        self.lines = [ln.rstrip() for ln in text.splitlines()
                      if ln.strip() and not ln.lstrip().startswith("#")]
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, keyword: str) -> list[str]:
        line = self.next()
        parts = line.split()
        if not parts or parts[0] != keyword:
            raise ParseError(f"expected {keyword!r}, got {line!r}")
        return parts[1:]

    def done(self) -> bool:
        return self.pos >= len(self.lines)

    def end(self):
        if not self.done():
            raise ParseError(f"unexpected text after the end of the file: "
                             f"{self.lines[self.pos]!r}")


_INT = re.compile(r"[+-]?[0-9]+").fullmatch


def _ints(tokens: Sequence[str], what: str) -> tuple[int, ...]:
    """An optional sign and ASCII digits (`int` also takes `1_0` and `５`)."""
    if all(map(_INT, tokens)):
        return tuple(map(int, tokens))
    raise ParseError(f"bad integer in {what}: {next(t for t in tokens if not _INT(t))!r}")


def _one_int(tokens: Sequence[str], what: str) -> int:
    if len(tokens) != 1:
        raise ParseError(f"{what} expects one integer")
    return _ints(tokens, what)[0]


def _nonnegative(lines: _Lines, keyword: str) -> int:
    n = _one_int(lines.expect(keyword), keyword)
    if n < 0:
        raise ParseError(f"{keyword} must be nonnegative, got {n}")
    return n


def _read_vectors(lines: _Lines, count: int, rank: int, what: str) -> list[tuple[int, ...]]:
    out = []
    for _ in range(count):
        v = _ints(lines.next().split(), what)
        if len(v) != rank:
            raise ParseError(f"{what} vector has {len(v)} entries, expected {rank}")
        out.append(v)
    return out


def _check_schema(lines: _Lines, schema: str):
    tokens = lines.expect("schema")
    if tokens != [schema]:
        raise ParseError(f"expected schema {schema}, got {' '.join(tokens)}")


# -- cones -------------------------------------------------------------------

def write_cone(c: Cone) -> str:
    out = [f"schema {CONE_SCHEMA}", f"rank {c.rank}", f"rays {len(c.rays)}"]
    out += [" ".join(map(str, r)) for r in c.rays]
    out.append(f"lineality {len(c.lineality)}")
    out += [" ".join(map(str, v)) for v in c.lineality]
    return "\n".join(out) + "\n"


def read_cone(text: str) -> Cone:
    lines = _Lines(text)
    _check_schema(lines, CONE_SCHEMA)
    rank = _nonnegative(lines, "rank")
    nrays = _nonnegative(lines, "rays")
    rays = _read_vectors(lines, nrays, rank, "ray")
    nlin = _nonnegative(lines, "lineality")
    lin = _read_vectors(lines, nlin, rank, "lineality")
    lines.end()
    return cone_from_generators(rank, rays, lin)


# -- fans ----------------------------------------------------------------------

def _fan_body(f: Fan) -> list[str]:
    """The fan's lines: rays in first-use order, then cones, read off the
    fan's cells; `number[i]` is the written index of the ray at position i."""
    number, used, cones = [None] * len(f.rays), [], []
    for _, at in f.cells:
        for i in at:
            if number[i] is None:
                number[i] = str(len(used))
                used.append(i)
        cones.append(" ".join(["cone", *map(number.__getitem__, at)]))
    return ([f"rank {f.rank}", f"has_t {1 if f.has_t_coordinate else 0}", f"rays {len(used)}"]
            + [" ".join(map(str, f.rays[i])) for i in used] + [f"cones {len(cones)}"] + cones)


def write_fan(f: Fan) -> str:
    return "\n".join([f"schema {FAN_SCHEMA}"] + _fan_body(f)) + "\n"


def _read_fan_body(lines: _Lines) -> Fan:
    """The fan of the listed cones, with one DD per index-maximal cone.

    Cones go largest ray-index set first.  One whose generators are the
    rays of a face (`Cone.face_mask`) of its holder, the first built cone
    whose index set holds its own, is that face and is not built; the rest
    are.  A holder has no holder of its own: that one would be built earlier
    and hold the cone too.  In a fan, a cone inside two built cones lies in
    their meet, a face of each, so it is a face of both or of neither: the
    first holder decides as well as all of them would.

    A listing that is no fan fails as its cone-by-cone reading would, with
    the same message: a skipped cone is a face of a built cone, so if that
    cone has lineality the convexity check fires in both readings;
    otherwise the face has no ray the cone lacks, so it comes after the
    cone in the one sorted pass of `fan_from_cones`.  When the pass gets to
    it, it is in the face closure (a face of a face is a face), unless the
    pass has already stopped at that cone as the stray.
    """
    rank = _nonnegative(lines, "rank")
    has_t = _one_int(lines.expect("has_t"), "has_t")
    if has_t not in (0, 1):
        raise ParseError(f"has_t must be 0 or 1, got {has_t}")
    nrays = _nonnegative(lines, "rays")
    rays = _read_vectors(lines, nrays, rank, "ray")
    ncones = _nonnegative(lines, "cones")
    listed = []
    for _ in range(ncones):
        idx = _ints(lines.expect("cone"), "cone ray indices")
        bad = [i for i in idx if not 0 <= i < nrays]
        if bad:
            raise ParseError(f"cone ray index {bad[0]} out of range for {nrays} rays")
        listed.append((sum(1 << i for i in set(idx)), [rays[i] for i in idx]))
    built: list[tuple[int, Cone]] = []
    for mask, gens in sorted(listed, key=lambda entry: -entry[0].bit_count()):
        holder = next((c for held, c in built if mask & ~held == 0), None)
        if holder is None or holder.face_mask(gens) is None:
            built.append((mask, cone_from_generators(rank, gens)))
    return fan_from_cones(rank, [c for _, c in built], has_t=bool(has_t))


def read_fan(text: str) -> Fan:
    lines = _Lines(text)
    _check_schema(lines, FAN_SCHEMA)
    fan = _read_fan_body(lines)
    lines.end()
    return fan


# -- charts --------------------------------------------------------------------

def write_chart(chart: MockPolytopeChart) -> str:
    out = [f"schema {CHART_SCHEMA}", f"label {chart.label}",
           f"rank {chart.ambient_dual_rank}", f"scale {chart.scale}",
           f"sigma_duals {len(chart.sigma_dual_generators)}"]
    out += [" ".join(map(str, g)) for g in chart.sigma_dual_generators]
    out.append(f"items {len(chart.items)}")
    for it in chart.items:
        exp = " ".join(map(str, it.exponent))
        out.append(f"item {it.id} kappa {it.kappa} exponent {exp}")
    return "\n".join(out) + "\n"


def read_chart(text: str) -> MockPolytopeChart:
    lines = _Lines(text)
    _check_schema(lines, CHART_SCHEMA)
    label_tokens = lines.expect("label")
    if len(label_tokens) != 1:
        raise ParseError("label must be a single token")
    label = label_tokens[0]
    rank = _nonnegative(lines, "rank")
    scale = _one_int(lines.expect("scale"), "scale")
    nduals = _nonnegative(lines, "sigma_duals")
    duals = _read_vectors(lines, nduals, rank, "sigma dual")
    nitems = _nonnegative(lines, "items")
    items = []
    for _ in range(nitems):
        tokens = lines.expect("item")
        if len(tokens) < 4 or tokens[1] != "kappa" or tokens[3] != "exponent":
            raise ParseError("item line must be: item <id> kappa <k> exponent <ints>")
        item_id = tokens[0]
        k = _ints(tokens[2:3], "kappa")[0]
        exp = _ints(tokens[4:], "exponent")
        if len(exp) != rank:
            raise ParseError(f"item {item_id!r} exponent has {len(exp)} entries, expected {rank}")
        items.append(LiftedExponent(item_id, exp, k))
    lines.end()
    return MockPolytopeChart(label, rank, tuple(duals), tuple(items), scale=scale)


# -- results (fan + active sets) ------------------------------------------------

def write_result(fan: Fan, active_sets: ActiveSets) -> str:
    if getattr(active_sets, "fan", None) != fan:   # its rows are read by position
        raise ValueError("write_result needs the ActiveSets of the fan it writes")
    out = [f"schema {RESULT_SCHEMA}", *_fan_body(fan), f"active_sets {len(fan)}"]
    out += [" ".join(["cone", str(k), "items", *active_sets.sorted_ids(k)])
            for k in range(len(fan))]
    return "\n".join(out) + "\n"


def read_fan_or_result(text: str) -> Fan:
    """Accept either a fan file or a result file and return the fan."""
    lines = _Lines(text)
    tokens = lines.expect("schema")
    if tokens == [FAN_SCHEMA]:
        return read_fan(text)
    if tokens == [RESULT_SCHEMA]:
        return read_result(text)[0]
    raise ParseError(f"expected a fan or result file, got schema {' '.join(tokens)}")


def read_result(text: str) -> tuple[Fan, ActiveSets]:
    """The fan and its `ActiveSets`; a cone with no line has the empty set."""
    lines = _Lines(text)
    _check_schema(lines, RESULT_SCHEMA)
    fan = _read_fan_body(lines)
    nsets = _nonnegative(lines, "active_sets")
    rows: list = [None] * len(fan)
    for _ in range(nsets):
        tokens = lines.expect("cone")
        if len(tokens) < 2 or tokens[1] != "items":
            raise ParseError("active set line must be: cone <idx> items <ids...>")
        idx = _ints(tokens[:1], "cone index")[0]
        if not 0 <= idx < len(fan):
            raise ParseError(f"active set cone index {idx} out of range")
        if rows[idx] is not None:
            raise ParseError(f"active set cone index {idx} repeated")
        rows[idx] = ActiveSets.row(set(tokens[2:]))
        if len(rows[idx][0]) != len(tokens) - 2:
            raise ParseError(f"active set of cone index {idx} has a repeated item id")
    lines.end()
    return fan, ActiveSets(fan, [row or ActiveSets.row(()) for row in rows])


# -- class labels, annotations, expressions --------------------------------------

def label_token(label: ClassLabel) -> str:
    if label.kind == ClassLabel.POINT:
        return "pt"
    if label.kind == ClassLabel.HYPERSURFACE:
        return f"hyp:{label.ambient_dim}:{label.degree}"
    return f"sym:{label.name}"


def parse_label(token: str) -> ClassLabel:
    if token == "pt":
        return ClassLabel.point()
    if token.startswith("hyp:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise ParseError(f"bad hypersurface label {token!r}")
        make, args = ClassLabel.hypersurface, _ints(parts[1:], "hypersurface label")
        what = f"hypersurface label {token!r} needs a dimension and degree >= 1"
    elif token.startswith("sym:"):
        make, args, what = ClassLabel.symbolic, (token[4:],), "symbolic label needs a name"
    else:
        raise ParseError(f"unknown class label {token!r}")
    try:   # a label's own checks are the reader's
        return make(*args)
    except ValueError:
        raise ParseError(what) from None


def write_annotations(fan: Fan, annotations: Mapping[Cone, StratumAnnotation]) -> str:
    """One line per annotated cone, by its position in the fan; an annotated
    cone that is not a cone of the fan raises ValueError."""
    stray = next((c for c in annotations if c not in fan), None)
    if stray is not None:
        raise ValueError(f"annotated cone is not a cone of the fan: {stray!r}")
    rows = [f"cone {idx} labels {' '.join(map(label_token, annotations[c].labels))}"
            for idx, c in enumerate(fan.cones) if c in annotations]
    out = [f"schema {ANNOTATIONS_SCHEMA}", f"annotations {len(rows)}"] + rows
    return "\n".join(out) + "\n"


def read_annotations(text: str, fan: Fan) -> dict[Cone, StratumAnnotation]:
    lines = _Lines(text)
    _check_schema(lines, ANNOTATIONS_SCHEMA)
    count = _nonnegative(lines, "annotations")
    out: dict[Cone, StratumAnnotation] = {}
    for _ in range(count):
        tokens = lines.expect("cone")
        if len(tokens) < 3 or tokens[1] != "labels":
            raise ParseError("annotation line must be: cone <idx> labels <labels...>")
        idx = _ints(tokens[:1], "cone index")[0]
        if not 0 <= idx < len(fan.cones):
            raise ParseError(f"annotation cone index {idx} out of range")
        if fan.cones[idx] in out:
            raise ParseError(f"annotation cone index {idx} repeated")
        labels = tuple(parse_label(t) for t in tokens[2:])
        out[fan.cones[idx]] = StratumAnnotation(f"c{idx}", labels)
    lines.end()
    return out


def write_expression(s: FormalSum) -> str:
    out = [f"schema {EXPRESSION_SCHEMA}", f"terms {len(s.terms)}"]
    for label in sorted(s.terms):
        coeff = s.terms[label]
        out.append(f"{coeff:+d} {label_token(label)}")
    out.append(f"rendered {s.render()}")
    return "\n".join(out) + "\n"


def read_expression(text: str) -> FormalSum:
    lines = _Lines(text)
    _check_schema(lines, EXPRESSION_SCHEMA)
    count = _nonnegative(lines, "terms")
    terms = {}
    for _ in range(count):
        parts = lines.next().split()
        if len(parts) != 2:
            raise ParseError("term line must be: <coeff> <label>")
        coeff = _ints(parts[:1], "coefficient")[0]
        label = parse_label(parts[1])
        if coeff == 0 or label in terms:
            raise ParseError(f"term {parts[1]} is repeated or has coefficient 0")
        terms[label] = coeff
    total = FormalSum(terms)
    if not lines.done() and lines.next() != f"rendered {total.render()}":
        raise ParseError(f"the rendered line does not read 'rendered {total.render()}'")
    lines.end()
    return total


# -- reports ----------------------------------------------------------------------

def write_faces(c: Cone) -> str:
    """Listing of all faces of a cone, sharing one ray table."""
    faces = c.faces()
    ray_index = {r: i for i, r in enumerate(c.rays)}
    out = [f"schema {FACES_SCHEMA}", f"rank {c.rank}", f"rays {len(c.rays)}"]
    out += [" ".join(map(str, r)) for r in c.rays]
    out.append(f"lineality {len(c.lineality)}")
    out += [" ".join(map(str, v)) for v in c.lineality]
    out.append(f"faces {len(faces)}")
    for f in faces:
        idx = " ".join(str(ray_index[r]) for r in f.cone.rays)
        out.append(f"face dim {f.cone.dim()} rays {idx}".rstrip())
    return "\n".join(out) + "\n"


def write_classification(fan: Fan) -> str:
    """Per-cone special/bounded classification of a t-flagged fan."""
    fan._require_t("classification")
    out = [f"schema {CLASSIFICATION_SCHEMA}", f"cones {len(fan.cones)}"]
    for idx, c in enumerate(fan.cones):
        flags = []
        if is_special_cone(c):
            flags.append("special")
        if is_bounded_cone(c):
            flags.append("bounded")
        word = " ".join(flags) if flags else "none"
        out.append(f"cone {idx} dim {c.dim()} {word}")
    return "\n".join(out) + "\n"
