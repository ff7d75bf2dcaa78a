"""Case documents: a JSON object describing a group action to analyze.

Two construction modes, exactly one of which must be present:

  * stabilize_point + edges: the group acts on the given graph and the
    connection set is extracted at the stabilized vertex;
  * subgroup_generators + connection_reps: the coset graph of the
    subgroup is built with the given double-coset representatives.

Example (stabilize mode)::

    {
      "name": "triangle",
      "group": {"degree": 3, "generators": [[1, 0, 2], [1, 2, 0]]},
      "stabilize_point": 0,
      "edges": [[0, 1], [0, 2], [1, 2]],
      "options": {"seed": 7}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import get_args, get_type_hints

import numpy as np

from .errors import SizeLimitError
from .graphs import (
    CosetGraphSpec,
    SimpleGraph,
    TransitiveCase,
    build_coset_graph,
    make_transitive_case,
)
from .groups import DEFAULT_ELEMENT_CAP, PermutationGroup
from .spectral import DENSE_SIZE_CAP


class CaseParseError(ValueError):
    """A case document failed to parse or validate."""


@dataclass(frozen=True)
class CaseOptions:
    """Per-document option overrides.  Explicit command-line flags win
    over them; absent entries fall back to package defaults."""

    tol: float | None = None
    seed: int | None = None
    max_vertices: int | None = None
    max_group_order: int | None = None


#: Option name -> value type, read off ``CaseOptions``' ``X | None`` fields;
#: the document parser, the command-line flags and ``AnalyzeOptions``'
#: overrides all iterate this table.
_OPTION_KEYS = {
    name: next(kind for kind in get_args(hint) if kind is not type(None))
    for name, hint in get_type_hints(CaseOptions).items()
}


@dataclass(frozen=True)
class CaseSpec:
    name: str
    degree: int
    generators: tuple[tuple[int, ...], ...]
    stabilize_point: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    subgroup_generators: tuple[tuple[int, ...], ...] | None = None
    connection_reps: tuple[tuple[int, ...], ...] | None = None
    options: CaseOptions = field(default_factory=CaseOptions)

    @property
    def mode(self) -> str:
        return "stabilize" if self.stabilize_point is not None else "coset"


def _require(doc: dict, key: str):
    if key not in doc:
        raise CaseParseError(f"missing required field '{key}'")
    return doc[key]


def _int_field(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise CaseParseError(f"{path} must be an integer, got {value!r}")
    return value


def _image_array(value, degree: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise CaseParseError(f"{path} must be an array of integers")
    if len(value) != degree:
        raise CaseParseError(
            f"{path} has length {len(value)}, expected degree {degree}"
        )
    images = tuple(_int_field(x, f"{path}[{i}]") for i, x in enumerate(value))
    if sorted(images) != list(range(degree)):
        raise CaseParseError(f"{path} is not a permutation of 0..{degree - 1}")
    return images


def _image_arrays(value, degree: int, path: str) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise CaseParseError(f"{path} must be an array of image arrays")
    return tuple(
        _image_array(item, degree, f"{path}[{i}]") for i, item in enumerate(value)
    )


def parse_case(text: str) -> CaseSpec:
    """Parse and validate a case document; errors carry field locations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CaseParseError(
            f"line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise CaseParseError("document must be a JSON object")

    name = _require(doc, "name")
    if not isinstance(name, str) or not name:
        raise CaseParseError("name must be a non-empty string")

    group = _require(doc, "group")
    if not isinstance(group, dict):
        raise CaseParseError("group must be an object")
    degree = _int_field(_require(group, "degree"), "group.degree")
    if degree < 1:
        raise CaseParseError("group.degree must be positive")
    generators = _image_arrays(
        _require(group, "generators"), degree, "group.generators"
    )

    has_stabilize = "stabilize_point" in doc or "edges" in doc
    has_coset = "subgroup_generators" in doc or "connection_reps" in doc
    if has_stabilize and has_coset:
        raise CaseParseError(
            "both construction modes present: use either "
            "stabilize_point/edges or subgroup_generators/connection_reps"
        )
    if not has_stabilize and not has_coset:
        raise CaseParseError("no construction mode present")

    known = {
        "name",
        "group",
        "stabilize_point",
        "edges",
        "subgroup_generators",
        "connection_reps",
        "options",
    }
    for key in doc:
        if key not in known:
            raise CaseParseError(f"unknown field '{key}'")

    stabilize_point = edges = subgroup_generators = connection_reps = None
    if has_stabilize:
        if "stabilize_point" not in doc:
            raise CaseParseError("edges given without stabilize_point")
        if "edges" not in doc:
            raise CaseParseError("stabilize_point given without edges")
        stabilize_point = _int_field(doc["stabilize_point"], "stabilize_point")
        if not 0 <= stabilize_point < degree:
            raise CaseParseError(
                f"stabilize_point {stabilize_point} out of range for degree {degree}"
            )
        raw_edges = doc["edges"]
        if not isinstance(raw_edges, list):
            raise CaseParseError("edges must be an array of [u, v] pairs")
        pairs = []
        for i, item in enumerate(raw_edges):
            if not isinstance(item, list) or len(item) != 2:
                raise CaseParseError(f"edges[{i}] must be a [u, v] pair")
            u = _int_field(item[0], f"edges[{i}][0]")
            v = _int_field(item[1], f"edges[{i}][1]")
            for x in (u, v):
                if not 0 <= x < degree:
                    raise CaseParseError(
                        f"edges[{i}]: vertex {x} out of range for degree {degree}"
                    )
            if u == v:
                raise CaseParseError(f"edges[{i}]: loop at vertex {u}")
            pairs.append((u, v))
        edges = tuple(pairs)
    else:
        if "subgroup_generators" not in doc:
            raise CaseParseError("connection_reps given without subgroup_generators")
        if "connection_reps" not in doc:
            raise CaseParseError("subgroup_generators given without connection_reps")
        subgroup_generators = _image_arrays(
            doc["subgroup_generators"], degree, "subgroup_generators"
        )
        connection_reps = _image_arrays(
            doc["connection_reps"], degree, "connection_reps"
        )
        if not connection_reps:
            raise CaseParseError("connection_reps must not be empty")

    options = CaseOptions()
    if "options" in doc:
        raw = doc["options"]
        if not isinstance(raw, dict):
            raise CaseParseError("options must be an object")
        values = {}
        for key, value in raw.items():
            if key not in _OPTION_KEYS:
                raise CaseParseError(f"unknown option '{key}'")
            kind = _OPTION_KEYS[key]
            if kind is float:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise CaseParseError(f"options.{key} must be a number")
                values[key] = float(value)
            else:
                values[key] = _int_field(value, f"options.{key}")
        options = CaseOptions(**values)

    return CaseSpec(
        name=name,
        degree=degree,
        generators=generators,
        stabilize_point=stabilize_point,
        edges=edges,
        subgroup_generators=subgroup_generators,
        connection_reps=connection_reps,
        options=options,
    )


def load_case(path) -> CaseSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_case(handle.read())


def realize_case(
    spec: CaseSpec,
    max_vertices: int = DENSE_SIZE_CAP,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> TransitiveCase:
    """Build the transitive case described by a spec, handing its
    elements on as rows of images, which the group layer checks."""

    def rows(images) -> np.ndarray:
        # An empty list keeps its width; a row of another width cannot fit.
        return np.array(images, dtype=np.intp).reshape(len(images), spec.degree)

    # Checked before the group forms degree-long arrays of points.
    if spec.mode == "stabilize" and spec.degree > max_vertices:
        raise SizeLimitError(f"{spec.degree} vertices exceed the cap {max_vertices}")
    group = PermutationGroup(spec.degree, rows(spec.generators))
    if spec.mode == "stabilize":
        graph = SimpleGraph(spec.degree, spec.edges or ())
        return make_transitive_case(
            group, graph, base_vertex=spec.stabilize_point, cap=element_cap
        )
    subgroup = PermutationGroup(spec.degree, rows(spec.subgroup_generators))
    _, case = build_coset_graph(
        CosetGraphSpec(group, subgroup, rows(spec.connection_reps)),
        max_cosets=max_vertices,
        element_cap=element_cap,
    )
    return case
