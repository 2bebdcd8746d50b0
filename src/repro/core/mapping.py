"""Request→resource mappings and their circuit paths.

A *mapping* is the scheduler's output: a set of request→resource
assignments, each carrying the link path its circuit will occupy.  The
paper's optimality criteria are expressed over mappings: maximise
``len(mapping)`` (homogeneous) or minimise its total allocation cost
(priorities/preferences).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, NamedTuple

from repro.core.requests import Request, Resource
from repro.networks.topology import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.model import MRSIN

__all__ = ["Assignment", "Mapping"]


class _AssignmentFields(NamedTuple):
    request: Request
    resource: Resource
    path: tuple[Link, ...]


class Assignment(_AssignmentFields):
    """One request bound to one resource over a concrete path.

    A named tuple (a tick builds one per grant, and a frozen dataclass
    sets each field through ``object.__setattr__``) whose one
    construction path checks that the path joins the two ends.
    """

    __slots__ = ()

    def __new__(cls, request: Request, resource: Resource, path: tuple[Link, ...]) -> "Assignment":
        if path:
            if path[0].src.box != request.processor:
                raise ValueError(
                    f"path starts at processor {path[0].src.box}, "
                    f"request is from {request.processor}"
                )
            if path[-1].dst.box != resource.index:
                raise ValueError(
                    f"path ends at resource {path[-1].dst.box}, "
                    f"assignment names {resource.index}"
                )
        return tuple.__new__(cls, (request, resource, path))


@dataclass
class Mapping:
    """A set of simultaneous assignments (one scheduling cycle's output)."""

    assignments: list[Assignment] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.assignments)

    def __iter__(self) -> Iterator[Assignment]:
        return iter(self.assignments)

    def add(self, assignment: Assignment) -> None:
        """Append one assignment."""
        self.assignments.append(assignment)

    @property
    def pairs(self) -> set[tuple[int, int]]:
        """The ``(processor, resource)`` pairs, as in the paper's examples."""
        return {(a.request.processor, a.resource.index) for a in self.assignments}

    def allocation_cost(self, max_priority: int, max_preference: int) -> float:
        """Total cost under Transformation 2's cost function.

        Served requests each cost ``(ymax - y_p) + (qmax - q_w)``;
        lower is better, so serving urgent requests on preferred
        resources is cheapest.
        """
        return float(
            sum(
                (max_priority - a.request.priority)
                + (max_preference - a.resource.preference)
                for a in self.assignments
            )
        )

    def check_resources(self, mrsin: "MRSIN") -> None:
        """The resource half of :meth:`validate`.

        Verifies distinct processors and resources, and free available
        resources of the requested types.  Raises :class:`ValueError`
        on the first violation.
        """
        procs = [a.request.processor for a in self.assignments]
        if len(set(procs)) != len(procs):
            raise ValueError("two assignments share a processor")
        ress = [a.resource.index for a in self.assignments]
        if len(set(ress)) != len(ress):
            raise ValueError("two assignments share a resource")
        for a in self.assignments:
            actual = mrsin.resources[a.resource.index]
            if actual.busy:
                raise ValueError(f"resource {a.resource.index} is busy")
            if actual.failed:
                raise ValueError(f"resource {a.resource.index} has failed")
            if actual.resource_type != a.request.resource_type:
                raise ValueError(
                    f"type mismatch: request wants {a.request.resource_type!r}, "
                    f"resource {a.resource.index} is {actual.resource_type!r}"
                )

    def validate(self, mrsin: "MRSIN") -> None:
        """Check the mapping is simultaneously realisable on ``mrsin``.

        :meth:`check_resources`, then the network's one path check
        (:meth:`~repro.networks.topology.MultistageNetwork.check_paths`:
        link-disjoint, free, healthy paths).  Raises
        :class:`ValueError` on the first violation.
        """
        self.check_resources(mrsin)
        mrsin.network.check_paths([a.path for a in self.assignments])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = ", ".join(f"(p{p}, r{r})" for p, r in sorted(self.pairs))
        return f"Mapping{{{pairs}}}"
