"""Requests, resources, priorities, and preferences (Section II).

The model: *"A priority level may be associated with a request to show
the urgency of the request.  A preference value may be associated with
a resource to show the desirability of being used for service.  The
costs of allocation are inversely related to the priorities and
preferences."*  Each request needs exactly one resource (model item 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

__all__ = ["DEFAULT_TYPE", "Request", "Resource"]

# The resource type used by homogeneous systems.
DEFAULT_TYPE: Hashable = "default"


@dataclass(frozen=True)
class Request:
    """A pending request from a processor.

    Attributes
    ----------
    processor:
        Index of the requesting processor (its network input port).
    resource_type:
        The type of resource needed; homogeneous systems use
        :data:`DEFAULT_TYPE`.
    priority:
        Urgency level ``y_p >= 1``; higher is more urgent.  The paper's
        Fig. 5 uses levels 1..10.
    tag:
        Opaque caller payload (task id, arrival time, ...) excluded
        from equality so identical logical requests compare equal.
    """

    processor: int
    resource_type: Hashable = DEFAULT_TYPE
    priority: int = 1
    tag: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise ValueError(f"processor index {self.processor} negative")
        if self.priority < 1 or self.priority % 1:
            raise ValueError(f"priority {self.priority} must be an integer >= 1")


@dataclass
class Resource:
    """One resource attached to a network output port.

    Attributes
    ----------
    index:
        Output port the resource sits on.
    resource_type:
        The function this resource implements (FFT array, printer, ...).
    preference:
        Desirability ``q_w >= 1``; higher is preferred.
    busy:
        Whether the resource is currently executing a task.  A busy
        resource is excluded from scheduling (capacity 0 in the
        transformations).
    failed:
        Whether the resource has (physically) failed.  A failed
        resource is excluded from scheduling until repaired; a task it
        was serving when it failed is lost (the service revokes the
        holder's lease).
    """

    index: int
    resource_type: Hashable = DEFAULT_TYPE
    preference: int = 1
    busy: bool = False
    failed: bool = False

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"resource index {self.index} negative")
        if self.preference < 1 or self.preference % 1:
            raise ValueError(f"preference {self.preference} must be an integer >= 1")

    @property
    def available(self) -> bool:
        """Free, healthy, and ready to accept a task."""
        return not self.busy and not self.failed
