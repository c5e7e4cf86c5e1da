"""Unit groups: which hidden units to inspect together (Definition 1).

A joint measure assigns different scores depending on the group it analyzes
(a probe over layer 0 differs from a probe over the whole model), so groups
are first-class inputs to :func:`repro.core.inspect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cache import model_id
from repro.extract.base import Extractor, require_extractor


@dataclass
class UnitGroup:
    """A named subset of a model's hidden units.

    ``unit_ids`` indexes units within the extractor's unit space;
    ``extractor`` defaults to the pipeline-level extractor when None, which
    lets groups from different layers carry their own extraction logic
    (e.g. encoder layer 0 vs. layer 1 of a seq2seq model).
    """

    model: object
    unit_ids: np.ndarray
    name: str = "all"
    extractor: Extractor | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.unit_ids = np.asarray(self.unit_ids, dtype=int)
        if self.unit_ids.ndim != 1:
            raise ValueError("unit_ids must be a flat index vector")
        if self.unit_ids.shape[0] == 0:
            raise ValueError(f"unit group {self.name!r} has no units")
        if self.unit_ids.min() < 0:
            # numpy would wrap the index and score unit n_units + id
            raise ValueError(f"unit group {self.name!r} has negative unit "
                             f"ids: {self.unit_ids[self.unit_ids < 0]}")
        if self.extractor is not None:
            require_extractor(self.extractor,
                              f"unit group {self.name!r}: extractor")

    @property
    def model_id(self) -> str:
        return model_id(self.model)

    @property
    def n_units(self) -> int:
        return int(self.unit_ids.shape[0])

    def __repr__(self) -> str:
        return (f"UnitGroup({self.model_id}/{self.name}, "
                f"{self.n_units} units)")


def all_units_group(model, extractor: Extractor | None = None,
                    name: str = "all") -> UnitGroup:
    """Group over every unit the (model, extractor) pair exposes."""
    if extractor is not None:
        n = extractor.n_units(model)
    else:
        n = model.n_units
    return UnitGroup(model=model, unit_ids=np.arange(n), name=name,
                     extractor=extractor)


def model_groups(models, extractor: Extractor | None, unit_ids=None,
                 resolve=None) -> list[UnitGroup]:
    """One group per model: every unit, or ``unit_ids`` of each.

    ``models`` is one model or a list of them; ``resolve`` maps each entry
    to a live model first (a session resolving registered names).
    """
    if models is None:
        raise ValueError("provide models or explicit unit_groups")
    if extractor is not None:
        require_extractor(extractor, "extractor")
    if not isinstance(models, (list, tuple)):
        models = [models]
    if resolve is not None:
        models = [resolve(m) for m in models]
    if unit_ids is None:
        return [all_units_group(m, extractor) for m in models]
    return [UnitGroup(model=m, unit_ids=unit_ids, name="selected")
            for m in models]


def layer_groups(model, layer_extractors: dict[str, Extractor]) -> list[UnitGroup]:
    """One group per named extractor (e.g. {'layer0': ..., 'layer1': ...})."""
    groups = []
    for name, extractor in layer_extractors.items():
        groups.append(UnitGroup(model=model,
                                unit_ids=np.arange(extractor.n_units(model)),
                                name=name, extractor=extractor))
    return groups
