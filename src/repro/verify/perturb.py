"""Symbol perturbations that preserve or flip hypothesis behavior.

For a record prefix ``s_1 .. s_k`` the procedure needs two replacements of
``s_k``: a baseline ``s_k^b != s_k`` with unchanged hypothesis behavior
``b_k``, and a treatment ``s_k^t`` whose behavior differs.  The
:class:`GenericPerturber` discovers both sets by re-evaluating the
hypothesis on candidate replacements; :class:`MappingPerturber` encodes them
explicitly (e.g. swap ``and`` with ``or`` vs. with ``chicken``).
"""

from __future__ import annotations


from repro.data.datasets import Dataset
from repro.hypotheses.base import HypothesisFunction
from repro.util.debuglog import degraded


class Perturber:
    """Yields (baseline_chars, treatment_chars) for a position in a text."""

    def candidates(self, text: str, pos: int) -> tuple[list[str], list[str]]:
        raise NotImplementedError


class MappingPerturber(Perturber):
    """Explicit per-character replacement tables."""

    def __init__(self, baseline: dict[str, list[str]],
                 treatment: dict[str, list[str]]):
        self.baseline = baseline
        self.treatment = treatment

    def candidates(self, text: str, pos: int) -> tuple[list[str], list[str]]:
        ch = text[pos]
        return list(self.baseline.get(ch, [])), list(self.treatment.get(ch, []))


class GenericPerturber(Perturber):
    """Classifies every alphabet symbol by its effect on the hypothesis.

    A replacement is *baseline* if the hypothesis behavior at ``pos`` is
    unchanged and *treatment* otherwise.  Replacements that leave the
    behavior vector identical everywhere else are preferred but not
    required, matching the paper's definition which fixes only the prefix.
    """

    def __init__(self, hypothesis: HypothesisFunction, dataset: Dataset,
                 alphabet: list[str] | None = None, atol: float = 1e-9):
        self.hypothesis = hypothesis
        self.dataset = dataset
        if alphabet is None:
            alphabet = [dataset.vocab.char(i)
                        for i in range(1, len(dataset.vocab))]
        self.alphabet = alphabet
        self.atol = atol

    def _behavior_at(self, text: str, pos: int) -> float:
        probe = _text_dataset(text, self.dataset)
        return float(self.hypothesis.behavior(probe, 0)[pos])

    def candidates(self, text: str, pos: int) -> tuple[list[str], list[str]]:
        original = text[pos]
        ref = self._behavior_at(text, pos)
        baseline: list[str] = []
        treatment: list[str] = []
        for ch in self.alphabet:
            if ch == original:
                continue
            perturbed = text[:pos] + ch + text[pos + 1:]
            try:
                value = self._behavior_at(perturbed, pos)
            except Exception as exc:
                # hypothesis undefined on this perturbation
                degraded("verify.perturbation-undefined",
                         self.hypothesis.name, exc=exc)
                continue
            if abs(value - ref) <= self.atol:
                baseline.append(ch)
            else:
                treatment.append(ch)
        return baseline, treatment


def _text_dataset(text: str, template: Dataset) -> Dataset:
    """A one-record dataset over a raw string, for hypothesis evaluation."""
    return Dataset(template.vocab.encode(text)[None, :], template.vocab,
                   [{"text": text, "source_id": 0, "offset": 0}])
