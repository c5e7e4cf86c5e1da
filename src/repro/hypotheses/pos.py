"""Part-of-speech tagging (CoreNLP substitute).

The NMT experiments annotate each input word with a Penn-Treebank-style POS
tag and probe whether encoder units predict them.  This tagger combines a
word lexicon with suffix heuristics; for the synthetic parallel corpus of
:mod:`repro.nmt.corpus` the lexicon is exact by construction, so tags match
the generating grammar's ground truth.
"""

from __future__ import annotations

#: Penn Treebank tags appearing in Figure 11 of the paper.
PTB_TAGS = ("NNP", "VBZ", "RB", "NN", "DT", "VBD", "IN", "TO", "VB", "VBN",
            ".", "JJ", "NNS", "CD", ":", "CC", "PRP", "VBP")

_SUFFIX_RULES = (
    ("ing", "VBG"),
    ("ed", "VBD"),
    ("ly", "RB"),
    ("es", "VBZ"),
    ("s", "NNS"),
)

_CLOSED_CLASS = {
    "the": "DT", "a": "DT", "an": "DT",
    "and": "CC", "or": "CC", "but": "CC",
    "he": "PRP", "she": "PRP", "it": "PRP", "they": "PRP", "we": "PRP",
    "to": "TO",
    "in": "IN", "on": "IN", "at": "IN", "with": "IN", "of": "IN",
    "near": "IN", "under": "IN",
    ".": ".", ",": ",", ":": ":", ";": ":",
}


class SimplePosTagger:
    """Lexicon + suffix-rule tagger over whitespace-tokenized words."""

    def __init__(self, lexicon: dict[str, str] | None = None,
                 default_tag: str = "NN"):
        self.lexicon = dict(_CLOSED_CLASS)
        if lexicon:
            self.lexicon.update(lexicon)
        self.default_tag = default_tag

    def tag_word(self, word: str) -> str:
        lower = word.lower()
        if lower in self.lexicon:
            return self.lexicon[lower]
        if word and word[0].isupper():
            return "NNP"
        if word.isdigit():
            return "CD"
        for suffix, tag in _SUFFIX_RULES:
            if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
                return tag
        return self.default_tag

    def tag(self, words: list[str]) -> list[str]:
        return [self.tag_word(w) for w in words]
