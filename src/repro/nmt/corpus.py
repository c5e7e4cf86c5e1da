"""Synthetic English-German parallel corpus with gold POS tags.

Sentences are sampled from a small phrase grammar over a bilingual lexicon;
every English token carries its Penn-Treebank tag, so probing experiments
have exact ground truth (the paper uses CoreNLP tags, which are themselves
predictions).  German output is a word-aligned translation with two simple
reordering rules (adjective agreement is ignored; the point is that the
encoder must represent enough source structure for translation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import new_rng

#: (english, german, tag) lexicon
LEXICON: list[tuple[str, str, str]] = [
    ("the", "der", "DT"), ("a", "ein", "DT"),
    ("dog", "hund", "NN"), ("cat", "katze", "NN"), ("house", "haus", "NN"),
    ("book", "buch", "NN"), ("tree", "baum", "NN"), ("car", "auto", "NN"),
    ("bird", "vogel", "NN"), ("river", "fluss", "NN"),
    ("dogs", "hunde", "NNS"), ("cats", "katzen", "NNS"),
    ("books", "buecher", "NNS"), ("trees", "baeume", "NNS"),
    ("anna", "anna", "NNP"), ("berlin", "berlin", "NNP"),
    ("peter", "peter", "NNP"), ("tom", "tom", "NNP"),
    ("he", "er", "PRP"), ("she", "sie", "PRP"), ("it", "es", "PRP"),
    ("they", "sie", "PRP"), ("we", "wir", "PRP"),
    ("sees", "sieht", "VBZ"), ("reads", "liest", "VBZ"),
    ("likes", "mag", "VBZ"), ("finds", "findet", "VBZ"),
    ("saw", "sah", "VBD"), ("read", "las", "VBD"),
    ("liked", "mochte", "VBD"), ("found", "fand", "VBD"),
    ("see", "sehen", "VBP"), ("like", "moegen", "VBP"),
    ("find", "finden", "VBP"),
    ("seen", "gesehen", "VBN"), ("taken", "genommen", "VBN"),
    ("quickly", "schnell", "RB"), ("slowly", "langsam", "RB"),
    ("often", "oft", "RB"), ("here", "hier", "RB"),
    ("big", "gross", "JJ"), ("small", "klein", "JJ"),
    ("red", "rot", "JJ"), ("old", "alt", "JJ"), ("green", "gruen", "JJ"),
    ("in", "in", "IN"), ("on", "auf", "IN"), ("with", "mit", "IN"),
    ("near", "bei", "IN"), ("under", "unter", "IN"),
    ("to", "zu", "TO"),
    ("and", "und", "CC"), ("or", "oder", "CC"), ("but", "aber", "CC"),
    ("two", "zwei", "CD"), ("three", "drei", "CD"), ("five", "fuenf", "CD"),
    (".", ".", "."), (";", ";", ":"),
]


def _expand_lexicon() -> None:
    """Grow the open word classes so tags are not decodable from a handful
    of word identities.

    With only ~6 words per tag, even a randomly initialized encoder's units
    correlate with tags through random word embeddings; a larger vocabulary
    dilutes that shortcut, which is what makes the trained-vs-untrained
    comparison of Figure 12 meaningful.  German forms are derived
    mechanically -- the corpus is synthetic, only the alignment matters.
    """
    nouns = ("lamp", "stone", "road", "window", "cloud", "door", "garden",
             "table", "chair", "bridge", "flower", "horse", "train", "ship",
             "mountain", "forest", "apple", "letter", "clock", "mirror",
             "bottle", "ladder", "basket", "candle", "hammer", "pencil",
             "pillow", "carpet", "engine", "market")
    adjectives = ("blue", "dark", "warm", "cold", "fast", "slow", "tall",
                  "short", "heavy", "light", "quiet", "loud", "clean",
                  "dirty", "young")
    verbs3 = ("takes", "holds", "moves", "opens", "closes", "paints",
              "builds", "breaks", "carries", "watches")
    verbs_past = ("took", "held", "moved", "opened", "closed", "painted",
                  "built", "broke", "carried", "watched")
    adverbs = ("carefully", "loudly", "quietly", "early", "late",
               "yesterday", "today")
    names = ("maria", "hans", "julia", "felix", "laura", "paul")
    numbers = ("four", "six", "seven", "nine", "ten")

    for word in nouns:
        LEXICON.append((word, word + "e", "NN"))
        LEXICON.append((word + "s", word + "en", "NNS"))
    for word in adjectives:
        LEXICON.append((word, word + "ig", "JJ"))
    for word in verbs3:
        LEXICON.append((word, word + "t", "VBZ"))
    for word in verbs_past:
        LEXICON.append((word, word + "te", "VBD"))
    for word in adverbs:
        LEXICON.append((word, word + "lich", "RB"))
    for word in names:
        LEXICON.append((word, word, "NNP"))
    for word in numbers:
        LEXICON.append((word, word + "z", "CD"))


_expand_lexicon()

PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"


class WordVocab:
    """Word-level vocabulary; ids 0..2 are <pad>, <bos>, <eos>."""

    def __init__(self, words: list[str]):
        specials = [PAD, BOS, EOS]
        ordered = specials + [w for w in dict.fromkeys(words)
                              if w not in specials]
        self._id_of = {w: i for i, w in enumerate(ordered)}
        self._word_of = ordered
        self.pad_id, self.bos_id, self.eos_id = 0, 1, 2

    def __len__(self) -> int:
        return len(self._word_of)

    def encode(self, words: list[str]) -> list[int]:
        return [self._id_of[w] for w in words]

    def decode(self, ids) -> list[str]:
        return [self._word_of[int(i)] for i in ids]

    def __contains__(self, word: str) -> bool:
        return word in self._id_of


@dataclass
class NmtCorpus:
    """Parallel sentences plus aligned POS ground truth.

    ``src`` is (n, T_src) padded English ids; ``tgt_in``/``tgt_out`` are the
    teacher-forcing German sequences; ``tags`` is (n, T_src) tag ids aligned
    with ``src`` (padding positions carry ``pad_tag_id``).
    """

    src: np.ndarray
    tgt_in: np.ndarray
    tgt_out: np.ndarray
    tags: np.ndarray
    src_vocab: WordVocab
    tgt_vocab: WordVocab
    tag_names: list[str]
    sentences: list[list[str]] = field(default_factory=list)
    pad_tag_id: int = 0

    @property
    def n_sentences(self) -> int:
        return int(self.src.shape[0])


def _sample_sentence(rng: np.random.Generator,
                     by_tag: dict[str, list[tuple[str, str]]]
                     ) -> tuple[list[str], list[str], list[str]]:
    """Returns (english, german, tags) for one sentence."""
    def pick(tag: str) -> tuple[str, str, str]:
        en, de = by_tag[tag][rng.integers(len(by_tag[tag]))]
        return en, de, tag

    en: list[tuple[str, str, str]] = []

    def np_phrase() -> list[tuple[str, str, str]]:
        roll = rng.random()
        if roll < 0.18:
            return [pick("NNP")]
        if roll < 0.34:
            return [pick("PRP")]
        if roll < 0.45:
            return [pick("CD"), pick("NNS")]
        if roll < 0.70:
            return [pick("DT"), pick("NN")]
        return [pick("DT"), pick("JJ"), pick("NN")]

    subject = np_phrase()
    verb = [pick("VBZ") if rng.random() < 0.6 else pick("VBD")]
    obj = np_phrase()
    sentence = subject + verb + obj
    if rng.random() < 0.35:  # prepositional phrase
        sentence += [pick("IN")] + np_phrase()
    if rng.random() < 0.25:  # adverb
        sentence += [pick("RB")]
    if rng.random() < 0.20:  # coordination
        sentence += [pick("CC")] + np_phrase()
    sentence += [pick(".") if rng.random() < 0.9 else pick(":")]

    en_words = [w[0] for w in sentence]
    tags = [w[2] for w in sentence]
    # German: word-aligned, with adverbs moved before the object
    # (a mild reordering so translation is not purely positional)
    de_words = [w[1] for w in sentence]
    rb_positions = [i for i, t in enumerate(tags) if t == "RB"]
    for pos in rb_positions:
        if pos >= 3:
            word = de_words.pop(pos)
            de_words.insert(2, word)
    return en_words, de_words, tags


def generate_nmt_corpus(n_sentences: int = 600, max_src_len: int = 14,
                        max_tgt_len: int = 15,
                        seed: int = 0) -> NmtCorpus:
    """Sample a tagged parallel corpus of ``n_sentences``."""
    rng = new_rng(seed)
    by_tag: dict[str, list[tuple[str, str]]] = {}
    for en, de, tag in LEXICON:
        by_tag.setdefault(tag, []).append((en, de))
    # '.' tag key: pick("." ) uses by_tag["."]
    tag_names = sorted({tag for _, _, tag in LEXICON})

    src_vocab = WordVocab([en for en, _, _ in LEXICON])
    tgt_vocab = WordVocab([de for _, de, _ in LEXICON])

    src = np.zeros((n_sentences, max_src_len), dtype=np.int64)
    tgt_in = np.zeros((n_sentences, max_tgt_len), dtype=np.int64)
    tgt_out = np.zeros((n_sentences, max_tgt_len), dtype=np.int64)
    tags = np.zeros((n_sentences, max_src_len), dtype=np.int64)
    tag_index = {t: i + 1 for i, t in enumerate(tag_names)}  # 0 = padding
    sentences: list[list[str]] = []

    count = 0
    while count < n_sentences:
        en_words, de_words, sent_tags = _sample_sentence(rng, by_tag)
        if len(en_words) > max_src_len or len(de_words) + 1 > max_tgt_len:
            continue
        row = src_vocab.encode(en_words)
        src[count, :len(row)] = row
        tags[count, :len(row)] = [tag_index[t] for t in sent_tags]
        de_ids = tgt_vocab.encode(de_words)
        tgt_in[count, 0] = tgt_vocab.bos_id
        tgt_in[count, 1:len(de_ids) + 1] = de_ids
        tgt_out[count, :len(de_ids)] = de_ids
        tgt_out[count, len(de_ids)] = tgt_vocab.eos_id
        sentences.append(en_words)
        count += 1

    return NmtCorpus(src=src, tgt_in=tgt_in, tgt_out=tgt_out, tags=tags,
                     src_vocab=src_vocab, tgt_vocab=tgt_vocab,
                     tag_names=["<pad>"] + tag_names, sentences=sentences)
