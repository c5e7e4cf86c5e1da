"""The one extractor protocol, differentially: for every in-tree extractor
the public call, the raw-rows + read-time-view composition and the plan's
per-group block are the same array — values, dtype and memory layout (a
measure's summation order, and so a score's last bits, follows layout)."""

import numpy as np
import pytest

from repro import (DiskBehaviorStore, InspectConfig, InspectionPlan,
                   SerialScheduler, Session, UnitBehaviorCache, UnitGroup)
from repro.data.datasets import Dataset, Vocab
from repro.extract import EncoderActivationExtractor, RnnActivationExtractor
from repro.hypotheses import CharSetHypothesis
from repro.hypotheses.annotations import mask_hypotheses
from repro.measures import CorrelationScore, JaccardScore
from repro.nmt import generate_nmt_corpus, train_nmt_model
from repro.vision import generate_shape_dataset, train_shape_cnn
from repro.vision.netdissect import CnnPixelExtractor

N_RECORDS = 10
TRANSFORMS = ("activation", "abs", "gradient")


def _pixel_dataset(shapes) -> Dataset:
    """Records carry image indices; every pixel is one symbol."""
    n_pixels = shapes.images.shape[1] * shapes.images.shape[2]
    symbols = np.repeat(np.arange(shapes.n_images)[:, None], n_pixels, axis=1)
    return Dataset(symbols, Vocab(["x"]),
                   meta=[{"image": i} for i in range(shapes.n_images)])


@pytest.fixture(scope="module")
def cases(sql_workload, trained_sql_model):
    """name -> (model, dataset, extractor factory); small batch sizes so
    every extraction spans several model calls."""
    corpus = generate_nmt_corpus(n_sentences=N_RECORDS, seed=3)
    nmt = train_nmt_model(corpus, n_units=6, epochs=1, seed=0)
    nmt_dataset = Dataset(corpus.src,
                          Vocab(list("abcdefghijklmnopqrstuvwxyz<>. ;")),
                          meta=[{"source_id": i, "offset": 0}
                                for i in range(corpus.n_sentences)])
    shapes = generate_shape_dataset(n_images=N_RECORDS, image_size=8, seed=1)
    cnn = train_shape_cnn(shapes, epochs=1, seed=0)

    def encoder(layer):
        return lambda: EncoderActivationExtractor(layer=layer, batch_size=4)

    return {
        "rnn": (trained_sql_model, sql_workload.dataset.head(N_RECORDS),
                lambda: RnnActivationExtractor(batch_size=4)),
        "enc0": (nmt, nmt_dataset, encoder(0)),
        "enc1": (nmt, nmt_dataset, encoder(1)),
        "enc_all": (nmt, nmt_dataset, encoder(None)),
        "cnn": (cnn, _pixel_dataset(shapes),
                lambda: CnnPixelExtractor(shapes.images, batch_size=4)),
    }


def _assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _plan_blocks(groups, dataset, extractor, config) -> dict[int, np.ndarray]:
    """The per-group unit blocks the executor would score, one block."""
    plan = InspectionPlan.build(
        groups, dataset, [CorrelationScore()],
        [CharSetHypothesis("space", " ")], extractor, config)
    sweeps = plan.source.submit_sweeps(
        list(enumerate(groups)), plan.order, SerialScheduler())
    return {gi: block for sweep in sweeps
            for gi, block in sweep.result().items()}


def _config(mode: str, tmp_path) -> InspectConfig:
    base = dict(mode="streaming", shuffle=False, block_size=N_RECORDS)
    if mode == "memory":
        return InspectConfig(unit_cache=UnitBehaviorCache(), **base)
    if mode == "store":
        return InspectConfig(
            unit_cache=UnitBehaviorCache(store=DiskBehaviorStore(tmp_path)),
            **base)
    return InspectConfig(**base)


@pytest.mark.parametrize("mode", ["uncached", "memory", "store", "two_groups"])
@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("name", ["rnn", "enc0", "enc1", "enc_all", "cnn"])
def test_extract_is_raw_rows_plus_views_is_the_plan_block(
        name, transform, mode, cases, tmp_path):
    model, dataset, make = cases[name]
    extractor = make()
    extractor.transform = transform
    n_units = extractor.n_units(model)
    subsets = ([np.arange(n_units)] if mode != "two_groups"
               else [np.array([1, 3]), np.array([0, 3, n_units - 1])])
    groups = [UnitGroup(model=model, unit_ids=units, name=f"g{i}")
              for i, units in enumerate(subsets)]
    ns = dataset.n_symbols
    raw = extractor.raw_rows(model, dataset.symbols)
    assert raw.shape == (dataset.n_records * ns, extractor.raw_width(model))

    # two groups run through both the uncached and the cached path; the
    # store-backed tier is read twice, the second time from disk alone
    if mode == "two_groups":
        configs = [_config("uncached", tmp_path), _config("memory", tmp_path)]
    elif mode == "store":
        configs = [_config("store", tmp_path), _config("store", tmp_path)]
    else:
        configs = [_config(mode, tmp_path)]
    states = raw.reshape(dataset.n_records, ns, -1)
    for config in configs:
        blocks = _plan_blocks(groups, dataset, extractor, config)
        for gi, units in enumerate(subsets):
            direct = extractor.extract(model, dataset.symbols,
                                       hid_units=units)
            _assert_same_array(
                extractor.finalize_states(
                    states, extractor.raw_columns(model, units)),
                direct)
            _assert_same_array(blocks[gi], direct)
        if mode != "two_groups":
            # hid_units=None is the view over every unit: the all-units
            # group's block, bytes and unit-major layout alike
            whole = extractor.extract(model, dataset.symbols)
            _assert_same_array(whole, extractor.finalize_states(
                states, extractor.raw_columns(model)))
            _assert_same_array(whole, blocks[0])
    if mode == "store":
        disk_tier = configs[1].unit_cache
        assert disk_tier.stats()["extractions"] == 0
        assert disk_tier.stats()["disk_hits"] == dataset.n_records


def test_cnn_channel_subsets_share_one_sweep_and_one_store(tmp_path):
    """Pixels are symbols, channels are units: two groups over disjoint
    channel subsets cost one ``activation_maps`` sweep per batch, and a
    second session over the same store costs none."""
    shapes = generate_shape_dataset(n_images=12, image_size=8, seed=1)
    model = train_shape_cnn(shapes, epochs=1, seed=0)
    sweeps = []
    activation_maps = model.activation_maps
    model.activation_maps = lambda images: (sweeps.append(len(images)),
                                            activation_maps(images))[1]
    dataset = _pixel_dataset(shapes)
    hyps = mask_hypotheses(shapes.flat_masks())
    half = model.n_units // 2

    def run(session):
        extractor = CnnPixelExtractor(shapes.images, batch_size=5)
        groups = [UnitGroup(model=model, unit_ids=np.arange(half),
                            name="low", extractor=extractor),
                  UnitGroup(model=model, unit_ids=np.arange(half,
                                                            model.n_units),
                            name="high", extractor=extractor)]
        return (session.inspect(dataset=dataset)
                .using(JaccardScore(quantile=0.9, calibration_rows=64))
                .hypotheses(hyps).where(groups=groups)
                .with_config(mode="full").run())

    with Session(tmp_path) as session:
        cold = run(session)
    assert sweeps == [5, 5, 2]           # 12 images, batches of 5, once
    with Session(tmp_path) as session:
        warm = run(session)
        assert session.unit_cache.stats()["extractions"] == 0
    assert len(sweeps) == 3
    assert warm["val"] == cold["val"]
    assert set(cold["group_id"]) == {"low", "high"}
