"""Cross-session warm rerun through the persistent behavior store.

Run this script twice::

    python examples/warm_rerun.py           # cold: extracts + persists
    python examples/warm_rerun.py           # warm: zero forward passes

The first invocation trains the SQL model deterministically and inspects
it through a :class:`repro.Session` opened over ``./behavior_store`` —
the session caches write every extracted behavior through to memory-mapped
shards, committed once per run.  The second invocation — a completely
separate process — re-derives the same model fingerprint and dataset hash,
finds the raw activations already on disk, and serves the whole inspection
from mmap reads: the extraction counters stay at zero and the scores are
bit-identical.  ``--fresh`` wipes the store first; ``--gc BYTES`` applies
a byte budget afterwards.

``--scheduler processes`` runs the cold extraction shard-parallel across
cores: the coordinator describes picklable shard tasks, pool workers
write activation shards straight into ``./behavior_store``, and the
session adopts them into the manifest in its single commit — same store
layout, same scores, warm reruns unchanged.  The default (``auto``)
lets :func:`repro.core.pipeline.default_scheduler` decide: threads on
two or more usable CPUs (the store does not enter the choice), serial on
one.
"""

import argparse
import shutil
import time
from pathlib import Path

from repro import Session
from repro.data import generate_sql_workload
from repro.hypotheses import grammar_hypotheses
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.measures import CorrelationScore, DiffMeansScore
from repro.nn import CharLSTMModel, TrainConfig, train_model
from repro.util.rng import new_rng

STORE_DIR = Path("behavior_store")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", action="store_true",
                        help="delete the store before running")
    parser.add_argument("--gc", type=int, metavar="BYTES", default=None,
                        help="apply a byte budget to the store afterwards")
    parser.add_argument("--scheduler", default="auto",
                        choices=["auto", "serial", "threads", "processes"],
                        help="execution scheduler (auto: serial on one "
                             "usable CPU, threads otherwise)")
    args = parser.parse_args()
    if args.fresh and STORE_DIR.exists():
        shutil.rmtree(STORE_DIR)

    print("== deterministic workload + model (same in every session) ==")
    workload = generate_sql_workload("default", n_queries=60, window=30,
                                     stride=5, seed=0)
    model = CharLSTMModel(len(workload.vocab), n_units=48, rng=new_rng(1),
                          model_id="sql_char_model")
    train_model(model, workload.dataset.symbols, workload.targets,
                TrainConfig(epochs=4, batch_size=128, lr=3e-3, patience=9))
    hypotheses = grammar_hypotheses(workload.grammar, workload.queries,
                                    workload.trees, mode="derivation")
    hypotheses += sql_keyword_hypotheses()

    print(f"\n== Session over the persistent store at ./{STORE_DIR} ==")
    scheduler = None if args.scheduler == "auto" else args.scheduler
    with Session(STORE_DIR, scheduler=scheduler) as session:
        print(f"scheduler: {session.scheduler.name}")
        was_empty = not session.store.keys()
        session.register_model("sql_char_model", model)
        session.register_dataset("d0", workload.dataset)
        session.register_hypotheses(hypotheses)

        t0 = time.perf_counter()
        frame = (session.inspect("sql_char_model", "d0")
                 .using(CorrelationScore("pearson"), DiffMeansScore())
                 .hypotheses(hypotheses)
                 .with_config(mode="streaming", early_stop=False, seed=0)
                 .run())
        elapsed = time.perf_counter() - t0

        label = "COLD (store was empty)" if was_empty else "WARM (from mmap)"
        print(f"{label}: {elapsed:.2f}s for {len(frame)} result rows")
        for name, stats in session.stats().items():
            print(f"{name:16s}: {stats}")
        if not was_empty:
            assert session.unit_cache.stats()["extractions"] == 0, \
                "warm session must not run the model"
            assert session.hyp_cache.stats()["extractions"] == 0, \
                "warm session must not re-evaluate hypotheses"
            print("zero extractor invocations: the model never ran "
                  "in this process")
        else:
            # the whole run landed in one manifest commit
            assert session.store.stats()["commits"] == 1
            print("run this script again: the next process serves "
                  "everything from the store")

        if args.gc is not None:
            report = session.store.gc(max_bytes=args.gc)
            print(f"gc({args.gc}): {report}; now {session.store.stats()}")


if __name__ == "__main__":
    main()
