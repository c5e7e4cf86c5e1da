"""The multi-tenant inspection server: two clients share one forward pass.

Starts the asyncio SQL-over-HTTP server on a background thread around a
shared :class:`repro.Session`, then has two tenants fire the SAME
``INSPECT`` statement concurrently.  The shared session lets one
statement claim each cold block: it sweeps, labels and scores the
block, while the other waits for the block's statistics and folds
them out of the shared session caches (a read of a sweep already
claimed would wait for it and join it), so the model runs exactly once
(asserted with a counting wrapper).

The second half streams the query over a websocket: the client receives
one partial score frame per processed block, and the final frame is
bit-identical to the one-shot HTTP answer.

Run:  python examples/serve_and_query.py
"""

import threading

from repro import InspectConfig, Session
from repro.data import generate_sql_workload
from repro.hypotheses.library import sql_keyword_hypotheses
from repro.nn import CharLSTMModel, TrainConfig, train_model
from repro.server import InspectClient, serve_in_thread
from repro.util.rng import new_rng
from repro.util.testing import CountingForwardModel

SQL = """
    SELECT S.uid AS uid, S.hid AS hid, S.unit_score AS unit_score
    INSPECT U.uid AND H.h USING corr OVER D.seq AS S
    FROM models M, units U, hypotheses H, inputs D
    WHERE M.mid = U.mid
    ORDER BY S.unit_score DESC
    LIMIT 5
"""


def main() -> None:
    workload = generate_sql_workload("default", n_queries=30, seed=7)
    model = CharLSTMModel(len(workload.vocab), n_units=16, rng=new_rng(0),
                          model_id="sqlparser")
    train_model(model, workload.dataset.symbols, workload.targets,
                TrainConfig(epochs=2, lr=3e-3, patience=99))
    config = InspectConfig(max_records=60, block_size=16, early_stop=False)
    hyps = sql_keyword_hypotheses(("SELECT", "FROM", "WHERE"))

    def registered_session(wrapped):
        session = Session(config=config)
        session.register_model("m0", wrapped)
        session.register_dataset("d0", workload.dataset)
        session.register_hypotheses(hyps, name="kw")
        return session

    # solo baseline: the forward-pass cost of exactly one extraction
    solo = CountingForwardModel(model)
    with registered_session(solo) as solo_session:
        solo_session.sql(SQL)
    print(f"solo session: {solo.forward_calls} forward passes (one sweep)")

    counting = CountingForwardModel(model)
    session = registered_session(counting)

    with session, serve_in_thread(session) as server:
        print(f"serving on 127.0.0.1:{server.port}")

        # --- two tenants, one identical cold query, ONE extraction ------
        tenants = [InspectClient("127.0.0.1", server.port,
                                 client_id=f"tenant-{i}") for i in range(2)]
        frames = [None, None]

        def run(i):
            frames[i] = tenants[i].query(SQL)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert frames[0] == frames[1]
        assert counting.forward_calls == solo.forward_calls, \
            "two concurrent tenants must share ONE extraction sweep"
        calls_after_pair = counting.forward_calls
        stats = tenants[0].stats()
        dedup = stats["dedup"]
        labels = stats["session"]["hypothesis_cache"]
        print(f"two tenants, ONE shared sweep "
              f"({counting.forward_calls} per-block forward passes; "
              f"unit tier: {dedup['leads']} led, {dedup['joins']} joined, "
              f"{dedup['waits']} waited; block statistics: "
              f"{labels['stat_misses']} scored, {labels['stat_hits']} "
              f"folded, {labels['stat_waits']} waited)")
        print("\ntop units, tenant 0's copy:")
        for row in frames[0].rows():
            print(f"  unit {row['uid']:>3}  {row['hid']:<8} "
                  f"score={row['unit_score']:.4f}")

        # --- the same query streamed over a websocket --------------------
        streamed = tenants[0].stream(SQL).results()
        partials = len(streamed) - 1
        final = streamed[-1][1]
        assert final == frames[0], "final frame must match the HTTP answer"
        assert counting.forward_calls == calls_after_pair, \
            "warm replay must not touch the model"
        print(f"\nstreamed: {partials} partial frame(s) + 1 final, "
              f"final bit-identical to the one-shot answer, "
              f"0 new forward passes")


if __name__ == "__main__":
    main()
