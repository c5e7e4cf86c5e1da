"""``python -m repro`` — run INSPECT SQL against a :class:`Session`.

Opens a session (optionally backed by a persistent behavior store) and
executes SQL statements — from ``-c "..."`` or a ``.sql`` file — printing
each result frame.  Because INSPECT statements need live Python objects
(models, datasets, hypothesis functions), a ``--setup`` script registers
them: it is executed with the open ``session`` in its globals::

    # setup.py
    session.register_model("m0", model)
    session.register_dataset("d0", dataset)
    session.register_hypotheses(hyps, name="keywords")

    $ python -m repro --store ./behavior_store --setup setup.py \\
          -c "SELECT S.uid, S.unit_score
              INSPECT U.uid AND H.h USING corr OVER D.seq AS S
              FROM models M, units U, hypotheses H, inputs D
              WHERE M.mid = U.mid ORDER BY S.unit_score DESC LIMIT 10"

Statements are split on ``;``; plain SELECTs (catalog queries) work too.
With a ``--store`` path, re-running the same inspection in a new process
serves behaviors from the store with zero model forward passes.

``python -m repro serve`` starts the multi-tenant inspection server on
the same session setup — many clients share one store, one scheduler
pool and one unit tier, so concurrent cold queries sweep each model once
(see :mod:`repro.server`)::

    $ python -m repro serve --store ./behavior_store --setup setup.py \\
          --port 8707 --max-concurrent 8
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from collections.abc import Iterator
from pathlib import Path

from repro.session import Session


def _split_statements(text: str) -> list[str]:
    """Split a script on ';' (the mini-SQL grammar has no string-embedded
    semicolons to worry about beyond quoted literals, which we respect)."""
    statements: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == "'":
            in_string = not in_string
        if ch == ";" and not in_string:
            statements.append("".join(current))
            current = []
        else:
            current.append(ch)
    statements.append("".join(current))
    return [s.strip() for s in statements if s.strip()]


def _session_options() -> argparse.ArgumentParser:
    """The options both commands open their session with."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--store", metavar="PATH", default=None,
                         help="open the session over a persistent "
                              "DiskBehaviorStore at PATH")
    options.add_argument("--db", metavar="PATH", default=None,
                         help="open the session catalog over a persistent "
                              "on-disk database at PATH (tables and score "
                              "relations survive across runs)")
    options.add_argument("--setup", metavar="SCRIPT.py", default=None,
                         help="python script run with the open 'session' "
                              "in globals, to register models/datasets/"
                              "hypotheses")
    return options


@contextlib.contextmanager
def _open_session(args, parser) -> Iterator[Session]:
    """The session ``--store``/``--db`` name, ``--setup`` run in it."""
    setup_path = None if args.setup is None else Path(args.setup)
    if setup_path is not None and not setup_path.exists():
        parser.error(f"no such setup script: {setup_path}")
    with Session(args.store, db_path=args.db) as session:
        if setup_path is not None:
            code = compile(setup_path.read_text(encoding="utf-8"),
                           str(setup_path), "exec")
            exec(code, {"session": session, "__name__": "__setup__"})
        yield session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro", parents=[_session_options()],
        description="Execute INSPECT SQL statements against a repro "
                    "Session.")
    parser.add_argument("sql_file", nargs="?", metavar="FILE.sql",
                        help="file of ';'-separated SQL statements")
    parser.add_argument("-c", "--command", metavar="SQL", default=None,
                        help="execute this SQL string instead of a file")
    parser.add_argument("--max-rows", type=int, default=40,
                        help="rows to print per result frame (default 40)")
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve", parents=[_session_options()],
        description="Serve INSPECT SQL to many concurrent clients over "
                    "HTTP/websocket, multiplexed onto one shared Session.")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8707,
                        help="bind port; 0 picks a free one (default 8707)")
    parser.add_argument("--max-concurrent", type=int, default=4,
                        help="queries executing at once across all clients "
                             "(default 4)")
    parser.add_argument("--per-client-inflight", type=int, default=2,
                        help="running queries one client may hold "
                             "(default 2)")
    parser.add_argument("--per-client-queue", type=int, default=8,
                        help="queued queries one client may hold before "
                             "rejection (default 8)")
    return parser


async def _serve(session: Session, args) -> None:
    """Serve ``session`` until the task is cancelled (SIGINT)."""
    import asyncio

    from repro.server.app import InspectionServer

    server = InspectionServer(
        session, host=args.host, port=args.port,
        max_concurrent=args.max_concurrent,
        per_client_inflight=args.per_client_inflight,
        per_client_queue=args.per_client_queue)
    await server.start()
    print(f"inspection server listening on "
          f"http://{server.host}:{server.port}", flush=True)
    try:
        await asyncio.Event().wait()   # until cancelled
    finally:
        await server.stop()


def serve_main(argv: list[str]) -> int:
    import asyncio

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    with _open_session(args, parser) as session:
        try:
            asyncio.run(_serve(session, args))
        except KeyboardInterrupt:
            print("\nshutting down")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.command is None) == (args.sql_file is None):
        parser.error("provide exactly one of FILE.sql or -c SQL")
    if args.command is not None:
        text = args.command
    else:
        path = Path(args.sql_file)
        if not path.exists():
            parser.error(f"no such SQL file: {path}")
        text = path.read_text(encoding="utf-8")
    statements = _split_statements(text)
    if not statements:
        parser.error("no SQL statements to execute")

    with _open_session(args, parser) as session:
        for i, statement in enumerate(statements):
            if len(statements) > 1:
                print(f"-- statement {i + 1}/{len(statements)}")
            try:
                frame = session.sql(statement)
            except Exception as exc:  # surface SQL errors, keep the trace out
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(frame.to_string(max_rows=args.max_rows))
            print(f"({len(frame)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
