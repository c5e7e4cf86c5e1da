"""Repo-specific static analysis: AST checkers for invariants PRs 1-7 built.

``python -m repro.analysis [paths]`` walks every ``.py`` file under the
given paths (default ``src/``), runs each registered checker over the
parsed AST, and reports findings as ``path:line:col: REPnnn[name]
message`` plus a fix hint.  Exit code 0 means clean, 1 means findings,
2 means usage error.  ``--json`` writes a machine-readable report.

The checkers encode invariants that generic linters cannot see because
they are *this repo's* correctness contracts:

========  ======================  =============================================
id        name                    invariant
========  ======================  =============================================
REP001    atomic-commit           fsync before os.rename/os.replace in
                                  store/ and db/storage.py commit paths
REP002    lock-order              consistent lock acquisition order; no
                                  callbacks invoked while holding a lock
REP003    address-free-identity   no id()/hash()/repr() of arbitrary
                                  objects in identity/key/fingerprint code
(REP004)  (retired)               shard-picklable: retired with the shard
                                  tasks it checked
REP005    silent-degradation      except-Exception fallbacks must call the
                                  degraded() hook or re-raise
REP006    counter-reset-symmetry  reset_counters() zeroes only what
                                  stats() reports
REP007    lifecycle               classes owning pools/mmaps/file handles
                                  define close()/shutdown()/__exit__
REP008    extractor-protocol      Extractor subclasses override a coherent
                                  raw-sweep method set
REP009    forward-kernel-allocs   no dense one-hots or dtype-less scratch on
                                  nn/ kernel paths
REP010    async-blocking          server coroutines never block or drop an
                                  executor future
========  ======================  =============================================

Suppressing a reviewed finding
------------------------------

Add ``# repro: allow[REP003]`` (comma-separated ids, or ``*``) on the
flagged line, with the justification in the surrounding comment.  It is
the one way to accept a finding: there is no baseline file, so every
accepted finding sits, reviewed, next to the code it excuses.

Adding a checker
----------------

1. Create ``src/repro/analysis/checkers/<name>.py``.  Subclass
   :class:`repro.analysis.driver.Checker`, set ``id`` (the next free
   ``REPnnn`` code — ids are stable, never reuse one), ``name``,
   ``description`` and ``hint``, and decorate with
   :func:`repro.analysis.registry.register`::

       @register
       class MyChecker(Checker):
           id = "REP011"
           name = "my-invariant"
           description = "one line for --list"
           hint = "how to fix it"

           def visit_file(self, ctx):
               for node in ast.walk(ctx.tree):
                   ...
                   yield self.finding(ctx, node, "what is wrong")

   ``visit_file`` runs once per file and yields findings anchored to AST
   nodes.  Checkers needing cross-file state (like the lock graph)
   accumulate it in ``visit_file`` and yield from ``finalize()``; anchor
   those findings with ``self.finding(display_path, line, ...)``.
2. Import the module from ``checkers/__init__.py`` (imports are what
   populate the registry).
3. Scope path-specific checkers with ``ctx.in_scope("store", ...)`` —
   true when the path contains a tag or the file opts in via a
   ``# analysis-scope: store`` comment in its first ten lines (how test
   fixtures enter scoped checkers).
4. Add a good/bad fixture pair under ``tests/analysis_fixtures/`` and a
   case in ``tests/test_analysis.py`` proving the bad fixture is flagged
   on the marked line and the good one is clean.  Mark expected lines
   with a trailing ``# expect[REPnnn]`` comment so the test stays
   line-number-agnostic.
5. Run ``python -m repro.analysis src tests benchmarks examples`` and
   fix or suppress what the new checker reports — a checker that has
   never found anything real is not pulling its weight.

Keep messages line-free and specific (stable under reshuffling, unique
per defect), and write the docstring as the invariant's documentation —
why it holds, what breaks when it doesn't.
"""

from repro.analysis.driver import (Checker, FileContext, analyze_paths,
                                   iter_python_files)
from repro.analysis.findings import Finding
from repro.analysis.registry import checker_classes, create_checkers, register
from repro.analysis.report import render_text, report_dict, write_json

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "analyze_paths",
    "checker_classes",
    "create_checkers",
    "iter_python_files",
    "register",
    "render_text",
    "report_dict",
    "write_json",
]
