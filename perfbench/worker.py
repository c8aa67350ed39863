"""Benchmark worker: runs one workload in a fresh interpreter.

Reads a JSON configuration on stdin (written by run.py) and prints one JSON
object as the last line of stdout.  The first thing it does is time
``import trigcolloc.cli``, so nothing but the standard library may be
imported before that.

With ``mode == "import"`` it only times the import and then runs two blocks
of reference work (speed.py) to scale it by.  Otherwise it runs a
warm-up operation, then either

* untraced: timed operations for ``seconds``, with set-up batches and import
  probes (fresh interpreters in ``mode == "import"``) between them, every
  sample bracketed by blocks of reference work (speed.py); or
* traced: untraced operations for half of ``seconds``, then traced ones,
  reporting per-layer numbers and the tracing overhead.

Every operation is checked; one that raises, returns non-finite values or
fails its check counts as failed and is never timed.
"""

import json
import sys
import time


def _timed_import() -> float:
    """Seconds to import the CLI."""
    t0 = time.perf_counter()
    import trigcolloc.cli  # noqa: F401

    return time.perf_counter() - t0


def main() -> int:
    cfg = json.load(sys.stdin)
    import_s = _timed_import()
    import trigcolloc

    src = cfg["src"]
    if not trigcolloc.__file__.startswith(src):
        print(f"worker: trigcolloc imported from {trigcolloc.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if cfg["mode"] == "import":
        from speed import block

        print(json.dumps({"import_s": import_s, "blocks": [block(), block()]}))
        return 0
    from measure import run_workload

    result = run_workload(cfg)
    result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
