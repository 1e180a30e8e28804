"""What one fresh interpreter of the benchmark runs.

    python3 perfbench/child.py SPEC RESULT   run the command lines in SPEC
    python3 perfbench/child.py --setup SRC   time the program's set-up

SPEC is a JSON file: ``src`` (the source tree to import symbirack
from), ``argvs`` (command lines for ``symbirack.cli.run``, run in turn)
and ``trace``.  Program output goes to stdout, line-buffered as on a
terminal, with a MARK line after each command.  RESULT receives exit
codes, seconds per command, peak resident set size and, when traced,
the span aggregates per (parent, name) and the counts.

``--setup`` prints the seconds from before ``import symbirack`` to after
``builtin_diagrams()`` returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

MARK = "\x1e"  # ASCII record separator; the program never prints it


def _check_origin(module, src: str) -> None:
    """Refuse a symbirack imported from anywhere but ``src``, such as an
    installed copy."""
    if not Path(module.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"symbirack imported from {module.__file__}, not from {src}")


def setup(src: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import symbirack
    symbirack.builtin_diagrams()
    spent = time.perf_counter() - start
    _check_origin(symbirack, src)
    print(repr(spent))


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    import symbirack.cli as cli
    _check_origin(cli, spec["src"])
    run = cli.run
    tracer = None
    if spec["trace"]:
        from symbirack import algebra, census, diagram, invariants, labeling
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, {"algebra": algebra, "census": census, "cli": cli,
                                 "diagram": diagram, "invariants": invariants,
                                 "labeling": labeling})
        run = tracer.wrap(cli.run, "cli.run")
    sys.stdout.reconfigure(line_buffering=True)
    codes, seconds = [], []
    for argv in spec["argvs"]:
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception:  # a crash fails this command, not the whole pass
            traceback.print_exc()
            code = "exception"
        seconds.append(time.perf_counter() - start)
        codes.append(code)
        print(MARK)
    result = {"codes": codes, "seconds": seconds,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.restore()
        result["edges"] = [[parent, name, *agg]
                           for (parent, name), agg in tracer.edges.items()]
        result["counts"] = dict(tracer.counts)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "--setup":
        setup(sys.argv[2])
    else:
        main(sys.argv[1], sys.argv[2])
