"""symbirack benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload census4 --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports symbirack from
``src/`` there and writes only under ``.perfbench_work/``, which it
removes again.  The workloads and why each exists are described in
``workloads.py``.

Each pass of a workload runs in a fresh interpreter (``child.py``).
Another pass starts while one of median length would be at least half
done at ``--seconds``; the first pass always runs.  A run then lasts
``--seconds`` give or take half a pass, so the benchmark's total stays
bounded while each run averages over as much time as it can: on a
shared host the CPU speed drifts over tens of seconds, and a run of one
20 s census pass sees more of that drift than a run of two.  Every
output is checked by ``gate.py``; a command that exits non-zero or
prints a wrong answer counts as failed.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, all from untraced passes:

* ``setup_s`` -- median over SETUP_SAMPLES fresh interpreters of
  ``import symbirack`` plus ``builtin_diagrams()``.
* ``wall_s`` -- median over passes of the time from starting the
  interpreter to its exit, with every answer printed or written.
* ``first_output_s`` -- median over passes of the time to the first
  line of stdout (the first witness on distinguish4-head).  Where a
  pass prints its first line after its first command, as on
  enhance-mix, HEAD_SAMPLES more fresh interpreters run only that
  command after each pass.  A pass gives only one such time, about
  0.1 s, and a median over a few of them spreads as widely as
  ``setup_s`` does.
* ``query_p50_ms``, ``query_p90_ms`` -- percentiles of the time of one
  ``symbirack.cli.run`` call, over every command of every pass.
* ``peak_rss_mb`` -- the largest peak resident set of any pass.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.layer_metrics`` (medians over traced
passes), plus ``trace.overhead_s`` (traced minus untraced median wall
time) and ``trace.unwrapped_s`` (traced wall time not inside any span:
interpreter start, imports, the benchmark's own child code).
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import selectors
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import tracing
import workloads
from child import MARK

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_SAMPLES = 9
HEAD_SAMPLES = 3
EDGES_SHOWN = 15
# A run must end within 180 s; no pass may start after this many
# seconds, and a pass still running at DEADLINE_S is killed.
LAST_START_S = 120.0
DEADLINE_S = 165.0
# From <linux/fs.h>: the ioctls that read and set inode flags, and the
# flag that marks a directory as the top of a hierarchy (chattr +T).
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


@dataclass
class Pass:
    """One fresh interpreter running one workload pass."""

    wall_s: float
    first_output_s: float
    outputs: list[str]
    codes: list
    seconds: list[float]
    maxrss_kb: int
    edges: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)


class Workload:
    """Command lines of a pass and the gate for their outputs."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        # per-layer metrics the gate measures on the last pass's outputs
        self.gate_metrics = {"census.write_census.files": 0, "census.write_census.bytes": 0}

    def argvs(self, index: int) -> list[list[str]]:
        raise NotImplementedError

    def head_argvs(self) -> list[list[str]] | None:
        """The command lines of a pass up to its first line of output,
        where those are fewer than the whole pass; else None."""
        return None

    def check(self, index: int, p: Pass) -> list[str | None]:
        """One gate verdict per command run, the pass's or its head's."""
        raise NotImplementedError


class Census4(Workload):
    def out(self, index: int) -> Path:
        # the name differs from run to run: see spread_subdirectories
        return self.work.relative_to(ROOT) / f"census-{os.getpid()}-{index}"

    def argvs(self, index):
        return [["census", "4", "--out", str(self.out(index))]]

    def check(self, index, p):
        try:
            verdict, files, size = gate.check_census(
                str(self.out(index)), ROOT / self.out(index), p.outputs[0], p.codes[0])
        finally:
            shutil.rmtree(ROOT / self.out(index), ignore_errors=True)
        self.gate_metrics = {"census.write_census.files": files,
                             "census.write_census.bytes": size}
        return [verdict]


class Distinguish4Head(Workload):
    def argvs(self, index):
        return [["distinguish", "4", "--limit", "2000"]]

    def check(self, index, p):
        return [gate.check_distinguish(p.outputs[0], p.codes[0])]


class EnhanceMix(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        folder = work / "diagrams"
        self.mix = workloads.generate_enhance_mix(
            seed, workloads.load_tables(ROOT), folder.relative_to(ROOT))
        workloads.write(self.mix, folder)

    def argvs(self, index):
        return [list(q.argv) for q in self.mix.queries]

    def head_argvs(self):
        return self.argvs(0)[:1]

    def check(self, index, p):
        verdicts = [gate.check_enhance(q, out, code)
                    for q, out, code in zip(self.mix.queries, p.outputs, p.codes)]
        whole = len(p.outputs) == len(self.mix.queries)
        if whole and self.seed == gate.DEFAULT_SEED and not any(verdicts):
            digest = gate.mix_digest(p.outputs)
            if digest != gate.ENHANCE_MIX_SHA256:
                verdicts[0] = f"default-seed digest {digest} differs from the reference"
        return verdicts


WORKLOADS = {"census4": Census4, "distinguish4-head": Distinguish4Head,
             "enhance-mix": EnhanceMix}


def spread_subdirectories(folder: Path) -> None:
    """Let each new subdirectory of ``folder`` find a block group of its
    own, where the file system supports it.

    A census pass creates 17,440 files and the gate then deletes them.
    ext4 without a journal (as on the machine the benchmark was set on)
    avoids reusing an inode freed in the last one to six minutes: each
    file created in a block group full of such inodes scans past all of
    them.  With every pass in the group of its parent directory, a pass's
    file writes took 3-7.6 s of kernel time instead of 0.4-0.7 s, and
    that set most of census4's spread.  The top-directory flag makes
    ext4's Orlov allocator place each subdirectory afresh, starting its
    search at a hash of the subdirectory's name; census directory names
    carry the process id, so runs do not all start at one group.
    """
    try:
        fd = os.open(folder, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return
    try:
        flags = struct.unpack("i", fcntl.ioctl(fd, FS_IOC_GETFLAGS, bytes(4)))[0]
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("i", flags | FS_TOPDIR_FL))
    except OSError:
        pass  # not ext4, or flags not supported: directories stay put
    finally:
        os.close(fd)


def run_pass(work: Path, index: int, argvs: list[list[str]], trace: bool,
             deadline: float) -> Pass | None:
    """Run one pass; None if it outlived ``deadline``."""
    spec, result = work / f"spec-{index}.json", work / f"result-{index}.json"
    spec.write_text(json.dumps({"src": str(ROOT / "src"), "argvs": argvs, "trace": trace}))
    chunks: list[bytes] = []
    first = None
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(CHILD), str(spec), str(result)],
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    return None
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                if first is None:
                    first = time.perf_counter() - start
                chunks.append(chunk)
        code = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        wall = time.perf_counter() - start
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    first_output = wall if first is None else first
    if code != 0 or not result.exists():
        # the child itself failed: every command of the pass fails
        return Pass(wall, first_output, [""] * len(argvs), [f"child exit {code}"] * len(argvs),
                    [wall] * len(argvs), 0)
    data = json.loads(result.read_text())
    outputs = b"".join(chunks).decode(errors="replace").split(MARK + "\n")[:len(argvs)]
    outputs += [""] * (len(argvs) - len(outputs))
    return Pass(wall, first_output, outputs, data["codes"], data["seconds"],
                data["maxrss_kb"], data.get("edges", []), data.get("counts", {}))


def setup_seconds() -> float:
    out = subprocess.run([sys.executable, str(CHILD), "--setup", str(ROOT / "src")],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"set-up failed: {out.stderr.strip()}")
    return float(out.stdout)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    workload = WORKLOADS[name](seed, work)
    setups = [setup_seconds() for _ in range(SETUP_SAMPLES)]
    plain: list[Pass] = []
    traced: list[tuple[Pass, dict]] = []
    heads: list[float] = []  # first_output_s of head-only interpreters
    attempted = failed = 0
    rounds: list[float] = []  # seconds per pass, or per traced pair
    index = 0

    def checked(argvs: list[list[str]], with_trace: bool) -> Pass | None:
        """Run and gate one pass; None if it outlived the deadline."""
        nonlocal attempted, failed, index
        attempted += len(argvs)
        p = run_pass(work, index, argvs, with_trace, deadline)
        if p is None:
            failed += len(argvs)
        else:
            verdicts = workload.check(index, p)
            for verdict in filter(None, verdicts):
                print(f"gate: {verdict}", file=sys.stderr)
            failed += sum(1 for v in verdicts if v)
        index += 1
        return p

    complete = True
    begin = time.perf_counter()
    while complete:
        round_start = time.perf_counter()
        for with_trace in ((False, True) if trace else (False,)):
            p = checked(workload.argvs(index), with_trace)
            if p is None:
                complete = False
                break
            if with_trace:
                spans = tracing.by_name(p.edges)
                layers = tracing.layer_metrics(spans, p.counts)
                layers.update(workload.gate_metrics)
                layers["trace.unwrapped_s"] = p.wall_s - sum(
                    s["self_s"] for s in spans.values())
                traced.append((p, layers))
            else:
                plain.append(p)
        head = workload.head_argvs()
        for _ in range(HEAD_SAMPLES if complete and head and not trace else 0):
            p = checked(head, False)
            if p is None:
                complete = False
                break
            heads.append(p.first_output_s)
        now = time.perf_counter()
        rounds.append(now - round_start)
        if now - begin + statistics.median(rounds) / 2 > seconds or now - started >= LAST_START_S:
            break
    if not plain or (trace and not traced):
        return {"correct": False, "attempted": max(attempted, 1), "failed": max(failed, 1),
                "metrics": {}}
    if trace:
        metrics = {key: (statistics.median(layers[key] for _, layers in traced),
                         tracing.unit(key))
                   for key in traced[0][1]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p, _ in traced)
            - statistics.median(p.wall_s for p in plain), "s")
        print(f"{name}: spans of the last traced pass by self time "
              "(parent > name: spans, s, self s)", file=sys.stderr)
        for parent, span, count, total, own in sorted(
                traced[-1][0].edges, key=lambda e: -e[4])[:EDGES_SHOWN]:
            print(f"  {parent or '-'} > {span}: {count}, {total:.4g}, {own:.4g}",
                  file=sys.stderr)
    else:
        queries = [s for p in plain for s in p.seconds]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p.wall_s for p in plain), "s"),
            "first_output_s": (
                statistics.median([p.first_output_s for p in plain] + heads), "s"),
            "query_p50_ms": (1e3 * statistics.median(queries), "ms"),
            "query_p90_ms": (1e3 * _p90(queries), "ms"),
            "peak_rss_mb": (max(p.maxrss_kb for p in plain) / 1024, "MB"),
        }
        print(f"{name}: {len(plain)} passes, {len(queries)} queries, "
              f"{len(heads)} head samples, {SETUP_SAMPLES} set-up samples, "
              f"error_rate {failed}/{attempted}",
              file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}", file=sys.stderr)
    return {"correct": complete and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=gate.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symbirack" / "cli.py").is_file():
        print(f"error: no symbirack source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spread_subdirectories(work)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
