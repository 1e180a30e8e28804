"""Correctness gate: every output of every run is checked here.

Each check gives a verdict: None when the output is right, else a
one-line reason.  Reference digests were recorded from the program as it was
when the benchmark was set; the outputs are deterministic, so any
change of a byte fails the gate.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

from workloads import Query

# sha256 over index.txt and then every .birack file in name order, each
# fed as name, NUL, content, NUL.
CENSUS4_SHA256 = "cadccbb411d66a057ddbd024bc8099857833dbfe9c6ed6cd1a56fb344824354a"
CENSUS4_FILES = 17_440
# sha256 of the whole stdout of ``distinguish 4 --limit 2000``.
DISTINGUISH4_HEAD_SHA256 = "3334f2e1726e0b95ff52ba15217a6534763b6ccc15a34202f88b3d0d47efaa4a"
# sha256 of all enhance-mix outputs, in query order, for DEFAULT_SEED.
DEFAULT_SEED = 0
ENHANCE_MIX_SHA256 = "cbe9165e69921e3d34e0e928a7d713c2a8ea284456012da0d3dd187d1068cbe2"


def census_digest(folder: Path) -> tuple[str, int, int]:
    """(digest, files, bytes) of a census output directory."""
    h = hashlib.sha256()
    names = sorted(p.name for p in folder.iterdir())
    names.sort(key=lambda name: name != "index.txt")
    total = 0
    for name in names:
        data = (folder / name).read_bytes()
        total += len(data)
        h.update(name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), len(names), total


def check_census(out: str, folder: Path, stdout: str, code) -> tuple[str | None, int, int]:
    """(verdict, files, bytes) of ``census 4 --out OUT`` run into folder."""
    if code != 0:
        return f"exit code {code}", 0, 0
    expected = f"wrote 17439 tables (orders 1..4) to {out}\n"
    if stdout != expected:
        return f"stdout {stdout[:200]!r}, expected {expected!r}", 0, 0
    if not folder.is_dir():
        return "no output directory", 0, 0
    digest, files, size = census_digest(folder)
    if files != CENSUS4_FILES:
        return f"{files} files, expected {CENSUS4_FILES}", files, size
    if digest != CENSUS4_SHA256:
        return f"census digest {digest} differs from the reference", files, size
    return None, files, size


def check_distinguish(stdout: str, code) -> str | None:
    if code != 0:
        return f"exit code {code}"
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if digest != DISTINGUISH4_HEAD_SHA256:
        return f"stdout digest {digest} differs from the reference"
    return None


_FRAMING = re.compile(r"w=\(([0-9,]*)\) : (\S+) \((\d+) labelings\)\Z")
_TERM = re.compile(r"(\d*)u(?:\^(\d+))?\Z")


def parse_polynomial(text: str) -> dict[int, int]:
    """exponent -> coefficient of the program's polynomial format."""
    if text == "0":
        return {}
    poly: dict[int, int] = {}
    for term in text.split("+"):
        match = _TERM.match(term)
        if not match:
            raise ValueError(f"bad polynomial term {term!r}")
        exp = int(match.group(2) or 1)
        poly[exp] = poly.get(exp, 0) + int(match.group(1) or 1)
    return poly


def check_enhance(query: Query, stdout: str, code) -> str | None:
    """Every framing's labeling count and polynomial equal what the
    generator's own solver found; Phi_Z is the sum of the counts and
    Phi_rho the sum of the polynomials."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if len(lines) != len(query.framings) + 2:
        return f"{len(lines)} lines, expected {len(query.framings) + 2}"
    phi_rho: dict[int, int] = {}
    try:
        for line, (w, m, poly) in zip(lines, query.framings):
            match = _FRAMING.match(line)
            if (not match or match.group(1) != ",".join(map(str, w))
                    or int(match.group(3)) != m
                    or parse_polynomial(match.group(2)) != dict(poly)):
                return f"{line!r}, expected w={w} with {m} labelings and {dict(poly)}"
            for exp, coeff in poly:
                phi_rho[exp] = phi_rho.get(exp, 0) + coeff
        phi_z = sum(m for _, m, _ in query.framings)
        if lines[-2] != f"Phi_Z = {phi_z}":
            return f"{lines[-2]!r}, expected Phi_Z = {phi_z}"
        if (not lines[-1].startswith("Phi_rho = ")
                or parse_polynomial(lines[-1][len("Phi_rho = "):]) != phi_rho):
            return f"{lines[-1]!r}, expected Phi_rho {phi_rho}"
    except ValueError as exc:
        return str(exc)
    return None


def mix_digest(outputs: list[str]) -> str:
    return hashlib.sha256("".join(outputs).encode()).hexdigest()
