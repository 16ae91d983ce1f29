"""Start-up split of a fresh interpreter, taken from outside the program.

``python -X importtime`` prints one line per imported module, after the
module's own imports and nested two spaces deeper.  Each line's self time is
charged to the outermost numpy or scipy import on its path, else to
holospaces if a holospaces module is on its path, so the three shares never
overlap: numpy modules that scipy pulls in count as scipy, and the standard
library modules that holospaces imports count as holospaces.
"""

from __future__ import annotations

import statistics

PACKAGES = ("numpy", "scipy", "holospaces")


def _package(name: str):
    top = name.split(".", 1)[0]
    return top if top in PACKAGES else None


def import_split(stderr: str) -> dict:
    """Seconds spent importing each of PACKAGES, from ``-X importtime`` output."""
    lines = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        name = fields[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        lines.append((depth, name.strip(), int(fields[0]) * 1e-6))
    totals = dict.fromkeys(PACKAGES, 0.0)
    ancestors = []  # (depth, charged package) of the enclosing imports
    for depth, name, self_s in reversed(lines):  # parents are printed after children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else None
        charged = parent if parent in ("numpy", "scipy") else (_package(name) or parent)
        if charged:
            totals[charged] += self_s
        ancestors.append((depth, charged))
    return totals


def summarise(interp_samples, calls) -> dict:
    """Medians of the start-up split over ``calls``, (wall_s, import_split) pairs.

    ``cli.command_s`` is what is left of a call after interpreter start-up and
    the three package imports: argument parsing, the computation and output.
    """
    interp = statistics.median(interp_samples)
    out = {"cli.interp_s": interp}
    for package in PACKAGES:
        out[f"cli.import_{package}_s"] = statistics.median(split[package] for _, split in calls)
    out["cli.command_s"] = statistics.median(
        wall - interp - sum(split.values()) for wall, split in calls
    )
    return out
