"""Diff two ``BENCH_*.json`` artifacts with per-section tolerances.

``python -m repro.obs.compare A.json B.json`` exits 0 when B reproduces
A and 1 otherwise, printing one line per divergence.  The deterministic
sections (figure, seeds, params, simulated, gates, registry) are
compared with **zero tolerance by default** — two same-seed runs of
the simulator must agree bit-for-bit, so any drift there is a
regression (or an intentional change that requires refreshing the
baselines, see EXPERIMENTS.md).  Host wall clock is only compared when a band is
requested with ``--wall-clock-band``; git SHA and timestamps are never
compared.  A gate that failed in B is reported by name even when A
failed it too.

The module is also a library: :func:`compare_artifacts` returns the
list of divergence messages.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any, List, Optional

from repro.obs.artifact import DETERMINISTIC_SECTIONS, ArtifactError, load_artifact

__all__ = ["compare_artifacts", "main"]


def _numbers_match(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if rel_tol <= 0.0:
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def _diff_value(path: str, a: Any, b: Any, rel_tol: float, out: List[str]) -> None:
    # bool is an int subclass; compare type-strictly so True != 1.
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        if not _numbers_match(float(a), float(b), rel_tol):
            out.append(f"{path}: {a!r} != {b!r}")
        return
    if type(a) is not type(b):
        out.append(f"{path}: type {type(a).__name__} != {type(b).__name__}")
        return
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            sub = f"{path}.{key}"
            if key not in a:
                out.append(f"{sub}: only in B")
            elif key not in b:
                out.append(f"{sub}: only in A")
            else:
                _diff_value(sub, a[key], b[key], rel_tol, out)
        return
    if isinstance(a, list):
        if len(a) != len(b):
            out.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for index, (left, right) in enumerate(zip(a, b)):
            _diff_value(f"{path}[{index}]", left, right, rel_tol, out)
        return
    if a != b:
        out.append(f"{path}: {a!r} != {b!r}")


def compare_artifacts(
    a: dict,
    b: dict,
    *,
    rel_tol: float = 0.0,
    wall_clock_band: Optional[float] = None,
) -> List[str]:
    """Compare artifact documents; returns divergence messages (empty == match).

    *rel_tol* relaxes the numeric comparison of the deterministic
    sections (default 0.0: exact).  *wall_clock_band* is a relative
    band for ``host.wall_clock_s`` (e.g. ``2.0`` tolerates B being up
    to 3x A); None skips the wall-clock check entirely.
    """
    diffs: List[str] = []
    for section in DETERMINISTIC_SECTIONS:
        _diff_value(section, a.get(section), b.get(section), rel_tol, diffs)
    for name, gate in sorted((b.get("gates") or {}).items()):
        if not gate.get("pass"):
            diffs.append(
                f"gates.{name}: FAILED (observed {gate.get('observed')!r}, "
                f"bound {gate.get('bound')!r})"
            )
    if wall_clock_band is not None:
        wall_a = (a.get("host") or {}).get("wall_clock_s")
        wall_b = (b.get("host") or {}).get("wall_clock_s")
        if wall_a is None or wall_b is None:
            diffs.append("host.wall_clock_s: missing on one side")
        elif wall_a > 0 and abs(wall_b - wall_a) > wall_clock_band * wall_a:
            diffs.append(
                f"host.wall_clock_s: {wall_b:.3f}s outside +/-{wall_clock_band:g}x "
                f"band around {wall_a:.3f}s"
            )
    return diffs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.compare",
        description="Diff two BENCH_*.json artifacts (exit 1 on divergence).",
    )
    parser.add_argument("baseline", help="artifact A (the reference)")
    parser.add_argument("candidate", help="artifact B (the run under test)")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        metavar="FRAC",
        help="relative tolerance for simulated numbers (default 0: exact)",
    )
    parser.add_argument(
        "--wall-clock-band",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed relative deviation of host wall clock (default: ignored)",
    )
    args = parser.parse_args(argv)
    try:
        doc_a = load_artifact(args.baseline)
        doc_b = load_artifact(args.candidate)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diffs = compare_artifacts(
        doc_a,
        doc_b,
        rel_tol=args.rel_tol,
        wall_clock_band=args.wall_clock_band,
    )
    if diffs:
        print(
            f"MISMATCH {args.baseline} vs {args.candidate} "
            f"({len(diffs)} divergence(s)):"
        )
        for line in diffs:
            print(f"  {line}")
        return 1
    print(f"OK {args.baseline} == {args.candidate} (figure {doc_a['figure']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
