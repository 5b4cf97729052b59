"""Output checks of the benchmark workloads (stdlib only).

* Figures: fig2 and fig5-fig13 must be byte-identical to the reference in
  ``reference/figures.json``, recorded from ``python -m repro.experiments
  all`` at the commit that introduced the benchmark.  fig1 samples
  synthetic traces, and a change of its random stream is allowed (a
  faster sampler draws differently), so only its header and parameter
  table are compared byte for byte; its empirical ACF must lie within
  :data:`FIG1_ACF_TOLERANCE` of the fitted MMPPs' closed-form ACF, which
  is the ACF table of the reference fig2.
* Sweeps: batched and sequential values must agree to
  :data:`SWEEP_REL_TOLERANCE` on every point.

Run ``python3 perfbench/checks.py record OUTPUT`` on the output of a
reviewed ``python -m repro.experiments all`` to re-record the reference.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.json"

#: Largest accepted |empirical - closed-form| ACF difference at any lag
#: fig1 prints.  With 200 000 samples per trace the difference is at most
#: about 0.014 on seeds 1-5 of the figure's generator, so 0.04 accepts any
#: random stream while a sampler that loses the correlation (lag-1 ACF
#: 0.12-0.29 here) fails by far.
FIG1_ACF_TOLERANCE = 0.04

#: Batched vs sequential: |a - b| <= tol * max(1, |a|).
SWEEP_REL_TOLERANCE = 1e-10

_HEADER = re.compile(r"(?m)^(?=== (fig\d+):)")


def split_figures(text: str) -> dict[str, str]:
    """The rendered figures of an ``all`` run, keyed by figure id.

    Each figure is printed followed by one blank line; that separator is
    stripped, so a value equals ``execute_figure(name)``'s return value.
    """
    figures = {}
    for block in _HEADER.split(text):
        match = re.match(r"== (fig\d+):", block)
        if match:
            figures[match.group(1)] = block.removesuffix("\n\n")
    return figures


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["figures"]


def _acf_rows(rendered: str) -> list[list[float]]:
    lines = rendered.split("[ACF]\n", 1)[1].splitlines()[2:]
    return [[float(cell) for cell in line.split()] for line in lines if line]


def check_fig1(rendered: str, reference: dict[str, str]) -> list[str]:
    """Problems of a fig1 rendering (empty when it passes)."""
    head, sep, _ = rendered.partition("[ACF]")
    expected_head = reference["fig1"].partition("[ACF]")[0]
    if not sep:
        return ["fig1: no ACF table"]
    problems = []
    if head != expected_head:
        problems.append("fig1: header or parameter table differs from the reference")
    rows, closed = _acf_rows(rendered), _acf_rows(reference["fig2"])
    if [r[0] for r in rows] != [r[0] for r in closed]:
        return problems + ["fig1: ACF lags differ from the closed-form table"]
    worst = max(
        abs(a - b) for row, ref in zip(rows, closed) for a, b in zip(row[1:], ref[1:])
    )
    if not worst <= FIG1_ACF_TOLERANCE:
        problems.append(
            f"fig1: empirical ACF is {worst:.4f} from the closed form "
            f"(tolerance {FIG1_ACF_TOLERANCE})"
        )
    return problems


def check_figure(name: str, rendered: str, reference: dict[str, str]) -> list[str]:
    """Problems of one rendered figure (empty when it passes)."""
    if name == "fig1":
        return check_fig1(rendered, reference)
    if rendered != reference[name]:
        return [f"{name}: output differs from the reference"]
    return []


def check_all_output(text: str, reference: dict[str, str]) -> tuple[int, list[str]]:
    """(figures present, problems) of one ``all`` run's standard output."""
    figures = split_figures(text)
    problems = [f"{name}: missing" for name in reference if name not in figures]
    for name, rendered in figures.items():
        if name not in reference:
            problems.append(f"{name}: not in the reference")
        else:
            problems.extend(check_figure(name, rendered, reference))
    return sum(name in figures for name in reference), problems


def values_match(a: float, b: float) -> bool:
    """Batched-vs-sequential agreement of one point (NaN never matches)."""
    return abs(a - b) <= SWEEP_REL_TOLERANCE * max(1.0, abs(a))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _record(output_path: str) -> None:
    figures = split_figures(Path(output_path).read_text())
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"figures": figures}, indent=1) + "\n")
    print(f"recorded {len(figures)} figures to {REFERENCE}")


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "record":
        sys.exit("usage: python3 perfbench/checks.py record ALL_OUTPUT_FILE")
    _record(sys.argv[2])
