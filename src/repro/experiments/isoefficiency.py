"""Ablation A2 — the §3.1.2 isoefficiency table: the problem size each
scheme needs to hold E = 0.8 (:mod:`repro.perfmodel.isoefficiency`)."""

from __future__ import annotations

from typing import List

from repro.perfmodel.isoefficiency import _work, isoefficiency_hidden
from repro.utils.tables import format_table

PS = (4, 16, 64, 256, 1024, 4096)


def run() -> List[list]:
    """Rows ``[p, h Megatron, h Optimus, W Megatron, W Optimus]``: each
    (scheme, p) is solved once, W is the solved h's work at s = 512."""
    rows = []
    for p in PS:
        hm, ho = isoefficiency_hidden("megatron", p), isoefficiency_hidden("optimus", p)
        rows.append([p, hm, ho, _work(hm, 512.0), _work(ho, 512.0)])
    return rows


def report(rows: List[list]) -> str:
    """``results/isoefficiency.txt`` and ``repro isoefficiency``."""
    return format_table(
        ["p", "h (Megatron)", "h (Optimus)", "W (Megatron)", "W (Optimus)"],
        rows,
        title="Isoefficiency at E=0.8 — problem size needed to stay efficient",
    )


def main() -> None:
    print(report(run()))


if __name__ == "__main__":  # pragma: no cover
    main()
