"""Consolidated report generation.

Collects the rendered tables the benchmark suite persisted under
``benchmarks/results/`` into one markdown report, with the paper's headline
claims summarized up top.  Exposed as ``python -m repro report``.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional

from repro.utils import write_text

#: display order and titles of the persisted result files
SECTIONS: List[tuple] = [
    ("table1", "Table 1 — per-layer communication & computation costs"),
    ("table2", "Table 2 — weak scaling"),
    ("table3", "Table 3 — strong scaling"),
    ("fig7_weak", "Figure 7 (left) — weak-scaling efficiency"),
    ("fig7_strong", "Figure 7 (right) — strong-scaling efficiency"),
    ("fig8", "Figure 8 — GPU arrangement"),
    ("fig9", "Figure 9 — memory limits"),
    ("isoefficiency", "Isoefficiency analysis (§3.1.2)"),
    ("ablation_buffers", "Ablation — §3.2.3 memory management"),
    ("parallelism_comparison", "Extension — parallelism families compared"),
    ("hybrid_scaling", "Extension — hybrid data × tensor scaling"),
]

HEADER = """# Reproduction report

Generated from the rendered outputs of the benchmark suite
(`pytest benchmarks/`).  Headline claims, each with the paper's figure and
the line that prints the measured one:

* Optimus overtakes Megatron in weak-scaling throughput from 16 GPUs on,
  and at 64 GPUs is faster in training and in inference (paper:
  1.48×/1.79×; measured: the speedup line under Table 2).
* In strong scaling Optimus's throughput rises with p and passes Megatron at
  64 GPUs (paper: 1.11×; measured: the throughput line under Table 3).
* The maximum batch size within 16 GB grows with p for Optimus and shrinks
  for Megatron (paper: 8× apart at 64 GPUs; measured: the max-batch ratio
  line under Figure 9).
* Simulator counters match the paper's Table 1 cost formulas, plus only the
  documented small terms (measured: the ratio column of Table 1).
"""


def default_results_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def collect(results_dir: Optional[pathlib.Path] = None) -> Dict[str, str]:
    """Read whatever result files exist; returns {section key: text}."""
    d = pathlib.Path(results_dir) if results_dir else default_results_dir()
    out: Dict[str, str] = {}
    if not d.is_dir():
        return out
    for key, _ in SECTIONS:
        path = d / f"{key}.txt"
        if path.is_file():
            out[key] = path.read_text().rstrip()
    return out


def render(results: Dict[str, str]) -> str:
    """Assemble the markdown report from collected sections."""
    parts = [HEADER]
    missing = []
    for key, title in SECTIONS:
        if key in results:
            parts.append(f"## {title}\n\n```\n{results[key]}\n```")
        else:
            missing.append(title)
    if missing:
        parts.append(
            "## Missing sections\n\nRun `pytest benchmarks/` to generate:\n"
            + "\n".join(f"* {t}" for t in missing)
        )
    return "\n\n".join(parts) + "\n"


def main(results_dir: Optional[pathlib.Path] = None, output: Optional[pathlib.Path] = None) -> str:
    text = render(collect(results_dir))
    if output is not None:
        write_text(str(output), text)
    print(text, end="")
    return text
