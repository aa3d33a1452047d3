"""Regenerate every table and figure of the paper in one run.

Executes all 29 experiment drivers (19 figures, 3 quantitative in-text
claims, 7 extension claims) and prints the paper-vs-measured comparison
with the qualitative shape checks.  This is the same code the ``paper``
bench suite times; expect a minute or so of compute.

Run:  python examples/reproduce_paper.py [seed]
      python examples/reproduce_paper.py --markdown > EXPERIMENTS.md
"""

import sys
import time

from repro.experiments import (
    DEFAULT_SEED,
    render_markdown,
    render_text,
    run_all,
    summary_counts,
)

PREAMBLE = [
    "Every figure and quantitative claim of *Resilient Localization for",
    "Sensor Networks in Outdoor Environments* (Kwon et al., ICDCS 2005),",
    "reproduced by this library's experiment drivers (`repro.experiments`).",
    "`figN` ids map to the paper's figures; `text-*` to quantitative in-text",
    "claims; `ext-*` to claims the paper makes in passing that this library",
    "additionally verifies (software tone detector, protocol message cost,",
    "scaling motivation).",
    "",
    "Absolute numbers are not expected to match — the substrate is a",
    "calibrated simulation, not the authors' MICA2 field testbed — but every",
    "**shape check** (who wins, by what factor, where the transitions fall)",
    "must hold; the test suite (`tests/test_experiments.py`) asserts them.",
    "",
    "Regenerate this table with `python examples/reproduce_paper.py --markdown`.",
]


def main():
    args = [a for a in sys.argv[1:]]
    markdown = "--markdown" in args
    seeds = [a for a in args if not a.startswith("--")]
    seed = int(seeds[0]) if seeds else DEFAULT_SEED

    if not markdown:
        print(f"running all experiments with seed {seed} ...\n", file=sys.stderr)
    start = time.time()
    results = run_all(seed)
    elapsed = time.time() - start

    if markdown:
        print(render_markdown(results, preamble=PREAMBLE), end="")
    else:
        print(render_text(results))
        print(f"\ntotal runtime: {elapsed:.0f} s")

    counts = summary_counts(results)
    if counts["experiments_passed"] < counts["experiments"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
