"""Regenerate the committed reference outputs: each workload's sweep at the
default seed, written by `pvlab sweep` without `--timing`.

    python3 bench/make_references.py

Commit the result only together with a note saying why the outputs changed.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from run import use_checkout_source
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS


def main() -> None:
    use_checkout_source()
    import measure  # imports pvlab, so only after use_checkout_source

    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for w in WORKLOADS.values():
            done = measure.run_pass(w.write_config(Path(tmp) / f"{w.name}.json", DEFAULT_SEED), timing=False)
            if done.csv_text is None:
                raise SystemExit(f"sweep for {w.name} failed: {done.error}")
            w.reference.write_text(done.csv_text)
            print(f"wrote {w.reference}")


if __name__ == "__main__":
    main()
