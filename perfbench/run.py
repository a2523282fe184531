"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train-nfp --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
variant, prints the per-layer metrics and writes a Chrome trace to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every output check passed.  ``perfbench/suite.py`` runs every
workload over several seeds.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import pin  # noqa: E402  (imports no numpy: threads are pinned first)
import spec  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing",
              file=sys.stderr)
        return 2
    try:
        pin.check_no_repro_vars(os.environ)
    except pin.PinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    replaced = pin.pin_threads(os.environ)
    sys.path.insert(0, str(src))

    import measure  # numpy and the program load here, after pinning

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment:")
    for line in pin.fingerprint_lines(pin.fingerprint(ROOT, replaced)):
        print(line)
    result = measure.run_safely(
        args.workload, args.seed, args.seconds, bool(args.trace),
        trace_dir=HERE / "out",
    )
    table = spec.PER_LAYER if args.trace else spec.END_TO_END
    for metric in table:
        if metric.name in result.metrics:
            print(f"  {metric.name:<28} {result.metrics[metric.name]:>16.6g} "
                  f"{metric.unit:<8} [{metric.clock}]")
    for note in result.notes:
        print(note)
    print(f"attempted {result.attempted}  failed {result.failed}  "
          f"failed_frac {result.failed / result.attempted:.4g}")
    _wait_for_helpers()
    print(result.line(), flush=True)
    return 0 if result.correct else 1


def _wait_for_helpers() -> None:
    """Join every process multiprocessing started for the run, including the
    resource tracker that shared memory starts, which would otherwise
    outlive this process."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the tracker's pipe and waits for it to exit


if __name__ == "__main__":
    sys.exit(main())
