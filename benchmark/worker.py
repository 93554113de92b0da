"""One pass of one workload in a fresh process; started by run.py.

Prints one JSON line: set-up time, pass wall time, peak resident memory,
host calibration, op counts with failed oracles, and (traced) the layer
aggregates.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, import_program

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_LOOPS = 20_000
CALIBRATION_INTERVAL_S = 0.25
# Median loop_time() on the host the benchmark was tuned on (2-vCPU Xeon at
# 2.1 GHz, Python 3.11.7); times scaled by REFERENCE_LOOP_S / reading are
# seconds at that host's speed.
REFERENCE_LOOP_S = 0.0016


def loop_time() -> float:
    """Seconds for a fixed pure-Python loop: one reading of host speed."""
    started = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - started


class HostSampler:
    """Reads host speed before, during and after a pass.

    On a shared host, speed drifts by tens of percent within minutes and
    jitters within seconds, so readings are taken across the whole pass:
    a SIGALRM handler times the loop every CALIBRATION_INTERVAL_S, and the
    time spent in the handler is subtracted from the pass.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        started = time.perf_counter()
        self.samples.append(loop_time())
        self.spent += time.perf_counter() - started

    def __enter__(self):
        for _ in range(3):
            self.samples.append(loop_time())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(3):
            self.samples.append(loop_time())

    @property
    def calib_s(self) -> float:
        return statistics.median(self.samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    setup_readings = [loop_time() for _ in range(3)]
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import_program()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload.setup()
    setup_s = time.perf_counter() - started
    setup_readings += [loop_time() for _ in range(3)]
    setup_calib_s = statistics.median(setup_readings)
    import topogen

    if not Path(topogen.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"topogen imported from {topogen.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calib_s": setup_calib_s}))
        return 0

    manifest = json.loads(Path(args.input).read_text(encoding="utf-8"))
    with HostSampler() as host:
        started = time.perf_counter()
        raw = workload.run(manifest)
        wall_s = time.perf_counter() - started - host.spent
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.snapshot() if tracer else {}
    attempted, failed = workload.check(manifest, raw)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_calib_s": setup_calib_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "calib_s": host.calib_s,
        "calib_samples": len(host.samples),
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "details": workload.details(raw),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
