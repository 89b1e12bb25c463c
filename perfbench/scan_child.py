"""One `ddcorr scan` pass over a workload's scenarios, in a fresh interpreter.

run.py starts one of these per iteration so that every iteration pays the
import and parse a user pays.  The pass is the one `ddcorr scan` makes:
import, cli.parse_scenario, run_scan, write_csv, write_heatmap, and the
summary minimum.  It prints one JSON line with time.monotonic() stamps
(a system-wide clock, so run.py can subtract its own start stamp), the peak
resident memory of this process and of its largest pool worker, and, when
traced, the per-layer totals.

    python3 perfbench/scan_child.py --out-dir DIR --workers N
        [--trace-file FILE] [--setup-only] SCENARIO...

Tracing wraps module attributes where ddcorr.cli, ddcorr.scan and
ddcorr.analytic look them up, so it times the calls the program makes.
Spans are kept in memory and written to FILE once the pass is done.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

# (module, attribute, span name): each wrapped where its caller looks it up.
TRACED = (
    ("cli", "parse_scenario", "cli.parse_scenario"),
    ("cli", "run_scan", "scan.run_scan"),
    ("cli", "write_csv", "scan.write_csv"),
    ("cli", "write_heatmap", "scan.write_heatmap"),
    ("scan", "build_timeline", "sequence.build_timeline"),
    ("scan", "coherence_system", "exact.coherence_system"),
    ("scan", "magnus_coherence", "analytic.magnus_coherence"),
    ("analytic", "magnus_generator", "analytic.magnus_generator"),
)


class Tracer:
    """Spans [name, parent index, start, end] plus a flip counter."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.flips = 0

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.stack[-1] if self.stack else -1, time.monotonic(), None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[3] = time.monotonic()
            if name == "sequence.build_timeline":
                self.flips += result.n_flips
            return result

        setattr(module, attr, traced)

    def totals(self) -> dict:
        """Per span name: total seconds, calls, and seconds covered by children."""
        out = {name: {"s": 0.0, "calls": 0, "child_s": 0.0} for _, _, name in TRACED}
        for name, parent, start, end in self.spans:
            out[name]["s"] += end - start
            out[name]["calls"] += 1
            if parent >= 0:
                out[self.spans[parent][0]]["child_s"] += end - start
        return out

    def dump(self, path: Path, origin: float) -> None:
        rows = [
            {"name": n, "parent": p, "start_us": (s - origin) * 1e6, "dur_us": (e - s) * 1e6}
            for n, p, s, e in self.spans
        ]
        path.write_text(json.dumps({"origin": "end of import", "spans": rows}))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("scenarios", nargs="+")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace-file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    import ddcorr  # noqa: F401  (the package import is what users pay)
    from ddcorr import analytic, cli, scan

    imported = time.monotonic()
    tracer = None
    if args.trace_file:
        tracer = Tracer()
        modules = {"cli": cli, "scan": scan, "analytic": analytic}
        for module, attr, name in TRACED:
            tracer.wrap(modules[module], attr, name)

    scenarios = [cli.parse_scenario(path) for path in args.scenarios]
    setup_end = time.monotonic()
    report = {
        "package": str(Path(ddcorr.__file__).resolve()),
        "import_s": imported - start,
        "parse_s": setup_end - imported,
        "setup_end": setup_end,
    }
    if not args.setup_only:
        out_dir = Path(args.out_dir)
        points, minima = 0, []
        for path, scenario in zip(args.scenarios, scenarios):
            records = cli.run_scan(
                scenario.system,
                scenario.sequence,
                scenario.grid,
                analytic_model=scenario.analytic_model,
                workers=args.workers,
            )
            stem = Path(path).stem
            cli.write_csv(records, out_dir / f"{stem}.csv")
            cli.write_heatmap(records, out_dir / f"{stem}.pgm")
            best = min(records, key=lambda r: r.re_L)
            minima.append({"re_L": best.re_L, "coords": list(best.coords)})
            points += len(records)
        report["done"] = time.monotonic()
        report["points"] = points
        report["minima"] = minima
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        report["peak_rss_kib"] = own + pool
        if tracer is not None:
            report["layers"] = tracer.totals()
            report["flips_built"] = tracer.flips
            tracer.dump(Path(args.trace_file), imported)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
