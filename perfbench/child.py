"""One benchmark child process.  run.py starts every child with
PYTHONPATH=<checkout>/src, PYTHONHASHSEED pinned and CLANHESS_THREADS unset.

    child.py setup WORKLOAD SEED SHAPE          set up, report, exit
    child.py body WORKLOAD SEED SHAPE [SPANS]   set up, run the body; traced
                                                when a spans file is named
    child.py cli OUT TRACE ARGV...              clanhess.cli.main(ARGV), traced
                                                when TRACE is 1
    child.py import OUT                         import clanhess.cli, exit

``setup`` and ``body`` print one JSON object on stdout; ``cli`` and
``import`` leave stdout to the CLI and write their JSON to OUT.  Times are
perf_counter readings (CLOCK_MONOTONIC, shared by all processes), so the
parent can add the stretch from its spawn call to ``started``, when the
reference sampler (refclock.py) starts, scaled by ``scales``.
"""

from __future__ import annotations

import json
import os
import sys

from refclock import Sampler, clock


def _import_clanhess():
    import clanhess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(clanhess.__file__).startswith(src + os.sep):
        raise SystemExit(f"clanhess was loaded from {clanhess.__file__}, not from {src}")
    return clanhess


def _traced(spans_path: str):
    """Install the tracer; return the tracer and a function that writes the
    spans file and returns the flat counts."""
    from tracer import Tracer, install

    tracer = Tracer()
    cache_counts = install(tracer)

    def finish(extra: dict) -> dict:
        tracer.counts.update(cache_counts())
        tracer.dump(spans_path, extra)
        return tracer.flat()

    return tracer, finish


def main(argv: list[str]) -> int:
    sampler = Sampler()
    sampler.start()
    mode = argv[0]
    if mode in ("cli", "import"):
        out_path = argv[1]
        clanhess = _import_clanhess()
        finish = None
        if mode == "cli" and argv[2] == "1":
            _, finish = _traced(out_path)
        import clanhess.cli

        status = clanhess.cli.main(argv[3:]) if mode == "cli" else 0
        sys.stdout.flush()
        ended = clock()
        sampler.stop()
        timing = {
            "started": sampler.started,
            "ended": ended,
            "norm_s": sampler.normalize(sampler.started, ended),
            "scales": sampler.edge_scales(),
            **sampler.kernel(),
            "clanhess_file": clanhess.__file__,
        }
        if finish is not None:
            finish(timing)
        else:
            with open(out_path, "w", encoding="utf-8") as handle:
                json.dump(timing, handle)
        return status

    workload, seed, shape = argv[1], int(argv[2]), argv[3]
    spans_path = argv[4] if len(argv) > 4 else None
    clanhess = _import_clanhess()
    finish = None
    if spans_path:
        tracer, finish = _traced(spans_path)
    import workloads

    if finish is not None:
        workloads.class_of = tracer.timed(workloads.class_of, "schubert.brion_class")
    body = workloads.WORKLOADS[workload](seed, shape)
    body_start = clock()
    out = {"started": sampler.started, "clanhess_file": clanhess.__file__}
    res = workloads.Result()
    if mode == "body":
        body(res)
    sampler.stop()
    out["setup_s"] = sampler.normalize(sampler.started, body_start)
    out["scales"] = sampler.edge_scales()
    out.update(sampler.kernel())
    if mode == "body":
        out.update(res.to_json(sampler))
        if finish is not None:
            out["trace"] = finish({"workload": workload, "seed": seed, "wall_s": out["raw_wall_s"]})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
