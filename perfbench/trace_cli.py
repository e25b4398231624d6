"""Run one ttspec CLI command and time its import and its `cli.main`.

    python3 perfbench/trace_cli.py time|trace OUT.json OP_ID ARGS...

Behaves like `ttspec ARGS...` (same stdout, stderr and exit code) and
writes to OUT.json the time of `import ttspec.cli` and of `cli.main`.
With `trace` it also records spans around every layer and adds their
summary.  Only `sys` and `time`, both built into the interpreter, are
imported before the timed import, so that it pays for every standard
module the CLI pulls in; the tracer is imported after it.
"""

import sys
import time

t0 = time.perf_counter_ns()
import ttspec.cli  # noqa: E402  (timed: the import is part of every cold command)

import_ns = time.perf_counter_ns() - t0

import json  # noqa: E402

mode, out_path, op_id, argv = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
tracer = None
if mode == "trace":
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(op_id)
t1 = time.perf_counter_ns()
rc = ttspec.cli.main(argv)
main_ns = time.perf_counter_ns() - t1
sys.stdout.flush()

summary = {"import_ns": import_ns, "main_ns": main_ns}
if tracer is not None:
    tracer.end_op()
    summary.update(tracer.summary(), spans=list(tracer.span_records()))
with open(out_path, "w") as fh:
    json.dump(summary, fh)
sys.exit(rc)
