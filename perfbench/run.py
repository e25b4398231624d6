"""ttspec benchmark: cold CLI processes and a warm library session.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics of a traced run with
--trace 1.  The full result, with the environment record, is also written
to perfbench/results/ (see README.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import MODULES as LAYERS
from workloads import ROUND_S, ROUNDS, TRACE_ROUNDS, WORKLOADS, cold_deck

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DIGESTS = BENCH / "digests.json"

CLI = "import sys; from ttspec.cli import main; sys.exit(main())"
CLI_SETUP = "import ttspec.cli; ttspec.cli.build_parser()"
SETUP_EVERY_S = 2.0
SETUP_SAMPLES = 12  # lib-warm: half before its run, half after
OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 170.0  # every run ends well inside the 180 s limit


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, argv: list[str], timeout: float):
        WORK.mkdir(exist_ok=True)
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        self.timed_out = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
            timer = threading.Timer(timeout, self._kill, (proc,))
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB
        self.stdout = out_path.read_bytes()
        self.stderr = err_path.read_bytes()

    def _kill(self, proc):
        self.timed_out = True
        proc.kill()


def _child_env() -> dict:
    """The caller's environment without TTSPEC_* overrides, with bytecode
    caching on (as for an installed package) and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TTSPEC_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _timeout(started: float, work_s: float = 0.0) -> float:
    """Time limit for a child expected to work `work_s` seconds."""
    return max(1.0, min(OP_TIMEOUT_S + work_s, RUN_BUDGET_S - (time.perf_counter() - started)))


# ------------------------------------------------------------------ checking


def check_cold(args: list[str], child: Child, expected: dict) -> str:
    """'ok', 'unchecked' (right envelope, no stored digest) or 'failed'."""
    if child.timed_out or child.rc != 0:
        return "failed"
    want = expected.get(shlex.join(args))
    if want is not None:
        return "ok" if _digest(child.stdout) == want else "failed"
    try:
        envelope = json.loads(child.stdout)
    except ValueError:
        return "failed"
    shape = (
        isinstance(envelope, dict)
        and set(envelope) == {"command", "parameters", "result"}
        and envelope["command"] == args[0]
        and isinstance(envelope["parameters"], dict)
    )
    return "unchecked" if shape else "failed"


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {"cli": {}, "lib-warm": {}}


# ------------------------------------------------------------------ metrics


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return {
        "value": ordered[n - 1 - beyond],
        "percentile": round(100.0 * (n - beyond) / n, 2),
        "samples": n,
        "beyond": beyond,
    }


def end_to_end(latencies, outcomes, setup_samples, rss_mb, busy_s=None) -> tuple[dict, dict]:
    """The end-to-end metrics and the tail's percentile.  `busy_s` is the
    wall time of all operations; by default the sum of `latencies`."""
    ok = sum(o != "failed" for o in outcomes)
    t = tail(latencies)
    metrics = {
        "ops_per_s": (ok / (busy_s or sum(latencies)), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (t.pop("value"), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_frac": (ok / len(outcomes), "ratio"),
    }
    return metrics, t


def per_layer(names: dict, counters: dict, cli: dict, wall: tuple) -> dict:
    """Per-layer metrics from summed span totals {name: [calls, self_ns, incl_ns]}.

    `wall` is (traced, untraced) operation time, both by the clock of the
    spans.  Layer self times are shares of the traced time; the cli start-up,
    measured untraced, is a share of the untraced time."""

    def calls(name):
        return names.get(name, (0, 0, 0))[0]

    def incl_s(*keys):
        return sum(names.get(k, (0, 0, 0))[2] for k in keys) / 1e9

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        rows = [v for k, v in names.items() if k.startswith(layer + ".")]
        self_s = sum(v[1] for v in rows) / 1e9
        m[f"{layer}.calls"] = (sum(v[0] for v in rows), "count")
        m[f"{layer}.self_s"] = (self_s, "s")
        m[f"{layer}.self_share"] = (ratio(self_s, wall[0]), "ratio")
    ff, qf, mw, gs = "finite_field.", "quadratic_forms.", "milnor_witt.", "graded_spectrum."
    cm, tt = "chow_motives.", "tt_geometry."
    evaluate = calls(qf + "DiagonalForm.evaluate")
    m.update({
        "finite_field.mul_calls": (calls(ff + "FieldElement.__mul__"), "count"),
        "finite_field.inverse_calls": (calls(ff + "FieldElement.inverse"), "count"),
        "finite_field.is_square_calls": (calls(ff + "is_square"), "count"),
        "finite_field.discrete_log_calls": (calls(ff + "discrete_log"), "count"),
        "finite_field.discrete_log_s": (incl_s(ff + "discrete_log"), "s"),
        "finite_field.primitive_element_s": (incl_s(ff + "primitive_element"), "s"),
        "finite_field.make_field_s": (incl_s(ff + "make_field"), "s"),
        "quadratic_forms.is_isotropic_calls": (calls(qf + "is_isotropic"), "count"),
        "quadratic_forms.evaluate_calls": (evaluate, "count"),
        "quadratic_forms.isotropy_hit_ratio": (ratio(counters.get(qf + "evaluate_zero", 0), evaluate), "ratio"),
        "quadratic_forms.witt_decompose_s": (incl_s(qf + "witt_decompose"), "s"),
        "quadratic_forms.fundamental_ideal_power_s": (incl_s(qf + "fundamental_ideal_power"), "s"),
        "milnor_witt.reduce_word_calls": (calls(mw + "reduce_word"), "count"),
        "milnor_witt.kmw_mul_calls": (calls(mw + "kmw_mul"), "count"),
        "milnor_witt.kmw_group_calls": (calls(mw + "kmw_group"), "count"),
        "milnor_witt.verify_ses_s": (incl_s(mw + "verify_ses"), "s"),
        "graded_spectrum.is_prime_ideal_calls": (calls(gs + "is_prime_ideal"), "count"),
        "graded_spectrum.prime_yield": (
            ratio(counters.get(gs + "certified", 0), calls(gs + "is_prime_ideal")), "ratio"),
        "graded_spectrum.enumerate_primes_s": (incl_s(gs + "enumerate_primes"), "s"),
        "chow_motives.compose_calls": (calls(cm + "compose"), "count"),
        "chow_motives.chow_mul_calls": (calls(cm + "chow_mul"), "count"),
        "chow_motives.hom_group_s": (incl_s(cm + "hom_group"), "s"),
        "tt_geometry.ideal_closure_calls": (calls(tt + "ideal_closure"), "count"),
        "tt_geometry.ideal_closure_s": (incl_s(tt + "ideal_closure"), "s"),
        "tt_geometry.prime_yield": (
            ratio(counters.get(tt + "primes", 0), counters.get(tt + "prime_candidates", 0)), "ratio"),
        "tt_geometry.from_edges_s": (incl_s(tt + "FiniteSpectralSpace.from_edges"), "s"),
        "cli.cold_start_s": (cli["cold_start_s"], "s"),
        "cli.cold_start_share": (ratio(cli["cold_start_s"], wall[1]), "ratio"),
        "cli.import_s": (cli["import_s"], "s"),
        "cli.parse_s": (incl_s("cli.build_parser", "cli.parse_args"), "s"),
        "cli.render_s": (incl_s("cli.render._render_table", "cli.render.json_dumps", "cli.render.print"), "s"),
        "trace.traced_wall_s": (wall[0], "s"),
        "trace.untraced_wall_s": (wall[1], "s"),
        "trace.overhead": (ratio(wall[0], wall[1]), "ratio"),
    })
    return m


def _add_summary(total: dict, counters: dict, summary: dict) -> None:
    for name, (c, s, i) in summary["names"].items():
        row = total.setdefault(name, [0, 0, 0])
        row[0] += c
        row[1] += s
        row[2] += i
    for name, n in summary["counters"].items():
        counters[name] = counters.get(name, 0) + n


# ---------------------------------------------------------------- workloads


def cold_setup(started: float) -> float:
    """Wall time of a fresh process that imports the CLI and builds its parser."""
    child = Child([sys.executable, "-c", CLI_SETUP], _timeout(started))
    if child.rc != 0:
        raise RuntimeError(f"set-up process failed: {child.stderr.decode(errors='replace')}")
    return child.wall_s


def run_cold(workload, seed, seconds, started) -> dict:
    """Closed loop, one command at a time, over round(seconds / ROUND_S)
    whole rounds of the deck: about `seconds` at the seed commit, and the
    same commands whatever the speed, so that runs compare like with like.
    Set-up samples are taken every SETUP_EVERY_S through the loop, so that
    they see the same machine conditions as the commands."""
    expected = load_digests()["cli"]
    deck = cold_deck(workload, seed)
    ops = max(1, round(seconds / ROUND_S[workload])) * len(deck) // ROUNDS[workload]
    cold_setup(started)  # fills the bytecode cache; not a sample
    setup, latencies, outcomes, rss = [], [], [], 0.0
    next_setup = time.perf_counter()
    i = 0
    while i < ops and _timeout(started) > 1.0:
        if time.perf_counter() >= next_setup:
            setup.append(cold_setup(started))
            next_setup += SETUP_EVERY_S
            continue
        args = deck[i % len(deck)]
        child = Child([sys.executable, "-c", CLI, *args], _timeout(started))
        latencies.append(child.wall_s)
        outcomes.append(check_cold(args, child, expected))
        rss = max(rss, child.rss_mb)
        i += 1
    metrics, tail_info = end_to_end(latencies, outcomes, setup, rss)
    return {"metrics": metrics, "tail": tail_info, "outcomes": outcomes}


def trace_cold(workload, seed, spans_path, started) -> dict:
    """The fixed traced prefix of the deck: each command runs untraced, then
    traced, both under trace_cli.py; both outputs must match each other and
    any stored digest.  The cli metrics come from the untraced child, so
    they leave out the tracer's own start-up and overhead."""
    expected = load_digests()["cli"]
    deck = cold_deck(workload, seed)
    deck = deck[: TRACE_ROUNDS * len(deck) // ROUNDS[workload]]
    names, counters = {}, {}
    walls = [0.0, 0.0]
    cli = {"cold_start_s": 0.0, "import_s": 0.0}
    outcomes = []
    plain_path, traced_path = WORK / "plain.json", WORK / "trace.json"
    with open(spans_path, "w") as spans:
        for op, args in enumerate(deck):
            runs = []
            for mode, path in (("time", plain_path), ("trace", traced_path)):
                path.unlink(missing_ok=True)
                argv = [sys.executable, str(BENCH / "trace_cli.py"), mode, str(path), str(op), *args]
                runs.append(Child(argv, _timeout(started)))
            plain, traced = runs
            outcome = check_cold(args, plain, expected)
            if (traced.rc != plain.rc or traced.stdout != plain.stdout
                    or not plain_path.exists() or not traced_path.exists()):
                outcome = "failed"
            outcomes.append(outcome)
            walls[0] += traced.wall_s
            walls[1] += plain.wall_s
            if outcome == "failed":
                continue
            timing = json.loads(plain_path.read_text())
            cli["cold_start_s"] += plain.wall_s - timing["main_ns"] / 1e9
            cli["import_s"] += timing["import_ns"] / 1e9
            summary = json.loads(traced_path.read_text())
            _add_summary(names, counters, summary)
            for record in summary["spans"]:
                spans.write(json.dumps(record) + "\n")
    metrics = per_layer(names, counters, cli, tuple(walls))
    return {"metrics": metrics, "outcomes": outcomes}


def _libwarm(mode, seed, seconds, timeout, *extra) -> tuple[dict, Child]:
    out = WORK / f"libwarm-{mode}.json"
    argv = [sys.executable, str(BENCH / "libwarm.py"), mode, str(seed), str(seconds), str(out), *extra]
    child = Child(argv, timeout)
    if child.rc != 0:
        why = "timed out" if child.timed_out else child.stderr.decode(errors="replace")
        raise RuntimeError(f"lib-warm worker failed: {why}")
    return json.loads(out.read_text()), child


def _block_outcomes(result: dict, expected) -> list[str]:
    """Per-call outcomes of a lib-warm pass.  A block whose digest differs
    from the stored one fails all its calls; without stored digests, calls
    that did not raise are unchecked."""
    outcomes = []
    for b, (n, errors, digest) in enumerate(
        zip(result["block_calls"], result["block_errors"], result["digests"])
    ):
        if expected and digest != expected[b % len(expected)]:
            outcomes += ["failed"] * n
        else:
            outcomes += ["failed"] * errors + ["ok" if expected else "unchecked"] * (n - errors)
    return outcomes


def run_libwarm(seed, seconds, started) -> dict:
    expected = load_digests()["lib-warm"].get(str(seed))

    def setup_samples(n):
        return [_libwarm("setup", seed, 0, _timeout(started))[0]["setup_s"] for _ in range(n)]

    setup = setup_samples(SETUP_SAMPLES // 2)
    result, child = _libwarm("run", seed, seconds, _timeout(started, seconds))
    setup += setup_samples(SETUP_SAMPLES - len(setup))
    latencies = [ns / 1e9 for ns in result["cpu_ns"]]
    outcomes = _block_outcomes(result, expected)
    busy_s = sum(result["wall_ns"]) / 1e9
    metrics, tail_info = end_to_end(latencies, outcomes, setup, child.rss_mb, busy_s)
    return {"metrics": metrics, "tail": tail_info, "outcomes": outcomes}


def trace_libwarm(seed, spans_path, started) -> dict:
    expected = load_digests()["lib-warm"].get(str(seed))
    result, _ = _libwarm("trace", seed, 0, _timeout(started), str(spans_path))
    plain, traced = sum(result["wall_ns"]) / 1e9, sum(result["traced_wall_ns"]) / 1e9
    outcomes = _block_outcomes(result, expected)
    if result["traced_digests"] != result["digests"]:
        outcomes = ["failed"] * len(outcomes)
    names, counters = {}, {}
    _add_summary(names, counters, result["trace"])
    cli = {"cold_start_s": 0.0, "import_s": 0.0}  # no CLI in this workload
    metrics = per_layer(names, counters, cli, (traced, plain))
    return {"metrics": metrics, "outcomes": outcomes}


# --------------------------------------------------------------------- main


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    started = time.perf_counter()
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}.seed{seed}.trace{int(trace)}"
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_before": _loadavg(),
    }
    spans = out_dir / f"{stem}.spans.jsonl"
    if workload == "lib-warm":
        res = trace_libwarm(seed, spans, started) if trace else run_libwarm(seed, seconds, started)
    else:
        res = trace_cold(workload, seed, spans, started) if trace else run_cold(workload, seed, seconds, started)
    env["loadavg_after"] = _loadavg()
    outcomes = res.pop("outcomes")
    failed = sum(o == "failed" for o in outcomes)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "failed_frac": failed / len(outcomes),
        "unchecked": sum(o == "unchecked" for o in outcomes),
        "tail": res.get("tail"),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
        "wall_s": time.perf_counter() - started,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={result['failed_frac']:.4f} unchecked={result['unchecked']}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    if result["tail"]:
        t = result["tail"]
        print(f"  op_tail_s is p{t['percentile']} of {t['samples']} samples ({t['beyond']} beyond it)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH / "results", help="directory for result files")
    args = parser.parse_args(argv)
    if not (SRC / "ttspec" / "cli.py").is_file():
        print(f"error: no ttspec sources under {SRC}; run from a ttspec checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print_result(result)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
