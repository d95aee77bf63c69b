#!/usr/bin/env python3
"""The repository benchmark: four workloads timed from outside the program.

    python3 perfbench/run.py --workload dense_bss --seed 1 --seconds 20
    python3 perfbench/run.py --workload all           # every workload
    python3 perfbench/run.py --workload mobile_mesh --trace 1
    python3 perfbench/run.py --compare A.json B.json  # saved with --out

Run it from the root of a checkout; it puts ``src`` on the workers'
``PYTHONPATH`` itself.  Each repetition is a fresh ``worker.py``
process, so set-up always includes the imports and peak memory is one
repetition's.  Repetitions run one after another (closed loop) until
``--seconds`` is spent, and every time reported is the median over
them.

``--trace 0`` reports the end-to-end metrics (``setup_s``, ``run_s``,
``peak_rss_mb``); ``--trace 1`` runs untraced repetitions, then traced
ones, and reports the per-layer ledger.  Both modes check every
operation's outcome fingerprint: against ``pinned.json`` when the seed
is pinned there, against the first repetition otherwise, and (traced)
against the untraced repetitions, including the kernel's event count.
A traced run leaves the spans of its last traced repetition in
``.perfbench-work/<workload>.spans.tsv``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` for the workloads, the
layer map and how to read a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned.json"
WORKDIR = ROOT / ".perfbench-work"

WORKLOADS = ("dense_bss", "interference_field", "mobile_mesh",
             "campaign_sweep")

#: name -> unit, measured with nothing wrapped.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: name -> unit, from the traced run (see README.md for the map).
PER_LAYER = {
    "core.events": "count", "core.events_per_s": "1/s", "core.self_s": "s",
    "phy.transceiver.events": "count", "mac.events": "count",
    "adversary.events": "count", "routing.events": "count",
    "net.events": "count", "mobility.events": "count",
    "faults.events": "count", "traffic.events": "count",
    "unattributed.events": "count",
    "phy.channel.transmits": "count", "phy.channel.arrivals": "count",
    "phy.channel.self_s": "s", "phy.channel.plan_hit_ratio": "ratio",
    "phy.channel.plan_invalidations": "count",
    "phy.channel.link_cache_hits": "count",
    "phy.transceiver.self_s": "s", "phy.transceiver.receptions": "count",
    "phy.interference.self_s": "s", "phy.interference.sinr_evals": "count",
    "phy.error_models.self_s": "s", "phy.error_models.per_evals": "count",
    "mac.self_s": "s", "mac.sends": "count", "mac.nav_updates": "count",
    "mac.ack_timeout_ratio": "ratio", "mac.rx_useful_ratio": "ratio",
    "net.self_s": "s", "net.roams": "count", "net.associations": "count",
    "routing.self_s": "s", "routing.control_rx": "count",
    "routing.forwarded": "count", "routing.delivery_ratio": "ratio",
    "adversary.self_s": "s", "adversary.bursts": "count",
    "mobility.self_s": "s", "mobility.moves": "count",
    "faults.self_s": "s", "faults.injected": "count",
    "traffic.self_s": "s", "traffic.generated": "count",
    "setup.import_s": "s", "setup.build_s": "s",
    "campaign.validate_s": "s", "campaign.expand_s": "s",
    "campaign.job_s": "s", "campaign.job_build_s": "s",
    "campaign.manifest_s": "s", "campaign.store_s": "s",
    "campaign.resume_s": "s", "campaign.jobs": "count",
    "trace.overhead_ratio": "ratio", "failed_ratio": "ratio",
}

#: Fewest repetitions a measurement reports a median of, and the point
#: after which no new repetition starts whatever the budget says (the
#: whole invocation has to end within three minutes).
MIN_REPS = 3
HARD_STOP_S = 110.0
WORKER_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


# --- one repetition -----------------------------------------------------------

def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_child(argv: List[str], timeout: float) -> Tuple[int, str, str]:
    """Run a child in its own process group; kill the group on timeout
    (campaign workers fork a pool) and always wait for it."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=_worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return -1, out, f"timed out after {timeout:.0f}s\n{err}"
    except BaseException:
        # Interrupted or terminated: take the worker group down with us.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out, err


def _campaign_dir() -> Path:
    """Where this invocation's campaign workers write their stores."""
    return WORKDIR / f"campaign-{os.getpid()}"


def repetition(workload: str, seed: int, size: str, trace: bool,
               jobs: int, timeout: float) -> Dict[str, Any]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--size", size, "--jobs", str(jobs),
            "--workdir", str(_campaign_dir())]
    if trace:
        argv.append("--trace")
    code, out, err = _run_child(argv, timeout)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"worker exited {code}: {tail}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"error": f"worker printed no result: {lines[-1][:200]}"}


def warm_up() -> None:
    """Import everything once so bytecode compilation never lands in a
    measured set-up time."""
    code, _out, err = _run_child(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'perfbench'); "
         "import workloads, probe"], WORKER_TIMEOUT_S)
    if code != 0:
        raise BenchError("cannot import the workloads: "
                         + " | ".join(err.strip().splitlines()[-3:]))


def repetitions(workload: str, seed: int, size: str, trace: bool,
                jobs: int, budget: float, started: float,
                least: int = MIN_REPS) -> List[Dict[str, Any]]:
    """Closed loop: repeat until ``budget`` seconds have passed since
    this call, at least ``least`` times unless the hard stop hits."""
    begin = time.monotonic()
    reps: List[Dict[str, Any]] = []
    while True:
        timeout = max(5.0, WORKER_TIMEOUT_S - (time.monotonic() - started))
        reps.append(repetition(workload, seed, size, trace, jobs, timeout))
        now = time.monotonic()
        typical = (now - begin) / len(reps)
        if now - started + typical > HARD_STOP_S:
            return reps
        if len(reps) >= least and now - begin + typical > budget:
            return reps


# --- correctness --------------------------------------------------------------

class Verdict:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def judge(self, reps: List[Dict[str, Any]],
              expected: Optional[Dict[str, Any]], expected_events: Optional[int],
              what: str) -> None:
        """Check each repetition's operations against ``expected``
        fingerprints (all of its operations fail if the repetition
        crashed or its event count differs from ``expected_events``)."""
        operations = len(expected) if expected else 1
        for number, rep in enumerate(reps, 1):
            label = f"{what} repetition {number}"
            if "error" in rep:
                self.attempted += operations
                self.failed += operations
                self.reasons.append(f"{label}: {rep['error']}")
                continue
            fingerprints = rep["fingerprints"]
            names = sorted(set(fingerprints) | set(expected or {}))
            broken = []
            events = rep["events"]
            if "ledger" in rep:
                ledger = rep["ledger"]
                if ledger["attributed_events"] != ledger["core.events"]:
                    broken.append(f"owner-attributed events "
                                  f"{ledger['attributed_events']} != "
                                  f"core.events {ledger['core.events']}")
                if ledger["core.events"] != events:
                    broken.append(f"traced core.events "
                                  f"{ledger['core.events']} != kernel "
                                  f"{events}")
            if expected_events is not None and events != expected_events:
                broken.append(f"{events} events, expected {expected_events}")
            for name in names:
                self.attempted += 1
                problems = list(rep["problems"].get(name, []))
                problems.extend(broken)
                if expected is not None and \
                        fingerprints.get(name) != expected.get(name):
                    problems.append(f"fingerprint {fingerprints.get(name)} "
                                    f"!= expected {expected.get(name)}")
                if problems:
                    self.failed += 1
                    self.reasons.append(f"{label} {name}: "
                                        + "; ".join(problems))

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def load_pins(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def pin_key(workload: str, size: str, seed: int) -> str:
    return f"{workload}/{size}/{seed}"


# --- measurement --------------------------------------------------------------

def _ok(reps: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    return [rep for rep in reps if "error" not in rep]


def _median(reps: List[Dict[str, Any]], key: str) -> float:
    values = [rep[key] for rep in _ok(reps)]
    return statistics.median(values) if values else float("nan")


def _reference(reps: List[Dict[str, Any]], pinned: Optional[Dict[str, Any]]
               ) -> Tuple[Optional[Dict[str, Any]], Optional[int]]:
    good = _ok(reps)
    expected = pinned if pinned is not None else (
        good[0]["fingerprints"] if good else None)
    return expected, (good[0]["events"] if good else None)


def measure(workload: str, seed: int, seconds: float, size: str,
            trace: bool, pins: Dict[str, Any]) -> Dict[str, Any]:
    started = time.monotonic()
    pinned = pins.get(pin_key(workload, size, seed))
    verdict = Verdict()
    if not trace:
        reps = repetitions(workload, seed, size, False, 2, seconds, started)
        expected, events = _reference(reps, pinned)
        verdict.judge(reps, expected, events, "untraced")
        metrics = {
            "setup_s": statistics.median(
                [rep["import_s"] + rep["build_s"] for rep in _ok(reps)]
                or [float("nan")]),
            "run_s": _median(reps, "run_s"),
            "peak_rss_mb": _median(reps, "peak_rss_mb"),
        }
        units = END_TO_END
        traced: List[Dict[str, Any]] = []
    else:
        # The traced campaign runs its jobs in-process (one trace), so
        # its untraced baseline does too.
        plain = repetitions(workload, seed, size, False, 1, seconds / 3.0,
                            started, least=1)
        traced = repetitions(workload, seed, size, True, 1,
                             seconds - (time.monotonic() - started), started,
                             least=1)
        expected, events = _reference(plain, pinned)
        verdict.judge(plain, expected, events, "untraced")
        verdict.judge(traced, expected, events, "traced")
        reps = plain + traced
        run_s = _median(plain, "run_s")
        good = _ok(traced)
        ledger = dict(good[-1]["ledger"]) if good else {}
        ledger.pop("attributed_events", None)
        ledger.pop("spans", None)
        metrics = {name: ledger.get(name, float("nan")) for name in PER_LAYER}
        metrics.update({
            "core.events_per_s": ledger.get("core.events", 0) / run_s,
            "setup.import_s": _median(plain, "import_s"),
            "setup.build_s": _median(plain, "build_s"),
            "trace.overhead_ratio": _median(traced, "run_s") / run_s,
        })
        units = PER_LAYER
    metrics["failed_ratio"] = verdict.ratio
    kernels = sorted({rep["env"]["kernel"] for rep in _ok(reps)})
    return {
        "samples": [rep["run_s"] for rep in _ok(reps)],
        "workload": workload, "seed": seed, "size": size, "trace": trace,
        "pinned": pinned is not None,
        "repetitions": len(reps) - len(traced), "traced": len(traced),
        "kernel": kernels[0] if len(kernels) == 1 else "+".join(kernels),
        "fingerprints": expected,
        "metrics": metrics, "units": dict(units, failed_ratio="ratio"),
        "attempted": verdict.attempted, "failed": verdict.failed,
        "reasons": verdict.reasons,
    }


# --- environment and comparison ----------------------------------------------

def commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout.
    The search stops at the checkout root, so an enclosing repository
    is never reported."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    kernels = sorted({result["kernel"] for result in results})
    return {"kernel": "+".join(kernels), "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit()}


def compare(before_path: Path, after_path: Path) -> int:
    before = json.loads(before_path.read_text())
    after = json.loads(after_path.read_text())
    if before["env"]["kernel"] != after["env"]["kernel"]:
        print(f"refusing to compare: resolved kernels differ "
              f"({before['env']['kernel']} vs {after['env']['kernel']})",
              file=sys.stderr)
        return 2
    old = {(r["workload"], r["trace"]): r for r in before["results"]}
    for result in after["results"]:
        base = old.get((result["workload"], result["trace"]))
        if base is None:
            continue
        for name, value in result["metrics"].items():
            reference = base["metrics"].get(name)
            if reference is None:
                continue
            ratio = value / reference if reference else float("nan")
            print(f"{result['workload']:20s} {name:34s} {reference:>14.6g} "
                  f"-> {value:<14.6g} x{ratio:.3f}")
    return 0


# --- reporting ----------------------------------------------------------------

def report(result: Dict[str, Any]) -> None:
    kind = "traced" if result["trace"] else "untraced"
    print(f"# {result['workload']} seed={result['seed']} size={result['size']}"
          f" {kind} repetitions={result['repetitions']}+{result['traced']}"
          f" kernel={result['kernel']}")
    for name, value in result["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{result['workload']:20s} {name:34s} {shown} "
              f"{result['units'][name]}")
    print(f"{result['workload']:20s} run_s per repetition: "
          + " ".join(f"{value:.4g}" for value in result["samples"]))
    source = "pinned" if result["pinned"] else "first repetition"
    verdict = "ok" if result["failed"] == 0 else "FAILED"
    print(f"{result['workload']:20s} fingerprints {verdict}: "
          f"{result['attempted'] - result['failed']}/{result['attempted']} "
          f"operations match ({source})")
    for reason in result["reasons"][:20]:
        print(f"  {reason}")


def _terminate(signum: int, _frame: Any) -> None:
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-pins", action="store_true",
                        help="write the observed fingerprints into "
                             "pinned.json (re-pinning is a deliberate "
                             "behaviour change)")
    parser.add_argument("--out", type=Path,
                        help="also save the results (for --compare)")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        if os.environ.get("REPRO_KERNEL") is not None:
            raise BenchError("REPRO_KERNEL is set; the benchmark measures "
                             "the default kernel selection only")
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(f"no repro sources under {ROOT / 'src'}; run "
                             f"from the root of a full checkout")
        warm_up()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    pins = load_pins(PINNED)
    # Recording compares the repetitions with each other, not with the
    # pins being replaced.
    checked = {} if args.record_pins else pins
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, args.size,
                             bool(args.trace), checked)
            report(result)
            results.append(result)
    finally:
        # A worker killed mid-campaign leaves its store behind.
        shutil.rmtree(_campaign_dir(), ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    if args.record_pins:
        for result in results:
            if result["fingerprints"] is not None and not result["failed"]:
                pins[pin_key(result["workload"], result["size"],
                             result["seed"])] = result["fingerprints"]
        PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    env = environment(results)
    print("env " + json.dumps(env, sort_keys=True))
    if args.out:
        args.out.write_text(json.dumps({"env": env, "results": results},
                                       indent=1, sort_keys=True) + "\n")
    multi = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if multi else name):
                {"value": value, "unit": r["units"][name]}
            for r in results for name, value in r["metrics"].items()
            if args.trace or name in END_TO_END},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
