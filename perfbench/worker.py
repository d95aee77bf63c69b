"""One repetition of one workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py --workload dense_bss \\
        --seed 1 [--size full|tiny] [--trace] [--jobs 2] [--workdir DIR]

Prints one JSON object on its last stdout line: the set-up split
(``import_s``, ``build_s``), ``run_s``, ``peak_rss_mb``, the kernel's
event count, the operation fingerprints and sanity problems, the
resolved kernel and, with ``--trace``, the per-layer ledger.  With
``--trace`` it also writes every span to
``.perfbench-work/<workload>.spans.tsv``.

Times are CPU seconds (user + system) of this process and of the
children it has waited for (the campaign pool's workers), so time the
host steals or throttles away is left out.  The clock starts before the
first ``repro`` import, so ``import_s + build_s`` is the workload's
set-up time.  ``run.py`` drives this script; it is not meant to be
compared across machines by itself.
"""

import resource


def cpu_s() -> float:
    """CPU seconds used so far by this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


_T0 = cpu_s()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict  # noqa: E402

SPANS_DIR = pathlib.Path(__file__).resolve().parent.parent / ".perfbench-work"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ledger(tracer: Any) -> Dict[str, float]:
    """The per-layer metrics one traced repetition yields."""
    from probe import EVENT_OWNERS
    tracer.refresh()
    totals = tracer.totals()
    counts = tracer.counts
    selfs = tracer.self_times()
    spans = tracer.inclusive_times()
    metrics: Dict[str, float] = {
        "core.events": totals["core.events"],
        "core.self_s": selfs.get("core", 0.0),
        "unattributed.events": tracer.events["unattributed"],
    }
    for owner in EVENT_OWNERS:
        metrics[f"{owner}.events"] = tracer.events[owner]
    for layer in ("phy.channel", "phy.transceiver", "phy.interference",
                  "phy.error_models", "mac", "net", "routing", "adversary",
                  "mobility", "faults", "traffic"):
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    transmits = counts["phy.channel.transmits"]
    receptions = counts["phy.transceiver.receptions"]
    metrics.update({
        "phy.channel.transmits": transmits,
        "phy.channel.arrivals": counts["phy.channel.arrivals"],
        "phy.channel.plan_hit_ratio": _ratio(
            totals["phy.channel.plan_hits"], transmits),
        "phy.channel.plan_invalidations":
            totals["phy.channel.plan_invalidations"],
        "phy.channel.link_cache_hits": totals["phy.channel.link_cache_hits"],
        "phy.transceiver.receptions": receptions,
        "phy.interference.sinr_evals": counts["phy.interference.sinr_evals"],
        "phy.error_models.per_evals": counts["phy.error_models.per_evals"],
        "mac.sends": counts["mac.sends"],
        "mac.nav_updates": totals["mac.nav_updates"],
        "mac.ack_timeout_ratio": _ratio(totals["mac.ack_timeouts"],
                                        totals["mac.tx_data"]),
        "mac.rx_useful_ratio": _ratio(counts["mac.rx_useful"], receptions),
        "net.roams": totals["net.roams"],
        "net.associations": totals["net.associations"],
        "routing.control_rx": counts["routing.control_rx"],
        "routing.forwarded": totals["routing.forwarded"],
        "routing.delivery_ratio": _ratio(totals["routing.delivered"],
                                         totals["routing.originated"]),
        "adversary.bursts": totals["adversary.bursts"],
        "mobility.moves": counts["mobility.moves"],
        "faults.injected": totals["faults.injected"],
        "traffic.generated": totals["traffic.generated"],
        "campaign.validate_s": spans.get("campaign.validate", 0.0),
        "campaign.expand_s": spans.get("campaign.expand", 0.0),
        "campaign.job_s": spans.get("campaign.job", 0.0),
        "campaign.job_build_s": tracer.job_build_seconds(),
        "campaign.manifest_s": spans.get("campaign.manifest", 0.0),
        "campaign.store_s": spans.get("campaign.store", 0.0),
        "campaign.resume_s": spans.get("campaign.resume", 0.0),
        "campaign.jobs": counts["campaign.jobs"],
    })
    metrics["attributed_events"] = sum(tracer.events.values())
    metrics["spans"] = len(tracer.start)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--workdir", default=".perfbench-work/campaign")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from probe import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    from repro.core.engine import resolve_kernel
    t_import = cpu_s()

    cls = workloads.WORKLOADS[args.workload]
    if args.workload == "campaign_sweep":
        workload = cls(args.seed, args.size, pathlib.Path(args.workdir),
                       jobs=args.jobs)
        if tracer is not None:
            tracer.patch_method(cls, "resume", "campaign.resume")
    else:
        workload = cls(args.seed, args.size)
    workload.build()
    t_build = cpu_s()
    workload.run()
    t_run = cpu_s()

    fingerprints, problems = workload.outcomes()
    events = workload.events()
    if hasattr(workload, "cleanup"):
        workload.cleanup()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result: Dict[str, Any] = {
        "import_s": t_import - _T0,
        "build_s": t_build - t_import,
        "run_s": t_run - t_build,
        "peak_rss_mb": max(own, children) / 1024.0,
        "events": events,
        "fingerprints": fingerprints,
        "problems": problems,
        "env": {"kernel": resolve_kernel(),
                "python": platform.python_version(),
                "nproc": os.cpu_count()},
    }
    if tracer is not None:
        result["ledger"] = ledger(tracer)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"{args.workload}.spans.tsv")
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
