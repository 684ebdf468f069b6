#!/usr/bin/env python3
"""End-to-end serving benchmark of the HDFace stack (see README.md).

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/e2e/run.py --workload delta --seed 0 --seconds 8 --trace 0

``--workload all`` runs the four workloads one after another, each in its
own process, prints every metric side by side and cross-checks the fleet's
stream 0 against ``delta``.  ``--trace 1`` adds the traced replay and
reports the per-layer metrics instead of the end-to-end ones.
``--record FILE`` appends each run's record to a JSONL file, and
``--compare A B`` judges two such files against the bounds in
``BENCHMARK.json``.  ``--spans FILE`` summarises a traced run's spans.

The model is trained on first use and cached under ``.bench_build/e2e``.
Exit status: 0 when every check passed, 1 when a check or a comparison
failed, 2 when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = ROOT / ".bench_build" / "e2e"
WORKLOADS = ("cold", "delta", "warm", "fleet")


def _append(path, record):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(record, default=str) + "\n")


def _read_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def run_one(args, bench, model):
    import measure
    import workloads

    section = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    result, checks, info = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), model,
        OUT_DIR)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}")
    correct = all(ok for _, ok, _ in checks)
    print(f"e2e {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, ok, detail in checks:
        print(f"  {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    late = info["late_p99_ms"]
    tail = f"p{info['tail_pct']}" if info["tail_pct"] else "frame_ms"
    print(f"  frames={info['frames']} tail={tail} "
          f"recall={info['recall']:.3f} precision={info['precision']:.3f}"
          + (f" generator_late_p99={late:.3f}ms" if late is not None else ""))
    for m in section:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    if "spans" in info:
        info["spans"] = os.path.relpath(info["spans"], ROOT)
        print(f"  spans: {info['spans']}")
    line = measure.result_line(correct, result["attempted"],
                               result["failed"],
                               {n: metrics[n] for n in units}, units)
    if args.record:
        _append(args.record, {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "result": measure.parse_result(line),
            "checks": [list(c) for c in checks], "info": info})
    print(line, flush=True)
    return 0 if correct else 1


def run_all(args, bench):
    """Every workload in its own process, then the cross-workload checks."""
    tmp = OUT_DIR / f"all-{os.getpid()}.jsonl"
    tmp.unlink(missing_ok=True)
    status = 0
    for wl in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--record", str(tmp)],
            cwd=ROOT, timeout=900)
        status = status or proc.returncode
    records = {r["workload"]: r for r in _read_records(tmp)} \
        if tmp.exists() else {}
    tmp.unlink(missing_ok=True)
    if args.record:
        for r in records.values():
            _append(args.record, r)
    if "delta" in records and "fleet" in records:
        a = records["delta"]["info"]["digests"]
        b = records["fleet"]["info"]["digests"]
        n = min(len(a), len(b))
        same = n > 0 and a[:n] == b[:n]
        print(f"{'PASS' if same else 'FAIL'}  fleet stream 0 == delta: "
              f"{n} frame digests compared")
        status = status or (0 if same else 1)
    section = bench["per_layer" if args.trace else "end_to_end"]
    print(f"{'metric':<48}" + "".join(f"{w:>12}" for w in WORKLOADS))
    for m in section:
        vals = [records.get(w, {}).get("result", {}).get("metrics", {})
                .get(m["name"], {}).get("value") for w in WORKLOADS]
        print(f"{m['name'] + ' (' + m['unit'] + ')':<48}" + "".join(
            f"{v:>12.5g}" if v is not None else f"{'-':>12}" for v in vals))
    return status


def compare_cmd(paths, bench):
    import measure

    quality = {}

    def load(path):
        sets = {}
        for r in _read_records(path):
            if r["trace"] == 0:
                for name, m in r["result"]["metrics"].items():
                    sets.setdefault(r["workload"], {}).setdefault(
                        name, []).append(m["value"])
                quality.setdefault((r["workload"], r["seed"]), set()).add(
                    (r["info"]["recall"], r["info"]["precision"]))
        return sets

    rows = measure.compare(load(paths[0]), load(paths[1]),
                           bench["end_to_end"])
    print(f"{'workload':<7} {'metric':<14} {'unit':<9} "
          f"{'A median [q1, q3]':<32} {'B median [q1, q3]':<32} "
          f"{'worse':>7} {'bound':>6}  verdict")
    for r in rows:
        a = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*r["a"])
        b = "{1:.5g} [{0:.5g}, {2:.5g}]".format(*r["b"])
        print(f"{r['workload']:<7} {r['metric']:<14} {r['unit']:<9} "
              f"{a:<32} {b:<32} {r['worse']:>+7.1%} {r['bound']:>6.0%}  "
              f"{r['status']}")
    # detection quality is deterministic per seed: every run must agree
    repeat = True
    for (wl, seed), seen in sorted(quality.items()):
        same = len(seen) == 1
        repeat &= same
        print(f"{wl:<7} seed {seed}: recall/precision "
              f"{sorted(seen)} {'repeat exactly' if same else 'DIFFER'}")
    flagged = any(r["status"] == "FLAG" for r in rows)
    return 1 if flagged or not repeat else 0


def spans_cmd(path):
    from spans import frame_layer_seconds, read_jsonl

    spans = read_jsonl(path)
    per = frame_layer_seconds(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    totals, calls = {}, {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    for layers in per.values():
        for name, secs in layers.items():
            totals[name] = totals.get(name, 0.0) + secs
    print(f"{len(per)} frames, {len(spans)} spans, "
          f"{roots * 1e3:.1f} ms traced")
    print(f"{'layer':<30} {'calls':>6} {'self ms/frame':>14} {'share':>7}")
    for name, secs in sorted(totals.items(), key=lambda kv: -kv[1]):
        print(f"{name:<30} {calls[name]:>6} {secs / len(per) * 1e3:>14.3f} "
              f"{secs / roots:>7.1%}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="End-to-end serving benchmark (cold/delta/warm/fleet).")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0,
                    help="offsets every generated video and scene seed")
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed phase length (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", type=Path,
                    help="append this run's record to a JSONL file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two --record files (>= 3 runs each)")
    ap.add_argument("--spans", type=Path, help="summarise a spans JSONL file")
    ap.add_argument("--build-model", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/repro to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.compare:
        return compare_cmd(args.compare, bench)
    if args.spans:
        return spans_cmd(args.spans)

    import workloads

    model = workloads.model_path(ROOT)
    if args.build_model:
        workloads.build_model(model)
        return 0
    if not model.exists():
        # trained in a child process, so no measured run carries the
        # training's memory peak
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--build-model"], cwd=ROOT, check=True, timeout=850)
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench, model)


if __name__ == "__main__":
    sys.exit(main())
