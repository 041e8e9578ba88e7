"""One measured run of a workload, in a fresh interpreter started by run.py.

Usage: child.py '<json spec>' with keys workload, seed, smoke, dir, threads and
trace.  Set-up (imports and input generation) ends at the monotonic instant
``t_ready``; the timed part then runs the workload's operations through the
library and ``difading.cli.main``.  Artifacts stay in ``dir`` for run.py to
check, and ``dir/result.json`` holds the timings, the outcome of each
operation and, with tracing on, the per-layer metrics.
"""

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from difading import cli, codec, geometry  # noqa: E402

import spans  # noqa: E402
from workloads import derive, sizes  # noqa: E402


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
    return str(path)


def _cli_op(name, argv, out: Path, threads: int):
    def run():
        code = cli.main([*argv, "--out", str(out), "--threads", str(threads)])
        return None if code == cli.EXIT_OK else f"exit status {code}"

    return name, run


def _pack_lowdim(size, seed, work: Path, threads: int):
    packings = {}
    ops = []
    for k, packing_seed in enumerate(size["packing_seeds"]):
        config = geometry.PackingConfig(
            dimension=size["n"], r0=size["r0"], r1=size["r1"],
            seed=packing_seed, saturation_patience=size["patience"],
        )

        def pack(k=k, config=config):
            packings[k] = [geometry.generate_saturated_packing(config), None]

        def density(k=k):
            packings[k][1] = geometry.estimate_packing_density(
                packings[k][0], size["density_samples"], seed=derive(seed, "density", k)
            )

        ops += [(f"pack-{k}", pack), (f"density-{k}", density)]

    def save():
        for k, (packing, est) in packings.items():
            np.save(work / f"centers-{k}.npy", packing.centers)
            meta = {"saturated": packing.saturated, "count": packing.count}
            if est is not None:
                meta.update(density=est.density, stderr=est.stderr, samples=est.samples)
            (work / f"packing-{k}.json").write_text(json.dumps(meta))

    return ops, save


def _pack_highdim(size, seed, work: Path, threads: int):
    pack_cfg = _write_config(work / "pack.cfg", {
        "n": size["n"], "power": size["power"], "b": size["b"], "seed": derive(seed, "pack"),
        "patience": size["patience"], "max_codewords": size["max_codewords"],
    })
    check_cfg = _write_config(work / "converse.cfg", {
        "codebook": work / "pack" / "codebook.txt", "b": size["b"],
    })
    return [
        _cli_op("pack", ["pack", "--config", pack_cfg], work / "pack", threads),
        _cli_op("converse-check", ["converse-check", "--config", check_cfg],
                work / "converse", threads),
    ], None


def _simulate(size, seed, work: Path, threads: int):
    book = size["codebook"]
    codebook = codec.build_codebook(
        n=book["n"], power_budget=book["power"], b=book["b"], seed=derive(seed, "codebook"),
        max_codewords=book["max_codewords"],
    )
    codec.save_codebook(codebook, work / "codebook.txt")
    sim_cfg = _write_config(work / "simulate.cfg", {
        "codebook": work / "codebook.txt", "flavor": size["flavor"],
        "sigma_z2": size["sigma_z2"], "trials": size["trials"],
        "seed": derive(seed, "simulate"), "random_pairs": size["pairs"],
        "grid_resolution": size.get("grid", 33), "family": "uniform",
        "g_min": size["g_min"], "g_max": size["g_max"],
    })
    ops = [_cli_op("simulate", ["simulate", "--config", sim_cfg], work / "simulate", threads)]
    near = size.get("near")
    if near:
        near_cfg = _write_config(work / "near.cfg", {
            "n": near["n"], "power": near["power"], "b": near["b"],
            "sigma_z2": near["sigma_z2"], "trials": near["trials"],
            "seed": derive(seed, "near"), "family": "discrete", "values": near["gain"],
        })
        ops.append(_cli_op("near-codeword", ["near-codeword", "--config", near_cfg],
                           work / "near", threads))
    return ops, None


_PREPARE = {
    "pack-lowdim": _pack_lowdim,
    "pack-highdim": _pack_highdim,
    "simulate-fast": _simulate,
    "simulate-slow": _simulate,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    work = Path(spec["dir"])
    size = sizes(spec["workload"], spec["smoke"])
    ops, save = _PREPARE[spec["workload"]](size, spec["seed"], work, spec["threads"])
    t_ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    outcomes = []
    start = time.perf_counter()
    for name, run in ops:
        try:
            error = run()
        except Exception as exc:  # one failed operation must not hide the others
            error = f"{type(exc).__name__}: {exc}"
        outcomes.append({"name": name, "error": error})
    wall = time.perf_counter() - start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if save is not None:
        save()
    cli_bytes = sum(p.stat().st_size for d in work.iterdir() if d.is_dir()
                    for p in d.iterdir())
    result = {
        "t_ready": t_ready,
        "wall_s": wall,
        "peak_rss_kb": peak_rss_kb,
        "ops": outcomes,
        "cli_bytes_written": cli_bytes,
        "layers": None if tracer is None else spans.layer_metrics(tracer.spans),
    }
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
